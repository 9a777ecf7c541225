"""`python -m convexparts`: the command line of `convexparts.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
