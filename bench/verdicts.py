"""Correctness check of a benchmark run.

An op fails when any of these holds:
- its exit status is outside {0, 2} (1 is a traceback, 3 a cap, 4 bad input);
- it is a `verify-cert` of a certificate the stream emitted, and the
  certificate is rejected;
- its verdict fields differ from the expected-verdict file, or it is
  missing from that file;
- its output differs from the same op's output in the first round;
- it was re-run with `--jobs 1` and the document differs from the
  `--jobs 2` document (of the first round, or of the op's single run if it
  is not measured).

Verdict fields are the answers (found, separable, partition, profile rows,
ok, dimensions, trace families), not raw bytes, so a certificate schema
change alone is not a failure. The file is recorded at the default seed.
The inputs of every other seed are affine images or reorderings of the same
corpus (see workloads.py), which keep every verdict field, so the file is
checked on every seed.
"""

from __future__ import annotations

import json

VERDICT_KEYS = ("all_ok", "built", "colorings_total", "consistent",
                "dimension", "edge_count", "edges", "found", "halfspace_vc",
                "n", "ok", "r_vc_dim", "radon_number", "rows", "separable",
                "tverberg_number", "vc_dim", "verified")
VERIFY_TAG = "+verify-cert:"


def verdict(record) -> dict:
    text = record["stdout"]
    try:
        doc = json.loads(text)
    except ValueError:
        return {"text": text.strip()}
    if not isinstance(doc, dict):
        return {"value": doc}
    out = {key: doc[key] for key in VERDICT_KEYS if key in doc}
    cert = doc.get("certificate")
    if isinstance(cert, dict) and "partition" in cert:
        out["partition"] = cert["partition"]
    return out


def _problem(record, expected_ops):
    code = record["code"]
    if code not in (0, 2):
        return f"exit status {code}: {record['stderr'].strip()[-300:]}"
    if VERIFY_TAG in record["id"] and (code != 0 or verdict(record).get("ok") is not True):
        return "emitted certificate rejected by verify-cert"
    if expected_ops is not None:
        want = expected_ops.get(record["id"])
        if want is None:
            return "op not in the expected-verdict file"
        if want["code"] != code or want["verdict"] != verdict(record):
            return f"verdict differs from the expected-verdict file (exit {code})"
    return None


def _json_or_text(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def check(result, expected) -> dict:
    """{"attempted": ops run, "failures": ["<op id>: <reason>", ...]}."""
    expected_ops = None if expected is None else expected["ops"]
    failures, attempted, first = [], 0, {}
    for number, rnd in enumerate(result["rounds"]):
        for record in rnd["ops"]:
            attempted += 1
            problem = _problem(record, expected_ops)
            seen = first.setdefault(record["id"], record["stdout"])
            if problem is None and seen != record["stdout"]:
                problem = "output differs from the first round"
            if problem is not None:
                failures.append(f"{record['id']} (round {number}): {problem}")
    for record in result["unmeasured"]:
        attempted += 1
        first[record["id"]] = record["stdout"]
        problem = _problem(record, expected_ops)
        if problem is not None:
            failures.append(f"{record['id']} (unmeasured): {problem}")
    for record in result["jobs_check"]:
        attempted += 1
        problem = _problem(record, None)
        measured = first.get(record["id"])
        if problem is None and (measured is None or
                                _json_or_text(measured) != _json_or_text(record["stdout"])):
            problem = "document at --jobs 1 differs from the measured run"
        if problem is not None:
            failures.append(f"{record['id']} (--jobs 1): {problem}")
    return {"attempted": attempted, "failures": failures}


def record(path, workload, seed, result):
    """Write the verdicts of the first round and of the unmeasured ops as
    the expected-verdict file."""
    if check(result, None)["failures"]:
        raise SystemExit("bench: refusing to record verdicts of a failing run")
    ops = {rec["id"]: {"code": rec["code"], "verdict": verdict(rec)}
           for rec in result["rounds"][0]["ops"] + result["unmeasured"]}
    doc = {"workload": workload, "seed": seed, "ops": ops}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
