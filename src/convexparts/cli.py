"""Command line front end.

Every subcommand prints one machine-readable document to stdout (JSON by
default, CSV for the profile-shaped outputs) and, with --out-dir, writes the
same bytes plus any certificate files there. Reports are canonical: re-running
a command with the same flags byte-reproduces every artifact. Every command
runs in one process.

There is one render path. A handler returns (exit code, document, files) as
plain data, each file a (name, payload) pair whose payload is a JSON value,
or the text of profile.csv. `main` alone renders them: it refuses
--format csv before any handler runs unless the command and target are in
`_CSV`, prints the canonical JSON text of the document (or the profile.csv
text under --format csv), and writes each file's canonical bytes.

A command line is a command, a target for `gen` and `verify`, and the flags
every command shares, in any order. `_parse` reads it in one pass over the
`_FLAGS` table, so no parser object is built per call; `--help` prints usage
from that table. Each command imports what it runs, inside its handler, so a
process loads only those modules.

Exit codes: 0 verified/found, 2 property refuted with a counterexample,
3 resource cap hit, 4 input error (a missing or unknown target included).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from .errors import CapExceeded, InputError

DEFAULT_CAP = 10**6


def _format(text):
    if text not in ("json", "csv"):
        raise ValueError("choose json or csv")
    return text


# flag -> (attribute, converter, default); every flag takes one value
_FLAGS = {
    "--input": ("input", str, None),
    "--d": ("d", int, None),
    "--s": ("s", int, None),
    "--t": ("t", int, None),
    "--r": ("r", int, None),
    "--s-list": ("s_list", str, None),
    "--n": ("n", int, None),
    "--a": ("a", str, None),
    "--b": ("b", str, None),
    "--parts": ("parts", str, None),
    "--sampler": ("sampler", str, "random-rational"),
    "--samples": ("samples", int, 10),
    "--cap": ("cap", int, None),
    "--seed": ("seed", int, None),
    # accepted so existing command lines keep parsing; selects nothing
    "--jobs": ("jobs", int, 1),
    "--format": ("format", _format, "json"),
    "--out-dir": ("out_dir", str, None),
}
_HELP = "--help"

# a word starting with "-" is still a value when it reads as a negative number
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _flag(word):
    """(flag, attached value) when word names a flag, else None.

    A flag may be any unique prefix of its name, with its value attached
    after "="; "-h" takes whatever is glued to it as its value. An unknown
    flag comes back as (None, word).
    """
    if not word.startswith("-") or word == "-":
        return None
    if not word.startswith("--"):
        if word.startswith("-h"):
            return _HELP, word[2:] or None
        return None if _NEGATIVE.match(word) or " " in word else (None, word)
    name, eq, value = word.partition("=")
    if name not in _FLAGS and name != _HELP:
        found = [flag for flag in (*_FLAGS, _HELP) if flag.startswith(name)]
        if len(found) > 1:
            raise InputError(f"ambiguous flag {name}: it could be "
                             f"{', '.join(found)}")
        if not found:
            return None if " " in word else (None, word)
        name = found[0]
    return name, (value if eq else None)


def _usage():
    kinds = {int: "INT", str: "TEXT", _format: "json|csv"}
    lines = ["usage: convexparts COMMAND [TARGET] [--FLAG VALUE ...]", "",
             "Exact partition, shattering, and separation oracles for finite "
             "point sets.", "",
             f"commands: {', '.join(_HANDLERS)}"]
    lines += [f"{command} targets: {', '.join(targets)}"
              for command, targets in _TARGETS.items()]
    lines += ["", "Flags stand before or after the command. Each takes one "
              "value, as --flag VALUE or --flag=VALUE;", "a unique prefix "
              "names a flag, and the last repeat wins.", ""]
    lines += [f"  {flag} {kinds[convert]}"
              + ("" if default is None else f"  (default {default})")
              for flag, (_, convert, default) in _FLAGS.items()]
    lines.append("  -h, --help  print this text and exit")
    return "\n".join(lines) + "\n"


def _parse(argv):
    """The command, its optional target and every flag of argv.

    Flags stand anywhere around the command and its target. "--" ends the
    flags: each later word is a command or target, and each "--" is dropped.
    """
    argv = list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    # every flag word is read, and an ambiguous prefix refused, before any
    # value is converted
    flags = [_flag(word) for word in argv[:cut]] + [None] * (len(argv) - cut)
    args = {dest: default for dest, _, default in _FLAGS.values()}
    words, unknown = [], []
    i = 0
    while i < len(argv):
        word, flag = argv[i], flags[i]
        i += 1
        if flag is None:
            if word != "--":
                words.append(word)
            continue
        name, value = flag
        if name is None:
            unknown.append(word)
            continue
        if name == _HELP:
            if value is not None:
                raise InputError(f"{name} takes no value")
            sys.stdout.write(_usage())
            raise SystemExit(0)
        if value is None:
            if i == cut or flags[i] is not None:
                raise InputError(f"{name} needs a value")
            value = argv[i]
            i += 1
        dest, convert, _ = _FLAGS[name]
        try:
            args[dest] = convert(value)
        except ValueError as err:
            raise InputError(f"{name} got {value!r}: {err}") from None
    if unknown:
        raise InputError(f"unknown flags: {' '.join(unknown)}")
    if not words or words[0] not in _HANDLERS:
        raise InputError(f"the first word must be a command: "
                         f"{', '.join(_HANDLERS)}")
    if len(words) > 2:
        raise InputError(f"unexpected words: {' '.join(words[2:])}")
    return SimpleNamespace(command=words[0],
                           target=words[1] if len(words) > 1 else None, **args)


# ------------------------------------------------------------------- plumbing

def _load_json(path):
    if path is None:
        raise InputError("this subcommand needs --input")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise InputError("JSON input is nested too deeply") from None


def _load_points(path):
    from .serialize import point_set_from_data

    return point_set_from_data(_load_json(path))


def _load_system(path):
    from .serialize import set_system_from_data

    data = _load_json(path)
    if isinstance(data, dict) and "points" in data and "edges" not in data:
        raise InputError("this subcommand consumes a set system; "
                         "run `traces` on the point set first")
    return set_system_from_data(data)


def _int_list(text, flag):
    if text is None:
        raise InputError(f"this subcommand needs {flag}")
    try:
        return [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ValueError:
        raise InputError(f"{flag} wants comma-separated integers") from None


def _part_lists(text, flag):
    if text is None:
        raise InputError(f"this subcommand needs {flag}")
    return [_int_list(chunk, flag) for chunk in text.split(";") if chunk]


def _require(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise InputError(f"this subcommand needs --{name}")


def _cap(args):
    return DEFAULT_CAP if args.cap is None else args.cap


def _check_size(args, name, size):
    """Refuse a generator size above --cap before anything is allocated."""
    if size > _cap(args):
        raise CapExceeded(name, _cap(args), size)


def _seed(args, fallback=0):
    return fallback if args.seed is None else args.seed


def _s_list(args, count):
    """--s-list, else --s once per part."""
    if args.s_list is not None:
        return _int_list(args.s_list, "--s-list")
    if args.s is None:
        raise InputError("this subcommand needs --s or --s-list")
    return [args.s] * count


# ----------------------------------------------------------------- dimensions

def _cmd_vcdim(args):
    from .setsystems import vc_dim

    system = _load_system(args.input)
    doc = {"subcommand": "vcdim", "n": system.n, "edge_count": len(system),
           "vc_dim": vc_dim(system, cap=_cap(args))}
    return 0, doc, [("report.json", doc)]


def _cmd_rvcdim(args):
    from .setsystems import r_vc_dim

    _require(args, "r")
    system = _load_system(args.input)
    doc = {"subcommand": "rvcdim", "n": system.n, "edge_count": len(system),
           "r": args.r, "r_vc_dim": r_vc_dim(system, args.r, cap=_cap(args))}
    return 0, doc, [("report.json", doc)]


def _profile_output(args, profile, ok=None, **fields):
    """(exit code, document, files) of a shatter profile: report.json and
    profile.csv. A verify target's document adds the target, "ok" (the
    profile's all_ok unless given) and fields; the exit code follows ok."""
    from .serialize import shatter_profile_csv, shatter_profile_data

    ok = profile.all_ok if ok is None else ok
    doc = {"subcommand": args.command, **shatter_profile_data(profile)}
    if args.target is not None:
        doc.update(target=args.target, ok=ok, **fields)
    return (0 if ok else 2), doc, [
        ("report.json", doc), ("profile.csv", shatter_profile_csv(profile))]


def _cmd_shatter(args):
    """shatter, and verify sauer: the same profile under its own head."""
    from .setsystems import check_sauer

    system = _load_system(args.input)
    return _profile_output(args, check_sauer(system, m_max=args.n, cap=_cap(args)))


def _cmd_rshatter(args):
    from .setsystems import check_r_shatter

    _require(args, "r")
    system = _load_system(args.input)
    return _profile_output(args, check_r_shatter(system, args.r, m_max=args.n,
                                                 cap=_cap(args)))


def _cmd_bound_e31(args):
    from .setsystems import min_f_counting

    _require(args, "d", "r")
    value = min_f_counting(args.d, args.r, f_cap=_cap(args))
    report = {"subcommand": "bound-e31", "d": args.d, "r": args.r, "value": value}
    return 0, value, [("report.json", report)]


def _cmd_traces(args):
    from .ranges import halfspace_traces, intersect_close, union_close
    from .serialize import set_system_data

    ps = _load_points(args.input)
    family = halfspace_traces(ps)
    if args.t is not None:
        family = intersect_close(family, args.t, cap=_cap(args))
    if args.s is not None:
        family = union_close(family, args.s, cap=_cap(args))
    doc = set_system_data(family.to_set_system(), meta=family.provenance)
    doc["subcommand"] = "traces"
    return 0, doc, [("system.json", doc)]


# ------------------------------------------------------------------ searches

def _cmd_radon(args):
    from .partitions import good_radon_partition
    from .serialize import good_partition_data

    _require(args, "s", "t")
    ps = _load_points(args.input)
    cert = good_radon_partition(ps, range(len(ps)), args.s, args.t,
                                cap=_cap(args))
    if cert is None:
        doc = {"subcommand": "radon", "found": False, "s": args.s, "t": args.t,
               "n": len(ps), "bipartitions": (1 << len(ps)) - 2}
        return 2, doc, [("report.json", doc)]
    cert_doc = good_partition_data(cert)
    doc = {"subcommand": "radon", "found": True, "s": args.s, "t": args.t,
           "n": len(ps), "certificate": cert_doc}
    return 0, doc, [("report.json", doc), ("certificate.json", cert_doc)]


def _cmd_tverberg(args):
    from .partitions import good_tverberg_partition
    from .serialize import good_partition_data

    _require(args, "r")
    ps = _load_points(args.input)
    s_list = _s_list(args, args.r)
    cert = good_tverberg_partition(ps, range(len(ps)), args.r, s_list,
                                   cap=_cap(args))
    if cert is None:
        doc = {"subcommand": "tverberg", "found": False, "r": args.r,
               "s_list": list(s_list), "n": len(ps)}
        return 2, doc, [("report.json", doc)]
    cert_doc = good_partition_data(cert)
    doc = {"subcommand": "tverberg", "found": True, "r": args.r,
           "s_list": list(s_list), "n": len(ps), "certificate": cert_doc}
    return 0, doc, [("report.json", doc), ("certificate.json", cert_doc)]


def _cmd_separate(args):
    from .partitions import st_separability_report
    from .serialize import separation_data

    _require(args, "s", "t")
    ps = _load_points(args.input)
    a = _int_list(args.a, "--a")
    b = _int_list(args.b, "--b")
    cert, tried, closed = st_separability_report(ps, a, b, args.s, args.t,
                                                 cap=_cap(args))
    if cert is None:
        doc = {"subcommand": "separate", "separable": False, "s": args.s,
               "t": args.t, "enumerated": tried, "closed_form": closed}
        return 2, doc, [("report.json", doc)]
    cert_doc = separation_data(cert)
    doc = {"subcommand": "separate", "separable": True, "s": args.s,
           "t": args.t, "certificate": cert_doc}
    return 0, doc, [("report.json", doc), ("certificate.json", cert_doc)]


def _cmd_build_separation(args):
    from .partitions import build_r_separation, joint_cover_empty
    from .serialize import empty_intersection_data, r_separation_data

    ps = _load_points(args.input)
    parts = _part_lists(args.parts, "--parts")
    s_list = _s_list(args, len(parts))
    cert = joint_cover_empty(ps, parts, s_list, cap=_cap(args))
    if cert is None:
        doc = {"subcommand": "build-separation", "built": False,
               "parts": [sorted(p) for p in parts], "s_list": list(s_list),
               "reason": "no cover choice has empty joint intersection"}
        return 2, doc, [("report.json", doc)]
    sep = build_r_separation(cert, cap=_cap(args))
    empty_doc = empty_intersection_data(cert)
    sep_doc = r_separation_data(sep)
    doc = {"subcommand": "build-separation", "built": True,
           "parts": [sorted(p) for p in parts], "s_list": list(s_list),
           "facet_counts": [list(c) for c in sep.facet_counts],
           "empty_intersection": empty_doc, "separation": sep_doc}
    return 0, doc, [("report.json", doc), ("empty_intersection.json", empty_doc),
                    ("r_separation.json", sep_doc)]


def _cmd_fsearch(args):
    from .partitions import f_search
    from .serialize import good_partition_data, point_set_data

    _require(args, "d", "n")
    points = _load_points(args.input) if args.input is not None else None
    s_list = None if args.s_list is None else _int_list(args.s_list, "--s-list")
    report = f_search(args.d, args.n, args.sampler, samples=args.samples,
                      seed=_seed(args, "fsearch"), s=args.s, t=args.t,
                      r=args.r, s_list=s_list, points=points,
                      cap=_cap(args))
    params = {k: (list(v) if isinstance(v, tuple) else v)
              for k, v in report.params.items()}
    doc = {"subcommand": "fsearch", "mode": report.mode, "params": params,
           "sample_count": report.sample_count, "all_good": report.all_good,
           "witness_index": report.witness_index,
           "witness_transcript": report.witness_transcript,
           "witness": None if report.witness is None
           else point_set_data(report.witness),
           "certificates": [None if c is None else good_partition_data(c)
                            for c in report.certificates]}
    files = [("report.json", doc)]
    if report.witness is not None:
        files.append(("witness_points.json", point_set_data(report.witness)))
    return (0 if report.all_good else 2), doc, files


# ---------------------------------------------------------------- generators

def _cmd_gen(args):
    from .constructions import (convex_position, moment_adversary_instance,
                                moment_curve, moment_curve_bits, periodic_coloring,
                                translated_copies, tverberg_tight_instance)
    from .rng import CounterRng
    from .serialize import point_set_data

    target = args.target
    if target == "moment-curve":
        _require(args, "n", "d")
        _check_size(args, "moment_curve_coordinates", args.n * args.d)
        _check_size(args, "moment_curve_bits",
                    moment_curve_bits(args.n, args.d, args.seed is not None))
        rng = None if args.seed is None else CounterRng(args.seed)
        doc = point_set_data(moment_curve(args.n, args.d, rng=rng))
        name = "points.json"
    elif target == "convex-position":
        _require(args, "n")
        _check_size(args, "convex_position_points", args.n)
        rng = None if args.seed is None else CounterRng(args.seed)
        doc = point_set_data(convex_position(args.n, rng=rng))
        name = "points.json"
    elif target == "periodic":
        _require(args, "n", "r")
        _check_size(args, "periodic_points", args.n)
        doc = {"n": args.n, "r": args.r,
               "coloring": list(periodic_coloring(args.n, args.r))}
        name = "coloring.json"
    elif target == "tight":
        _require(args, "d", "r")
        attempts = 64 if args.cap is None else args.cap
        ps = tverberg_tight_instance(args.d, args.r, seed=_seed(args, "tight"),
                                     attempts=attempts)
        doc = point_set_data(ps)
        name = "points.json"
    elif target == "copies":
        _require(args, "s")
        ps = _load_points(args.input)
        _check_size(args, "copies_points", args.s * len(ps))
        ps = translated_copies(ps, args.s)
        doc = point_set_data(ps)
        name = "points.json"
    else:  # t42
        _t42_points(args)
        inst = moment_adversary_instance(args.d, args.s, args.r)
        doc = {"d": inst.d, "s": inst.s, "r": inst.r, "m": inst.m,
               "p": inst.p, "n": inst.n,
               "points": point_set_data(inst.points),
               "interval_index": list(inst.interval_index)}
        name = "instance.json"
    return 0, doc, [(name, doc)]


# ----------------------------------------------------------------- verifiers

def _verify_t999(args):
    from .constructions import periodic_cover_size, verify_periodic_line_cover

    _require(args, "r", "s")
    _check_size(args, "t999_points", periodic_cover_size(args.r, args.s, args.n))
    report = verify_periodic_line_cover(args.r, args.s, n=args.n, cap=_cap(args))
    doc = {"subcommand": "verify", "target": "t999", "ok": report.ok,
           "r": report.r, "s": report.s, "n": report.n,
           "coloring": list(report.coloring),
           "choices_checked": report.choices_checked,
           "max_missed": report.max_missed, "miss_bound": report.miss_bound,
           "failure": None if report.failure is None
           else [[list(iv) for iv in cover] for cover in report.failure]}
    return (0 if report.ok else 2), doc, [("report.json", doc)]


def _t42_points(args):
    """Point count of the t42 instance; its coordinate count and bit size
    are checked against --cap."""
    from .constructions import moment_adversary_size, moment_curve_bits

    _require(args, "d", "s", "r")
    m, p = moment_adversary_size(args.d, args.s, args.r)
    _check_size(args, "t42_coordinates", m * p * args.d)
    _check_size(args, "t42_bits", moment_curve_bits(m * p, args.d))
    return m * p


def _verify_t42(args):
    from .constructions import moment_adversary_exhaustive

    # r >= 2, so a power past the cap's bit length already exceeds it
    n = min(_t42_points(args), _cap(args).bit_length() + 1)
    _check_size(args, "t42_colorings", args.r ** n)
    report = moment_adversary_exhaustive(args.d, args.s, args.r)
    doc = {"subcommand": "verify", "target": "t42", "ok": report.ok,
           "d": report.d, "s": report.s, "r": report.r, "n": report.n,
           "colorings_total": report.total, "verified": report.verified,
           "max_groups": report.max_groups,
           "first_failure": None if report.first_failure is None
           else list(report.first_failure)}
    return (0 if report.ok else 2), doc, [("report.json", doc)]


def _verify_rshatter(args):
    from .setsystems import check_r_shatter, min_f_counting, vc_dim

    _require(args, "r")
    system = _load_system(args.input)
    profile = check_r_shatter(system, args.r, m_max=args.n, cap=_cap(args))
    d = vc_dim(system, cap=_cap(args))
    ceiling = min_f_counting(max(1, d), args.r, f_cap=_cap(args)) - 1
    consistent = profile.dimension <= ceiling
    return _profile_output(args, profile, ok=profile.all_ok and consistent, vc_dim=d,
                           counting_ceiling=ceiling, consistent=consistent)


def _verify_f3(args):
    from .constructions import halfspace_4coloring
    from .geometry import point_set
    from .partitions import st_separable
    from .rng import CounterRng
    from .serialize import separation_data

    if args.input is not None:
        ps = _load_points(args.input)
    else:
        n = 9 if args.n is None else args.n
        _check_size(args, "f3_points", n)
        ps = point_set(CounterRng(_seed(args), "f3").distinct_points(n, 3))
    if ps.dim != 3:
        raise InputError("this check runs on 3-dimensional points")
    coloring = halfspace_4coloring(ps)
    if coloring is None:
        doc = {"subcommand": "verify", "target": "f3", "ok": False,
               "n": len(ps), "reason": "no 4-coloring avoids monochromatic "
               "halfspace traces of size >= 2"}
        return 2, doc, [("report.json", doc)]
    classes = [[i for i, c in enumerate(coloring) if c == k] for k in range(4)]
    big = max(classes, key=len)
    rest = [i for i in range(len(ps)) if i not in big]
    cert = st_separable(ps, big, rest, 2, 1)
    doc = {"subcommand": "verify", "target": "f3", "ok": cert is None,
           "n": len(ps), "coloring": list(coloring), "largest_class": big,
           "class_size": len(big)}
    files = [("report.json", doc)]
    if cert is not None:
        counter = separation_data(cert)
        doc["counterexample"] = counter
        files.append(("counterexample.json", counter))
    return (0 if cert is None else 2), doc, files


def _verify_abstract(args):
    from .abstract import (check_member_pairs, halfspaces, is_separable,
                           radon_number, tverberg_number, validate_space)
    from .serialize import space_from_data
    from .setsystems import vc_dim

    data = _load_json(args.input)
    space = space_from_data(data)
    cap = _cap(args)
    check_member_pairs(space, cap)
    ok, violation = validate_space(space)
    doc = {"subcommand": "verify", "target": "abstract", "ok": ok,
           "n": space.n, "members": len(space.family),
           "violation": None if violation is None else list(violation)}
    if ok:
        doc["radon_number"] = radon_number(space, cap=cap)
        if args.r is not None:
            doc["tverberg_number"] = tverberg_number(space, args.r, cap=cap)
        separable, pair = is_separable(space, cap=cap)
        doc["separable"] = separable
        doc["first_inseparable"] = None if pair is None else [list(m) for m in pair]
        doc["halfspace_vc"] = vc_dim(halfspaces(space), cap=cap)
    return (0 if ok else 2), doc, [("report.json", doc)]


_VERIFY = {"t999": _verify_t999, "t42": _verify_t42, "sauer": _cmd_shatter,
           "rshatter": _verify_rshatter, "f3": _verify_f3,
           "abstract": _verify_abstract}

# the commands that take a target, with the targets each one accepts
_TARGETS = {"gen": ("moment-curve", "convex-position", "periodic", "tight",
                    "copies", "t42"),
            "verify": tuple(_VERIFY)}


def _cmd_verify(args):
    return _VERIFY[args.target](args)


def _cmd_verify_cert(args):
    from .serialize import check_certificate

    data = _load_json(args.input)
    ok, schema = check_certificate(data, _cap(args))
    doc = {"subcommand": "verify-cert", "schema": schema, "ok": ok}
    return (0 if ok else 2), doc, [("report.json", doc)]


_HANDLERS = {
    "vcdim": _cmd_vcdim,
    "rvcdim": _cmd_rvcdim,
    "shatter": _cmd_shatter,
    "rshatter": _cmd_rshatter,
    "bound-e31": _cmd_bound_e31,
    "traces": _cmd_traces,
    "radon": _cmd_radon,
    "tverberg": _cmd_tverberg,
    "separate": _cmd_separate,
    "build-separation": _cmd_build_separation,
    "fsearch": _cmd_fsearch,
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "verify-cert": _cmd_verify_cert,
}


# the (command, target) pairs whose profile.csv --format csv prints
_CSV = {("shatter", None), ("rshatter", None), ("verify", "sauer"),
        ("verify", "rshatter")}


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        targets = _TARGETS.get(args.command, ())
        if args.target not in (targets or (None,)):
            raise InputError(f"{args.command} got target {args.target!r}; its "
                             f"targets: {', '.join(targets) or 'none'}")
        if args.format == "csv" and (args.command, args.target) not in _CSV:
            raise InputError("this subcommand emits JSON only")
        code, doc, files = _HANDLERS[args.command](args)
        from .serialize import canonical_bytes, canonical_text

        text = (dict(files)["profile.csv"] if args.format == "csv"
                else canonical_text(doc))
        if args.out_dir is not None:
            # the printed document is encoded once, for stdout and its file
            payloads = [(name, data.encode("utf-8") if name.endswith(".csv")
                         else text.encode("utf-8") if data is doc and args.format != "csv"
                         else canonical_bytes(data)) for name, data in files]
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            for name, payload in payloads:
                (out / name).write_bytes(payload)
    except CapExceeded as err:
        print(f"resource cap: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        # InputError, JSON decode failures, and malformed numeric fields
        print(f"input error: {err}", file=sys.stderr)
        return 4
    except OSError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 4
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
