"""JSON and CSV forms for point sets, set systems, and certificates, and
the reader of convexity spaces.

Rationals travel as "p/q" strings, never floats, so round-trips are exact.
Canonical bytes (sorted keys, fixed indentation, one trailing newline) make
independent runs byte-comparable. Every certificate document carries a
"schema" tag of the form name/version. Each schema has one writer X_data(cert)
and one reader X_from_data(data) that returns the certificate, point set
included; check_certificate dispatches on the tag and hands what the reader
returns to the schema's checker in partitions, which re-verifies the claim
from scratch using only the kernel predicates. A cover with no group
refutes nothing: verify_r_separation rejects it itself, and
check_certificate rejects it in an empty-intersection document; the
library checker accepts one, which only bruteforce.verify_moment_adversary
in the tests certifies, for an empty colour class, and build_r_separation
refuses one. Only the four schemas
that commands emit are known; any other is an input error.
Each codec imports the domain module whose objects it builds or reads, and
`rational` where it reads or writes a rational, so canonical_bytes and
canonical_text load nothing beyond this module, and a set-system command
loads no `rational`, `fractions` or `decimal`.
"""

from __future__ import annotations

import csv
import io
import json

from .errors import InputError


def canonical_bytes(data) -> bytes:
    """Stable byte form of a JSON-ready structure."""
    return (json.dumps(data, sort_keys=True, indent=1) + "\n").encode("utf-8")


def canonical_text(data) -> str:
    return canonical_bytes(data).decode("utf-8")


def _need(data, key, kind):
    if not isinstance(data, dict) or key not in data:
        raise InputError(f"{kind} document is missing {key!r}")
    return data[key]


def _list(value, what) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _int(value, what) -> int:
    # JSON true/false load as bool, which Python counts as an int
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def _items(data, key, kind) -> list:
    return _list(_need(data, key, kind), key)


def _ints(values, what) -> tuple:
    return tuple(_int(i, what) for i in _list(values, what))


def _index_lists(rows, what) -> list:
    return [_ints(row, what) for row in _list(rows, what)]


# ---------------------------------------------------------------- point sets

def point_set_data(ps: PointSet) -> dict:
    from .rational import rat_str

    data = {"dim": ps.dim,
            "points": [[rat_str(c) for c in p] for p in ps.points]}
    if ps.labels is not None:
        data["labels"] = list(ps.labels)
    return data


def _coord(value, parse_rat):
    # each reader imports parse_rat once and passes it in
    if isinstance(value, str):
        try:
            return parse_rat(value)
        except ValueError as err:
            raise InputError(f"bad rational literal {value!r}: {err}") from None
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"coordinates must be 'p/q' strings or integers, "
                     f"got {type(value).__name__}")


def point_set_from_data(data) -> PointSet:
    from .geometry import point_set
    from .rational import parse_rat

    pts = [[_coord(c, parse_rat) for c in _list(row, "a point")]
           for row in _items(data, "points", "point set")]
    labels = data.get("labels")
    ps = point_set(pts, labels=None if labels is None else _list(labels, "labels"))
    if "dim" in data and _int(data["dim"], "dim") != ps.dim:
        raise InputError("declared dimension disagrees with the points")
    return ps


# ---------------------------------------------------------------- set systems

def set_system_data(sys: SetSystem, meta: str | None = None) -> dict:
    data = {"n": sys.n, "edges": [list(e) for e in sys.edge_indices()]}
    if meta is not None:
        data["meta"] = meta
    return data


def set_system_from_data(data) -> SetSystem:
    from .setsystems import set_system

    return set_system(_int(_need(data, "n", "set system"), "n"),
                      _index_lists(_need(data, "edges", "set system"), "edges"))


# ------------------------------------------------------------ abstract spaces

def space_from_data(data) -> ConvexitySpace:
    from .abstract import convexity_space

    return convexity_space(_int(_need(data, "n", "convexity space"), "n"),
                           _index_lists(_need(data, "family", "convexity space"),
                                        "family"))


# ------------------------------------------------------------ shatter profile

SHATTER_CSV_SCHEMA = "shatter-profile/1"


def shatter_profile_csv(profile: ShatterProfile) -> str:
    """CSV rows (m, computed, bound, pass) under a versioned comment line."""
    out = io.StringIO()
    r_part = "" if profile.r is None else profile.r
    out.write(f"# {SHATTER_CSV_SCHEMA} kind={profile.kind} "
              f"dimension={profile.dimension} r={r_part}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["m", "computed", "bound", "pass"])
    for row in profile.rows:
        writer.writerow([row.m, row.computed, row.bound,
                         "true" if row.ok else "false"])
    return out.getvalue()


def shatter_profile_data(profile: ShatterProfile) -> dict:
    return {"kind": profile.kind,
            "dimension": profile.dimension,
            "r": profile.r,
            "rows": [{"m": row.m, "computed": row.computed,
                      "bound": row.bound, "pass": row.ok}
                     for row in profile.rows],
            "all_ok": profile.all_ok}


# ----------------------------------------------------------------- primitives

def hyperplane_data(h: Hyperplane) -> dict:
    from .rational import rat_str

    return {"normal": [rat_str(c) for c in h.normal],
            "offset": rat_str(h.offset)}


def hyperplane_from_data(data) -> Hyperplane:
    from .geometry import make_hyperplane
    from .rational import parse_rat

    normal = [_coord(c, parse_rat) for c in _items(data, "normal", "hyperplane")]
    return make_hyperplane(normal, _coord(_need(data, "offset", "hyperplane"), parse_rat))


def _groups_data(groups) -> list:
    return [list(g) for g in groups]


def _groups_from_data(ps, rows) -> tuple:
    from .geometry import _norm_group

    return tuple(_norm_group(ps, g) for g in _index_lists(rows, "groups"))


def _farkas(values) -> tuple:
    from .rational import parse_rat

    return tuple(_coord(y, parse_rat) for y in _list(values, "farkas"))


# --------------------------------------------------------------- certificates

SEPARATION_SCHEMA = "separation/1"
EMPTY_INTERSECTION_SCHEMA = "empty-intersection/1"
GOOD_PARTITION_SCHEMA = "good-partition/1"
R_SEPARATION_SCHEMA = "r-separation/1"


def separation_data(cert: SeparationCertificate) -> dict:
    return {"schema": SEPARATION_SCHEMA,
            "points": point_set_data(cert.ps),
            "a_groups": _groups_data(cert.a_groups),
            "b_groups": _groups_data(cert.b_groups),
            "hyperplanes": [[hyperplane_data(h) for h in row]
                            for row in cert.hyperplanes]}


def separation_from_data(data) -> SeparationCertificate:
    from .partitions import SeparationCertificate

    ps = point_set_from_data(_need(data, "points", "separation"))
    return SeparationCertificate(
        ps,
        _groups_from_data(ps, _need(data, "a_groups", "separation")),
        _groups_from_data(ps, _need(data, "b_groups", "separation")),
        tuple(tuple(hyperplane_from_data(h) for h in _list(row, "hyperplanes"))
              for row in _items(data, "hyperplanes", "separation")))


def empty_intersection_data(cert: EmptyIntersectionCertificate) -> dict:
    from .rational import rat_str

    return {"schema": EMPTY_INTERSECTION_SCHEMA,
            "points": point_set_data(cert.ps),
            "covers": [_groups_data(c) for c in cert.covers],
            "witnesses": [{"choice": list(w.choice),
                           "classes": list(w.classes),
                           "farkas": [rat_str(y) for y in w.farkas]}
                          for w in cert.witnesses]}


def empty_intersection_from_data(data) -> EmptyIntersectionCertificate:
    from .partitions import EmptyIntersectionCertificate, TupleWitness

    ps = point_set_from_data(_need(data, "points", "empty intersection"))
    covers = tuple(_groups_from_data(ps, rows)
                   for rows in _items(data, "covers", "empty intersection"))
    witnesses = tuple(
        TupleWitness(_ints(_need(w, "choice", "witness"), "choice"),
                     _ints(_need(w, "classes", "witness"), "classes"),
                     _farkas(_need(w, "farkas", "witness")))
        for w in _items(data, "witnesses", "empty intersection"))
    return EmptyIntersectionCertificate(ps, covers, witnesses)


def good_partition_data(cert: GoodPartitionCertificate) -> dict:
    params = {}
    for key, value in cert.params.items():
        params[key] = list(value) if isinstance(value, tuple) else value
    return {"schema": GOOD_PARTITION_SCHEMA,
            "points": point_set_data(cert.ps),
            "kind": cert.kind,
            "partition": _groups_data(cert.partition),
            "enumerated": cert.enumerated,
            "closed_form": cert.closed_form,
            "params": params}


def good_partition_from_data(data) -> GoodPartitionCertificate:
    from .partitions import GoodPartitionCertificate

    ps = point_set_from_data(_need(data, "points", "good partition"))
    params = _need(data, "params", "good partition")
    if not isinstance(params, dict):
        raise InputError("good partition params must be an object")
    params = {key: _ints(value, key) if key == "s_list" else _int(value, key)
              for key, value in params.items()}
    return GoodPartitionCertificate(
        ps,
        str(_need(data, "kind", "good partition")),
        _groups_from_data(ps, _need(data, "partition", "good partition")),
        _int(_need(data, "enumerated", "good partition"), "enumerated"),
        _int(_need(data, "closed_form", "good partition"), "closed_form"),
        params)


def r_separation_data(sep: PolyhedralSeparation) -> dict:
    from .rational import rat_str

    return {"schema": R_SEPARATION_SCHEMA,
            "points": point_set_data(sep.ps),
            "covers": [_groups_data(c) for c in sep.covers],
            "unions": [[[hyperplane_data(h) for h in piece] for piece in union]
                       for union in sep.unions],
            "emptiness": [{"choice": list(choice),
                           "farkas": [rat_str(y) for y in farkas]}
                          for choice, farkas in sep.emptiness]}


def r_separation_from_data(data) -> PolyhedralSeparation:
    from .partitions import PolyhedralSeparation

    ps = point_set_from_data(_need(data, "points", "r-separation"))
    covers = tuple(_groups_from_data(ps, rows)
                   for rows in _items(data, "covers", "r-separation"))
    unions = tuple(
        tuple(tuple(hyperplane_from_data(h) for h in _list(piece, "unions"))
              for piece in _list(union, "unions"))
        for union in _items(data, "unions", "r-separation"))
    emptiness = tuple(
        (_ints(_need(e, "choice", "emptiness"), "choice"),
         _farkas(_need(e, "farkas", "emptiness")))
        for e in _items(data, "emptiness", "r-separation"))
    return PolyhedralSeparation(ps, covers, unions, emptiness)


# ----------------------------------------------------------------- re-checker

def check_certificate(data, cap: int = 10**6) -> tuple:
    """(ok, schema) after re-deriving the certified claim from its inputs;
    cap bounds the grouping walk of the good-partition checker."""
    from . import partitions

    schema = _need(data, "schema", "certificate")
    if schema == SEPARATION_SCHEMA:
        return partitions.verify_separation(separation_from_data(data)), schema
    if schema == GOOD_PARTITION_SCHEMA:
        return partitions.verify_good_partition(good_partition_from_data(data), cap), schema
    if schema == R_SEPARATION_SCHEMA:
        return partitions.verify_r_separation(r_separation_from_data(data)), schema
    if schema != EMPTY_INTERSECTION_SCHEMA:
        raise InputError(f"unknown certificate schema {schema!r}")
    cert = empty_intersection_from_data(data)
    # every command covers nonempty parts; an empty cover refutes nothing
    return all(cert.covers) and partitions.verify_empty_intersection(cert), schema
