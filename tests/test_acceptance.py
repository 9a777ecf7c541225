"""Thirteen end-to-end checks over the whole stack, one test each.

Every check builds a plain-data summary document from seeded corpora and
exact searches; its test asserts the document's verdicts at exact equality
and prints a single verdict line.
"""

import itertools

from bruteforce import (abstract_good_partition, affine_dependence_ref, counter_shuffle,
                        geometric_space, interval_space, interval_union_traces)

from convexparts.abstract import halfspaces, is_separable, radon_number, tverberg_number
from convexparts.combinat import mask_of, stirling2
from convexparts.constructions import (convex_position, halfspace_4coloring,
                                       moment_adversary_exhaustive,
                                       translated_copies,
                                       tverberg_tight_instance,
                                       verify_periodic_line_cover)
from convexparts.geometry import point_set
from convexparts.partitions import (build_K_polyhedra, build_r_separation,
                                    f_search, good_radon_partition,
                                    good_tverberg_partition,
                                    joint_cover_empty, st_separable,
                                    verify_r_separation)
from convexparts.ranges import halfspace_traces, intersect_close, union_close
from convexparts.rng import CounterRng
from convexparts.setsystems import (check_r_shatter, check_sauer,
                                    is_r_shattered, min_f_counting, r_vc_dim,
                                    set_system, vc_dim)


def _pts(seed, n, d):
    """n distinct points with small rational coordinates."""
    rng = CounterRng(seed)
    pts, seen = [], set()
    while len(pts) < n:
        p = tuple(rng.rat(64, 8) for _ in range(d))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return point_set(pts)


def _generic_pts(seed, n, d):
    # resample until affinely independent: a collinear triple sits inside
    # its own hull and would admit a split that generic position forbids
    attempt = 0
    while True:
        ps = _pts(f"{seed}:{attempt}", n, d)
        if affine_dependence_ref(ps.points) is None:
            return ps
        attempt += 1


def _system(seed, n_hi):
    """Random set system; the caller may keep drawing from the rng."""
    rng = CounterRng(seed)
    n = rng.randint(2, n_hi)
    count = rng.randint(1, min(2 ** n, 40))
    seen = set()
    while len(seen) < count:
        seen.add(rng.randint(0, 2 ** n - 1))
    edges = [[i for i in range(n) if m >> i & 1] for m in sorted(seen)]
    return set_system(n, edges), rng


# ---------------------------------------------------------------------------
# check builders, one per criterion; each returns a JSON-able document


def _check_01():
    # four planar points always admit a good (1,1) bipartition; three
    # affinely independent points never do, pinning the threshold at four
    partitions = []
    for k in range(200):
        ps = _pts(f"c1a:{k}", 4, 2)
        cert = good_radon_partition(ps, range(4), 1, 1)
        partitions.append(None if cert is None else cert.partition)
    found = sum(p is not None for p in partitions)
    refuted = 0
    for k in range(200):
        ps = _generic_pts(f"c1b:{k}", 3, 2)
        refuted += good_radon_partition(ps, range(3), 1, 1) is None
    return {"check": 1, "four_point_found": found,
            "four_point_partitions": partitions,
            "three_point_refuted": refuted, "threshold": 4}


def _check_02():
    # on the line, five points always split into three parts with a common
    # hull point; four never do, and the exhaustion transcript says how many
    # partitions were rejected
    five = f_search(1, 5, "random-rational", samples=25, seed="c2:five",
                    r=3, s_list=[1, 1, 1])
    four = f_search(1, 4, "random-rational", samples=25, seed="c2:four",
                    r=3, s_list=[1, 1, 1])
    tight = tverberg_tight_instance(1, 3)
    tight_refuted = good_tverberg_partition(
        tight, range(len(tight.points)), 3, [1, 1, 1]) is None
    return {"check": 2, "five_all_good": five.all_good,
            "five_partitions": [None if c is None else c.partition
                                for c in five.certificates],
            "four_witness_index": four.witness_index,
            "four_transcript": four.witness_transcript,
            "four_partition_count": stirling2(4, 3),
            "tight_witness_refuted": tight_refuted}


def _check_03():
    # unions of s hull pieces against one: 2s+1 points in convex position
    # are shattered by s-fold polytope intersections yet admit no good
    # bipartition, while every sampled (2s+2)-point set does
    rows = []
    for s in (1, 2):
        odd = convex_position(2 * s + 1)
        fam = intersect_close(halfspace_traces(odd), s)
        vc = vc_dim(fam.to_set_system())
        odd_refuted = good_radon_partition(
            odd, range(2 * s + 1), s, 1) is None
        hits = 0
        for k in range(100):
            ps = _pts(f"c3:{s}:{k}", 2 * s + 2, 2)
            hits += good_radon_partition(
                ps, range(2 * s + 2), s, 1) is not None
        even = convex_position(2 * s + 2)
        hits += good_radon_partition(
            even, range(2 * s + 2), s, 1) is not None
        rows.append({"s": s, "vc": vc, "odd_refuted": odd_refuted,
                     "even_found": hits})
    return {"check": 3, "rows": rows}


def _check_04():
    rows = []
    for k in range(10):
        ps = _pts(f"c4:{k}", 9, 3)
        coloring = halfspace_4coloring(ps)
        classes = [tuple(i for i, c in enumerate(coloring) if c == col)
                   for col in range(4)]
        big = max(classes, key=len)
        rest = tuple(i for i in range(9) if i not in big)
        rows.append({"k": k, "class_sizes": [len(c) for c in classes],
                     "big_class": list(big),
                     "inseparable": st_separable(ps, big, rest, 2, 1) is None})
    return {"check": 4, "instances": rows}


def _check_05():
    # the trace families behind checks 1-4, plus fresh random systems,
    # all stay under the shatter-function ceiling
    systems = []
    for k in range(200):
        systems.append(halfspace_traces(_pts(f"c1a:{k}", 4, 2)).to_set_system())
    for k in range(200):
        systems.append(
            halfspace_traces(_generic_pts(f"c1b:{k}", 3, 2)).to_set_system())
    for k in range(25):
        systems.append(halfspace_traces(_pts(f"c5line:{k}", 5, 1)).to_set_system())
    for s in (1, 2):
        odd = convex_position(2 * s + 1)
        systems.append(intersect_close(halfspace_traces(odd), s).to_set_system())
        for k in range(100):
            systems.append(
                halfspace_traces(_pts(f"c3:{s}:{k}", 2 * s + 2, 2)).to_set_system())
        systems.append(
            halfspace_traces(convex_position(2 * s + 2)).to_set_system())
    for k in range(10):
        systems.append(halfspace_traces(_pts(f"c4:{k}", 9, 3)).to_set_system())
    geometric_ok = sum(check_sauer(sys).all_ok for sys in systems)
    random_ok = 0
    for k in range(500):
        sys, _ = _system(f"c5r:{k}", 10)
        random_ok += check_sauer(sys).all_ok
    return {"check": 5, "geometric_systems": len(systems),
            "geometric_ok": geometric_ok,
            "random_systems": 500, "random_ok": random_ok}


def _check_06():
    profiles_ok = bounds_ok = max_dim = 0
    for k in range(200):
        sys, rng = _system(f"c6:{k}", 8)
        r = rng.randint(2, 4)
        prof = check_r_shatter(sys, r)
        ceiling = min_f_counting(max(1, vc_dim(sys)), r) - 1
        profiles_ok += prof.all_ok
        bounds_ok += prof.dimension <= ceiling
        max_dim = max(max_dim, prof.dimension)
    return {"check": 6, "systems": 200, "profiles_ok": profiles_ok,
            "bounds_ok": bounds_ok, "max_r_vc": max_dim}


def _check_07():
    line4 = point_set([[0], [1], [2], [3]])
    sys = interval_union_traces(line4, 3).to_set_system()
    formula = ((3 - 1) // 2) * 4 * 4 // 4
    return {"check": 7,
            "whole_set_4_shattered": is_r_shattered(sys, range(4), 4),
            "r_vc": r_vc_dim(sys, 4), "formula_value": formula}


def _check_08():
    rows = []
    for d in (1, 2):
        rep = moment_adversary_exhaustive(d, 3, 4)
        rows.append({"d": d, "s": 3, "r": 4, "ok": rep.ok, "total": rep.total,
                     "verified": rep.verified, "max_groups": rep.max_groups})
    return {"check": 8, "rows": rows}


def _check_09():
    rows = []
    for r in (2, 3):
        for s in (1, 2, 3):
            rep = verify_periodic_line_cover(r, s)
            rows.append({"r": r, "s": s, "n": rep.n, "ok": rep.ok,
                         "choices": rep.choices_checked,
                         "max_missed": rep.max_missed,
                         "miss_bound": rep.miss_bound})
    return {"check": 9, "rows": rows}


def _check_10():
    # separable pairs: the explicit cells keep every covered point at
    # side >= 1 of all their facets and push every opposite point to
    # side <= -1 of some facet, with at most t facets per cell
    kept = tried = max_facets = 0
    width_ok = contain_ok = exclude_ok = True
    k = 0
    while kept < 100 and k < 400:
        rng = CounterRng(f"c10:{k}")
        d, n = rng.randint(1, 3), rng.randint(4, 7)
        s, t = rng.randint(1, 3), rng.randint(1, 3)
        ps = _pts(f"c10p:{k}", n, d)
        cut = rng.randint(1, n - 1)
        order = counter_shuffle(rng, range(n))
        a = tuple(sorted(order[:cut]))
        b = tuple(sorted(order[cut:]))
        k += 1
        tried += 1
        cert = st_separable(ps, a, b, s, t)
        if cert is None:
            continue
        kept += 1
        polys = build_K_polyhedra(ps, cert.a_groups, cert.b_groups)
        for i, group in enumerate(cert.a_groups):
            width_ok &= len(polys[i]) <= t
            max_facets = max(max_facets, len(polys[i]))
            for p in group:
                contain_ok &= all(h.side(ps.points[p]) >= 1 for h in polys[i])
            for q in b:
                exclude_ok &= any(h.side(ps.points[q]) <= -1 for h in polys[i])
    kept_j = tried_j = max_piece = 0
    verified_j = True
    k = 0
    while kept_j < 50 and k < 200:
        ps = _pts(f"c10b:{k}", 6, 2)
        k += 1
        tried_j += 1
        cert = joint_cover_empty(ps, [(0, 1), (2, 3), (4, 5)], [2, 2, 2])
        if cert is None:
            continue
        kept_j += 1
        sep = build_r_separation(ps, cert.covers, cert)
        max_piece = max(max_piece,
                        max(max(u) for u in sep.facet_counts))
        verified_j &= verify_r_separation(ps, sep)
    return {"check": 10,
            "pair": {"kept": kept, "tried": tried, "max_facets": max_facets,
                     "width_ok": bool(width_ok), "containment_ok": bool(contain_ok),
                     "exclusion_ok": bool(exclude_ok)},
            "joint": {"kept": kept_j, "tried": tried_j,
                      "max_piece_facets": max_piece,
                      "verified": bool(verified_j)}}


def _check_11():
    # hull-disjoint translated copies of a tight instance refuse a good
    # (2,2) bipartition, so two pieces per side genuinely raise the threshold
    rows = []
    for d in (1, 2):
        copies = translated_copies(tverberg_tight_instance(d, 2), 2)
        n = len(copies.points)
        refuted = good_radon_partition(copies, range(n), 2, 2) is None
        rows.append({"d": d, "points": n, "refuted": refuted})
    return {"check": 11, "rows": rows}


def _check_12():
    space = interval_space(8)
    sep_ok, _ = is_separable(space)
    rows = []
    for n, s, t in ((4, 1, 1), (5, 1, 1), (5, 2, 1), (6, 2, 2)):
        line = point_set([[i] for i in range(n)])
        geo = good_radon_partition(line, range(n), s, t)
        abs_found = abstract_good_partition(geometric_space(line), range(n), s, t)
        if geo is None or abs_found is None:
            same = geo is None and abs_found is None
        else:
            same = tuple(geo.partition) == tuple(abs_found.partition)
        rows.append({"n": n, "s": s, "t": t, "found": geo is not None,
                     "same_partition": same})
    return {"check": 12, "radon": radon_number(space),
            "tverberg_3": tverberg_number(space, 3), "separable": sep_ok,
            "halfspace_vc": vc_dim(halfspaces(space)), "agreement": rows}


def _check_13():
    # the cover-emptiness oracle, the strict-separation oracle, and (for
    # t = 1) membership of a union-closed trace must all agree
    sets = checks = trace_checks = disagreements = 0
    for n in range(3, 8):
        for seed in (0, 1):
            ps = _pts(f"c13:{n}:{seed}", n, 2)
            sets += 1
            tf = halfspace_traces(ps)
            fams = {s: tuple(union_close(tf, s).traces) for s in (1, 2)}
            for size in range(1, n):
                for a in itertools.combinations(range(n), size):
                    b = tuple(i for i in range(n) if i not in a)
                    am, bm = mask_of(a, n), mask_of(b, n)
                    for s in (1, 2):
                        for t in (1, 2):
                            sep = st_separable(ps, a, b, s, t) is not None
                            emp = joint_cover_empty(ps, [a, b], [s, t]) is not None
                            checks += 1
                            disagreements += sep != emp
                            if t == 1:
                                hit = any(m & am == am and m & bm == 0
                                          for m in fams[s])
                                trace_checks += 1
                                disagreements += hit != sep
    return {"check": 13, "sets": sets, "oracle_checks": checks,
            "trace_checks": trace_checks, "disagreements": disagreements}


_BUILDERS = {1: _check_01, 2: _check_02, 3: _check_03, 4: _check_04,
             5: _check_05, 6: _check_06, 7: _check_07, 8: _check_08,
             9: _check_09, 10: _check_10, 11: _check_11, 12: _check_12,
             13: _check_13}

_DOCS = {}


def _run(k):
    if k not in _DOCS:
        _DOCS[k] = _BUILDERS[k]()
    return _DOCS[k]


# ---------------------------------------------------------------------------
# one test per check


def test_check_01_four_points_split_generic_triples_do_not():
    doc = _run(1)
    assert doc["four_point_found"] == 200
    assert doc["three_point_refuted"] == 200
    assert doc["threshold"] == 4
    print("check 01: PASS  200/200 four-point sets split, "
          "200/200 generic triples refuted")


def test_check_02_line_three_partition_threshold_is_five():
    doc = _run(2)
    assert doc["five_all_good"] is True
    assert all(p is not None for p in doc["five_partitions"])
    assert doc["four_witness_index"] == 0
    assert doc["four_transcript"] == doc["four_partition_count"] == 6
    assert doc["tight_witness_refuted"] is True
    print("check 02: PASS  25/25 five-point lines split into three, "
          "four-point witness exhausted 6 partitions")


def test_check_03_polytope_pieces_shatter_odd_sets_but_split_even_ones():
    doc = _run(3)
    for row in doc["rows"]:
        s = row["s"]
        assert row["vc"] == 2 * s + 1
        assert row["odd_refuted"] is True
        assert row["even_found"] == 101
    print("check 03: PASS  s in {1,2}: VC = 2s+1 on convex position, "
          "refuted at 2s+1 points, 101/101 found at 2s+2")


def test_check_04_four_coloring_blocks_two_piece_separation():
    doc = _run(4)
    assert len(doc["instances"]) == 10
    for row in doc["instances"]:
        assert sum(row["class_sizes"]) == 9
        assert max(row["class_sizes"]) >= 3
        assert row["inseparable"] is True
    print("check 04: PASS  10/10 colorings found, largest class "
          "(2,1)-inseparable every time")


def test_check_05_shatter_counts_stay_under_the_ceiling():
    doc = _run(5)
    assert doc["geometric_ok"] == doc["geometric_systems"] == 639
    assert doc["random_ok"] == doc["random_systems"] == 500
    print("check 05: PASS  639 geometric + 500 random systems under "
          "the shatter ceiling")


def test_check_06_partition_counts_respect_the_r_ceiling():
    doc = _run(6)
    assert doc["profiles_ok"] == doc["systems"] == 200
    assert doc["bounds_ok"] == 200
    print(f"check 06: PASS  200/200 systems, r-dimension <= counting "
          f"ceiling (max seen {doc['max_r_vc']})")


def test_check_07_interval_unions_shatter_four_points_into_four_parts():
    doc = _run(7)
    assert doc["whole_set_4_shattered"] is True
    assert doc["r_vc"] == doc["formula_value"] == 4
    print("check 07: PASS  3-interval unions 4-shatter the 4-point line, "
          "dimension 4 as computed")


def test_check_08_every_coloring_of_the_moment_instances_is_defeated():
    doc = _run(8)
    totals = {1: 256, 2: 65536}
    for row in doc["rows"]:
        assert row["ok"] is True
        assert row["verified"] == row["total"] == totals[row["d"]]
        assert row["max_groups"] <= 3
    print("check 08: PASS  all 256 + 65536 colorings defeated with "
          "at most 3 hull pieces per cover")


def test_check_09_periodic_colorings_dodge_every_interval_cover():
    doc = _run(9)
    assert len(doc["rows"]) == 6
    for row in doc["rows"]:
        r, s = row["r"], row["s"]
        assert row["ok"] is True
        assert row["n"] == r * (r - 1) * (s + 1) + 1
        assert row["miss_bound"] == (s + 1) * (r - 1)
        assert row["max_missed"] <= row["miss_bound"]
    print("check 09: PASS  6/6 (r,s) grids: every interval choice misses "
          "a point, within the miss bound")


def test_check_10_separations_come_with_checkable_cells():
    doc = _run(10)
    pair, joint = doc["pair"], doc["joint"]
    assert pair["kept"] == 100
    assert pair["width_ok"] is True
    assert pair["containment_ok"] is True
    assert pair["exclusion_ok"] is True
    assert joint["kept"] == 50
    assert joint["max_piece_facets"] <= 4
    assert joint["verified"] is True
    print("check 10: PASS  100 pair cells + 50 joint separations rebuilt "
          "and re-verified, facet caps respected")


def test_check_11_translated_copies_raise_the_two_piece_threshold():
    doc = _run(11)
    for row in doc["rows"]:
        assert row["points"] == 2 * (row["d"] + 1)
        assert row["refuted"] is True
    print("check 11: PASS  2(d+1) copied points admit no good (2,2) "
          "bipartition for d in {1,2}")


def test_check_12_interval_convexity_matches_the_geometric_line():
    doc = _run(12)
    assert doc["radon"] == 3
    assert doc["tverberg_3"] == 5
    assert doc["separable"] is True
    assert doc["halfspace_vc"] == 2
    for row in doc["agreement"]:
        assert row["same_partition"] is True
    print("check 12: PASS  8-point intervals: numbers 3/5, separable, "
          "halfspace VC 2, line searches agree on 4/4 cases")


def test_check_13_three_separability_oracles_agree_everywhere():
    doc = _run(13)
    assert doc["sets"] == 10
    assert doc["oracle_checks"] == 1904
    assert doc["trace_checks"] == 952
    assert doc["disagreements"] == 0
    print("check 13: PASS  1904 oracle + 952 trace comparisons, "
          "0 disagreements")

