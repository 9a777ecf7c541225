"""Round trips and the certificate re-checker, including tamper detection."""

import inspect
import json
import sys

import pytest
from bruteforce import interval_space

from convexparts.combinat import indices_of
from convexparts.errors import InputError
from convexparts.geometry import make_hyperplane, point_set
from convexparts.partitions import (
    build_r_separation,
    good_radon_partition,
    good_tverberg_partition,
    joint_cover_empty,
    st_separable,
    verify_empty_intersection,
    verify_good_partition,
    verify_r_separation,
    verify_separation,
)
from convexparts.serialize import (
    canonical_bytes,
    canonical_text,
    check_certificate,
    empty_intersection_data,
    empty_intersection_from_data,
    good_partition_data,
    good_partition_from_data,
    hyperplane_data,
    hyperplane_from_data,
    point_set_data,
    point_set_from_data,
    r_separation_data,
    r_separation_from_data,
    separation_data,
    separation_from_data,
    set_system_data,
    set_system_from_data,
    shatter_profile_csv,
    space_from_data,
)
from convexparts.setsystems import check_sauer, set_system

SQUARE = point_set([[0, 0], [1, 1], [1, 0], [0, 1]])
LINE4 = point_set([[0], [1], [2], [3]])
LINE5 = point_set([[0], [1], [2], [3], [4]])
# a square with two points inside; PLANE7 adds a third
PLANE6 = point_set([[0, 0], [4, 0], [0, 4], [4, 4], [1, 2], [3, 1]])
PLANE7 = point_set([[0, 0], [4, 0], [0, 4], [4, 4], [1, 2], [3, 1], [2, 3]])


def reload(data):
    """Through actual JSON text, as the CLI round trip would see it."""
    return json.loads(canonical_text(data))


class TestCanonicalBytes:
    def test_frozen_form(self):
        assert canonical_bytes({"b": 1, "a": [1, 2]}) == \
            b'{\n "a": [\n  1,\n  2\n ],\n "b": 1\n}\n'

    def test_key_order_irrelevant(self):
        assert canonical_bytes({"x": 0, "y": 1}) == canonical_bytes({"y": 1, "x": 0})

    def test_stable_through_text(self):
        data = point_set_data(SQUARE)
        assert canonical_bytes(reload(data)) == canonical_bytes(data)


class TestPointSetDocs:
    def test_round_trip(self):
        ps = point_set([["1/3", -2], ["-3/5", "0"]], labels=["p", "q"])
        assert point_set_from_data(reload(point_set_data(ps))) == ps

    def test_integer_coordinates_accepted(self):
        ps = point_set_from_data({"points": [[0, 1], [2, 3]]})
        assert ps.dim == 2

    def test_rejects_floats(self):
        with pytest.raises(InputError):
            point_set_from_data({"points": [[0.5, 1]]})

    def test_rejects_zero_denominator(self):
        with pytest.raises(InputError):
            point_set_from_data({"points": [["1/0"]]})

    def test_rejects_dim_mismatch(self):
        with pytest.raises(InputError):
            point_set_from_data({"dim": 3, "points": [["0", "1"]]})

    def test_missing_key(self):
        with pytest.raises(InputError):
            point_set_from_data({"dim": 2})


class TestSystemAndSpaceDocs:
    def test_system_round_trip(self):
        sys = set_system(4, [[0, 1], [], [2]])
        assert set_system_from_data(reload(set_system_data(sys))) == sys

    def test_system_meta_is_carried(self):
        data = set_system_data(set_system(2, [[0]]), meta="halfspace")
        assert data["meta"] == "halfspace"
        assert set_system_from_data(data) == set_system(2, [[0]])

    def test_space_round_trip(self):
        sp = interval_space(4)
        doc = {"n": sp.n, "family": [indices_of(m) for m in sp.family]}
        assert space_from_data(reload(doc)) == sp


class TestShatterCsv:
    def test_frozen_profile(self):
        profile = check_sauer(set_system(2, [[], [0], [0, 1]]))
        assert shatter_profile_csv(profile) == (
            "# shatter-profile/1 kind=vc dimension=1 r=\n"
            "m,computed,bound,pass\n"
            "0,1,1,true\n"
            "1,2,2,true\n"
            "2,3,3,true\n")


class TestHyperplaneDocs:
    def test_round_trip(self):
        h = make_hyperplane(["1/2", -1], "7/3")
        assert hyperplane_from_data(reload(hyperplane_data(h))) == h

    def test_rejects_zero_normal(self):
        with pytest.raises(InputError):
            hyperplane_from_data({"normal": ["0", "0"], "offset": "1"})


class TestSeparationDocs:
    def test_round_trip_and_check(self):
        cert = st_separable(SQUARE, [0], [1, 2], 1, 2)
        data = reload(separation_data(cert))
        assert separation_from_data(data) == cert
        assert check_certificate(data) == (True, "separation/1")

    @pytest.mark.parametrize("width", [1, 3])
    def test_normal_of_another_dimension_fails(self, width):
        # the square's first separator has normal (-2, 0): a side test that
        # zips it with the points would accept either width
        cert = st_separable(SQUARE, [0], [1, 2], 1, 2)
        data = reload(separation_data(cert))
        normal = data["hyperplanes"][0][0]["normal"]
        data["hyperplanes"][0][0]["normal"] = (normal + ["5"])[:width]
        assert check_certificate(data) == (False, "separation/1")

    def test_tampered_side_fails(self):
        cert = st_separable(SQUARE, [0], [1], 1, 1)
        data = reload(separation_data(cert))
        data["a_groups"], data["b_groups"] = data["b_groups"], data["a_groups"]
        assert check_certificate(data) == (False, "separation/1")

    def test_group_index_outside_the_points_is_input_error(self):
        cert = st_separable(SQUARE, [0], [1], 1, 1)
        data = reload(separation_data(cert))
        data["a_groups"] = [[4]]
        with pytest.raises(InputError):
            check_certificate(data)


def _separation_without_a_groups():
    data = reload(separation_data(st_separable(PLANE6, [0, 3], [1, 2], 2, 2)))
    assert check_certificate(data) == (True, "separation/1")
    data.update(a_groups=[], hyperplanes=[])
    return data


def _cover_without_groups():
    cert = joint_cover_empty(PLANE6, [(0, 3), (1, 2), (4, 5)], [2, 2, 2])
    data = reload(empty_intersection_data(cert))
    assert check_certificate(data) == (True, "empty-intersection/1")
    data["covers"][0] = []
    data["witnesses"] = []
    return data


@pytest.mark.parametrize("tampered, schema", [
    (_separation_without_a_groups, "separation/1"),
    (_cover_without_groups, "empty-intersection/1"),
], ids=["separation-side-without-groups", "cover-without-groups"])
def test_certificates_that_claim_nothing_fail(tampered, schema):
    # with no group on one side there is no cross pair or tuple left to refute
    assert check_certificate(tampered()) == (False, schema)


class TestEmptyIntersectionDocs:
    def test_round_trip_and_check(self):
        cert = joint_cover_empty(LINE4, [(0, 2), (1, 3)], [2, 2])
        data = reload(empty_intersection_data(cert))
        assert empty_intersection_from_data(data) == cert
        assert check_certificate(data) == (True, "empty-intersection/1")

    def test_tampered_farkas_fails(self):
        cert = joint_cover_empty(LINE4, [(0, 2), (1, 3)], [2, 2])
        data = reload(empty_intersection_data(cert))
        data["witnesses"][0]["farkas"] = \
            ["0"] * len(data["witnesses"][0]["farkas"])
        assert check_certificate(data) == (False, "empty-intersection/1")

    @pytest.mark.parametrize("tamper", [
        # -1 would read as cover 1, and every Farkas vector would still check
        lambda data: [w.update(classes=[0, -1]) for w in data["witnesses"]],
        lambda data: data["witnesses"][0].update(classes=[0, 2]),
        lambda data: data["witnesses"][0].update(classes=[1, 1]),
        lambda data: data["witnesses"][1].update(
            choice=data["witnesses"][0]["choice"]),
    ], ids=["negative-class", "out-of-range-class", "repeated-class",
            "repeated-choice"])
    def test_tampered_witness_indices_fail(self, tamper):
        cert = joint_cover_empty(LINE4, [(0, 2), (1, 3)], [2, 2])
        data = reload(empty_intersection_data(cert))
        assert [w["classes"] for w in data["witnesses"]] == [[0, 1]] * 4
        tamper(data)
        assert check_certificate(data) == (False, "empty-intersection/1")


# One tampered value per good-partition/1 field, for the radon certificate
# on SQUARE (partition [[0, 1], [2, 3]], s = t = 1) and the tverberg one on
# LINE5 (partition [[0, 3], [1, 4], [2]], s_list [1, 1, 1]).
GOOD_PARTITION_TAMPERS = {
    "schema": {"radon": "good-partition/2", "tverberg": "good-partition/2"},
    # the diagonal {0, 1} becomes a side of the square; on the line, the
    # part {1, 4} becomes {1, 2} and misses the part {2}, now at 4
    "points": {"radon": {"dim": 2, "points": [["0", "0"], ["0", "1/2"],
                                              ["1", "0"], ["0", "1"]]},
               "tverberg": {"dim": 1, "points": [["0"], ["1"], ["4"], ["3"], ["2"]]}},
    "kind": {"radon": "tverberg", "tverberg": "radon"},
    # edges of the square are separable; so are consecutive runs on a line
    "partition": {"radon": [[0, 2], [1, 3]], "tverberg": [[0, 1], [2, 3], [4]]},
    "enumerated": {"radon": 12345, "tverberg": 12345},
    "closed_form": {"radon": 777, "tverberg": 777},
    "params": {"radon": {"s": 2, "t": 1}, "tverberg": {"s_list": [2, 1, 1]}},
}


class TestGoodPartitionDocs:
    def test_radon_check(self):
        cert = good_radon_partition(SQUARE, range(4), 1, 1)
        data = reload(good_partition_data(cert))
        assert data["partition"] == [[0, 1], [2, 3]]
        assert check_certificate(data) == (True, "good-partition/1")

    def test_tverberg_check(self):
        cert = good_tverberg_partition(LINE5, range(5), 3, 1)
        data = reload(good_partition_data(cert))
        assert data["partition"] == [[0, 3], [1, 4], [2]]
        assert check_certificate(data) == (True, "good-partition/1")

    @pytest.mark.parametrize("field", sorted(GOOD_PARTITION_TAMPERS))
    @pytest.mark.parametrize("kind", ["radon", "tverberg"])
    def test_tamper_fails(self, kind, field):
        if kind == "radon":
            cert = good_radon_partition(SQUARE, range(4), 1, 1)
            data = reload(good_partition_data(cert))
        else:
            cert = good_tverberg_partition(LINE5, range(5), 3, 1)
            data = reload(good_partition_data(cert))
        assert set(data) == set(GOOD_PARTITION_TAMPERS)
        data[field] = GOOD_PARTITION_TAMPERS[field][kind]
        if field == "schema":
            with pytest.raises(InputError):
                check_certificate(data)
        else:
            assert check_certificate(data) == (False, "good-partition/1")


    @pytest.mark.parametrize("partition", [
        [[4], [0, 1, 2, 3, 5]],
        [[4, 6], [0, 1, 2, 3, 5, 6]],
    ], ids=["skipped-point", "repeated-point"])
    def test_partition_of_other_points_fails(self, partition):
        # every command certifies a partition of the whole point set
        cert = good_radon_partition(PLANE7, range(7), 1, 1)
        data = reload(good_partition_data(cert))
        assert data["partition"] == [[4], [0, 1, 2, 3, 5, 6]]
        data["partition"] = partition
        assert check_certificate(data) == (False, "good-partition/1")


class TestRSeparationDocs:
    def test_round_trip_and_check(self):
        cert = joint_cover_empty(LINE4, [(0, 2), (1, 3)], [2, 2])
        sep = build_r_separation(cert)
        data = reload(r_separation_data(sep))
        decoded = r_separation_from_data(data)
        assert decoded.ps == LINE4 and decoded == sep
        assert check_certificate(data) == (True, "r-separation/1")

    def test_tampered_offset_fails(self):
        cert = joint_cover_empty(LINE4, [(0, 2), (1, 3)], [2, 2])
        sep = build_r_separation(cert)
        data = reload(r_separation_data(sep))
        data["unions"][0][0][0]["offset"] = "-1000"
        assert check_certificate(data) == (False, "r-separation/1")

    def test_check_solves_no_lp(self, monkeypatch):
        cert = joint_cover_empty(LINE4, [(0, 2), (1, 3)], [2, 2])
        data = reload(r_separation_data(build_r_separation(cert)))

        def refuse(*args, **kwargs):
            raise AssertionError("the checker solved an LP")

        for name, module in list(sys.modules.items()):
            if name.startswith("convexparts") and hasattr(module, "lp_feasible"):
                monkeypatch.setattr(module, "lp_feasible", refuse)
        assert check_certificate(data) == (True, "r-separation/1")

    def test_normal_of_another_dimension_fails(self):
        cert = joint_cover_empty(LINE4, [(0, 2), (1, 3)], [2, 2])
        data = reload(r_separation_data(build_r_separation(cert)))
        data["unions"][0][0][0]["normal"].append("0")
        assert check_certificate(data) == (False, "r-separation/1")

    @pytest.mark.parametrize("tamper", [
        lambda data: [e.update(farkas=["0"] * len(e["farkas"])) for e in data["emptiness"]],
        lambda data: data["emptiness"][0].update(choice=[7, 7]),
        lambda data: data.update(emptiness=[]),
    ], ids=["zeroed-farkas", "out-of-range-choice", "no-emptiness"])
    def test_tampered_emptiness_fails(self, tamper):
        # joint emptiness is read from these vectors, one per cross choice
        cert = joint_cover_empty(LINE4, [(0, 2), (1, 3)], [2, 2])
        sep = build_r_separation(cert)
        data = reload(r_separation_data(sep))
        tamper(data)
        assert check_certificate(data) == (False, "r-separation/1")


# schema -> (writer, reader, checker, a package-built certificate)
SCHEMAS = {
    "separation/1": (separation_data, separation_from_data, verify_separation,
                     lambda: st_separable(SQUARE, [0], [1, 2], 1, 2)),
    "empty-intersection/1": (
        empty_intersection_data, empty_intersection_from_data, verify_empty_intersection,
        lambda: joint_cover_empty(LINE4, [(0, 2), (1, 3)], [2, 2])),
    "good-partition/1": (good_partition_data, good_partition_from_data, verify_good_partition,
                         lambda: good_radon_partition(SQUARE, range(4), 1, 1)),
    "r-separation/1": (
        r_separation_data, r_separation_from_data, verify_r_separation,
        lambda: build_r_separation(joint_cover_empty(LINE4, [(0, 2), (1, 3)], [2, 2]))),
}


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
class TestOneShape:
    """Every certificate holds its point set; its writer, reader and
    checker take the certificate alone."""

    def test_reader_inverts_writer(self, schema):
        writer, reader, checker, build = SCHEMAS[schema]
        cert = build()
        data = reload(writer(cert))
        assert data["schema"] == schema
        assert reader(data) == cert
        assert checker(cert)

    def test_writer_and_checker_take_the_certificate_alone(self, schema):
        writer, _, checker, _ = SCHEMAS[schema]
        assert len(inspect.signature(writer).parameters) == 1
        params = list(inspect.signature(checker).parameters.values())
        assert [p.name for p in params if p.default is p.empty] == [params[0].name]
        # only the good-partition checker walks, so only it takes a cap
        walks = schema == "good-partition/1"
        assert [p.name for p in params[1:]] == (["cap"] if walks else [])


class TestDispatch:
    def test_unknown_schema(self):
        with pytest.raises(InputError):
            check_certificate({"schema": "nonsense/9"})

    def test_missing_schema(self):
        with pytest.raises(InputError):
            check_certificate({"points": {}})
