"""End-to-end command tests: the one-pass argv reader against the argparse
references, exit codes, document shapes, artifact round trips, byte
reproducibility whatever --jobs says, runs without a pool, and a scan for
library code that no command reaches."""

import ast
import concurrent.futures
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from bruteforce import flat_parser_ref, fraction_normalize_rows, nested_parser_ref
from hypothesis import given, settings
from hypothesis import strategies as st

from convexparts import setsystems
from convexparts.cli import _FLAGS, _HANDLERS, _TARGETS, _parse, main
from convexparts.errors import CapExceeded, InputError
from convexparts.serialize import canonical_bytes
from convexparts.setsystems import _Traces

SQUARE_DOC = {"dim": 2, "points": [["0", "0"], ["1", "1"], ["1", "0"], ["0", "1"]]}
TRIANGLE_DOC = {"dim": 2, "points": [["0", "0"], ["1", "0"], ["0", "1"]]}
LINE4_DOC = {"dim": 1, "points": [["0"], ["1"], ["2"], ["3"]]}
LINE5_DOC = {"dim": 1, "points": [["0"], ["1"], ["2"], ["3"], ["4"]]}
PATH3_SPACE = {"n": 3, "family": [[], [0], [1], [2], [0, 1], [1, 2], [0, 1, 2]]}


# Small JSON values, biased toward the keys and literals the readers look for
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.sampled_from(
        ["0", "1/2", "-3", "1/0", "x", "separation/1", "empty-intersection/1",
         "good-partition/1", "r-separation/1", "abstract-good-partition/1",
         "radon", "tverberg"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["points", "dim", "labels", "n", "edges", "family",
                         "schema", "kind", "partition", "params", "s", "t",
                         "s_list", "enumerated", "closed_form", "a_groups",
                         "b_groups", "hyperplanes", "normal", "offset",
                         "covers", "witnesses", "choice", "classes", "farkas",
                         "unions", "emptiness", "space", "subset"]),
        inner, max_size=5),
    max_leaves=12)


# Every subcommand that reads --input, with the flags it needs
INPUT_COMMANDS = {
    "vcdim": ["vcdim"],
    "rvcdim": ["rvcdim", "--r", "2"],
    "shatter": ["shatter"],
    "rshatter": ["rshatter", "--r", "2"],
    "traces": ["traces"],
    "radon": ["radon", "--s", "1", "--t", "1"],
    "tverberg": ["tverberg", "--r", "2", "--s", "1"],
    "separate": ["separate", "--a", "0", "--b", "1", "--s", "1", "--t", "1"],
    "build-separation": ["build-separation", "--parts", "0;1", "--s", "1"],
    "fsearch": ["fsearch", "--sampler", "file", "--d", "1", "--n", "2",
                "--s", "1", "--t", "1"],
    "gen-copies": ["gen", "copies", "--s", "2"],
    "verify-sauer": ["verify", "sauer"],
    "verify-rshatter": ["verify", "rshatter", "--r", "2"],
    "verify-f3": ["verify", "f3"],
    "verify-abstract": ["verify", "abstract", "--r", "3"],
    "verify-cert": ["verify-cert"],
}


# One command line per command or verify target that emits JSON only, each
# complete but for --input
JSON_ONLY = {
    "vcdim": ["vcdim"],
    "rvcdim": ["rvcdim", "--r", "2"],
    "bound-e31": ["bound-e31", "--d", "1", "--r", "2"],
    "traces": ["traces"],
    "radon": ["radon", "--s", "1", "--t", "1"],
    "tverberg": ["tverberg", "--r", "2", "--s", "1"],
    "separate": ["separate", "--a", "0", "--b", "1", "--s", "1", "--t", "1"],
    "build-separation": ["build-separation", "--parts", "0;1", "--s", "1"],
    "fsearch": ["fsearch", "--d", "1", "--n", "3", "--s", "1", "--t", "1",
                "--samples", "1"],
    "gen": ["gen", "moment-curve", "--n", "4", "--d", "2"],
    "verify-cert": ["verify-cert"],
    "verify-t999": ["verify", "t999", "--r", "2", "--s", "1"],
    "verify-t42": ["verify", "t42", "--d", "1", "--s", "1", "--r", "2"],
    "verify-f3": ["verify", "f3"],
    "verify-abstract": ["verify", "abstract", "--r", "3"],
}


def run(capsys, *args):
    code = main([str(a) for a in args])
    return code, capsys.readouterr().out


def run_json(capsys, *args):
    code, out = run(capsys, *args)
    return code, json.loads(out)


def put(tmp_path, name, doc):
    path = tmp_path / name
    path.write_bytes(canonical_bytes(doc))
    return path


class TestExamples:
    def test_bound_e31_prints_six(self, capsys):
        assert run(capsys, "bound-e31", "--d", 1, "--r", 2) == (0, "6\n")

    def test_t999_two_two(self, capsys):
        code, doc = run_json(capsys, "verify", "t999", "--r", 2, "--s", 2)
        assert code == 0
        assert doc["ok"] and doc["n"] == 7

    def test_radon_square_diagonals(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        out = tmp_path / "run"
        code, doc = run_json(capsys, "radon", "--input", sq, "--s", 1,
                             "--t", 1, "--out-dir", out)
        assert code == 0 and doc["found"]
        assert doc["certificate"]["partition"] == [[0, 1], [2, 3]]
        code, doc = run_json(capsys, "verify-cert", "--input",
                             out / "certificate.json")
        assert code == 0 and doc["ok"]

    def test_each_document_is_encoded_once(self, capsys, tmp_path, monkeypatch):
        import convexparts.serialize as serialize

        sq = put(tmp_path, "square.json", SQUARE_DOC)
        encoded = []
        real = serialize.canonical_bytes

        def counted(data):
            encoded.append(data)
            return real(data)

        monkeypatch.setattr(serialize, "canonical_bytes", counted)
        out = tmp_path / "run"
        code, text = run(capsys, "radon", "--input", sq, "--s", 1, "--t", 1,
                         "--out-dir", out)
        assert code == 0
        assert text.encode("utf-8") == (out / "report.json").read_bytes()
        documents = [json.loads((out / name).read_bytes())
                     for name in ("report.json", "certificate.json")]
        assert sorted(map(real, encoded)) == sorted(map(real, documents))


class TestSystemCommands:
    def test_traces_then_vcdim(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        code, doc = run_json(capsys, "traces", "--input", sq)
        assert code == 0
        assert doc["meta"] == "halfspace" and len(doc["edges"]) == 14
        sys_path = put(tmp_path, "system.json", doc)
        code, doc = run_json(capsys, "vcdim", "--input", sys_path)
        assert code == 0 and doc["vc_dim"] == 3

    def test_traces_closures_change_provenance(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        code, doc = run_json(capsys, "traces", "--input", sq, "--s", 2, "--t", 1)
        assert code == 0
        assert doc["meta"] == "union<=2(intersect<=1(halfspace))"

    def test_rvcdim(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        _, doc = run_json(capsys, "traces", "--input", sq)
        sys_path = put(tmp_path, "system.json", doc)
        code, doc = run_json(capsys, "rvcdim", "--input", sys_path, "--r", 2)
        assert code == 0 and doc["r_vc_dim"] >= 0

    def test_two_part_commands_never_walk_classes(self, capsys, tmp_path, monkeypatch):
        # neither the class walk nor the r >= 3 bitset count serves r = 2
        calls = []

        def recorded(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            return call

        monkeypatch.setattr(_Traces, "realizable", recorded("walk", _Traces.realizable))
        monkeypatch.setattr(setsystems, "_count_pinned",
                            recorded("bitset", setsystems._count_pinned))
        # intervals on 5 points: r_vc_dim 2 at r = 2, so rows 3..5 are counted
        edges = [list(range(i, j)) for i in range(5) for j in range(i, 6)]
        path = put(tmp_path, "system.json", {"n": 5, "edges": edges})
        for argv in (["rshatter", "--r", "2"], ["rvcdim", "--r", "2"],
                     ["verify", "rshatter", "--r", "2"]):
            assert main(argv + ["--input", str(path)]) == 0
            capsys.readouterr()
        assert calls == []
        # r = 3 asks r_vc_dim by the walk, then counts the rows above it
        assert main(["rshatter", "--r", "3", "--input", str(path)]) == 0
        capsys.readouterr()
        assert set(calls) == {"walk", "bitset"}

    def test_one_point_rshatter_walks_no_slots(self, capsys, tmp_path, monkeypatch):
        # a one-point subset is counted from its traces alone, so a million
        # slots cost no walk
        def refuse(*args):
            raise AssertionError("the slot walk ran on one point")

        monkeypatch.setattr(setsystems, "_count_pinned", refuse)
        path = put(tmp_path, "point.json", {"n": 1, "edges": [[0]]})
        code, doc = run_json(capsys, "rshatter", "--r", 10**6, "--input", path)
        assert code == 0
        assert doc == {"all_ok": True, "dimension": 0, "kind": "rvc", "r": 10**6,
                       "rows": [{"bound": 1, "computed": 1, "m": 0, "pass": True},
                                {"bound": 999999, "computed": 0, "m": 1, "pass": True}],
                       "subcommand": "rshatter"}

    def test_shatter_csv_header(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        _, doc = run_json(capsys, "traces", "--input", sq)
        sys_path = put(tmp_path, "system.json", doc)
        code, out = run(capsys, "shatter", "--input", sys_path,
                        "--format", "csv")
        assert code == 0
        assert out.startswith("# shatter-profile/1 kind=vc dimension=3 r=\n"
                              "m,computed,bound,pass\n")

    def test_shatter_json(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        _, doc = run_json(capsys, "traces", "--input", sq)
        sys_path = put(tmp_path, "system.json", doc)
        code, doc = run_json(capsys, "shatter", "--input", sys_path)
        assert code == 0 and doc["all_ok"]

    def test_vcdim_rejects_points_doc(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        code = main(["vcdim", "--input", str(sq)])
        capsys.readouterr()
        assert code == 4


class TestSearchCommands:
    def test_radon_refuted(self, capsys, tmp_path):
        tri = put(tmp_path, "tri.json", TRIANGLE_DOC)
        code, doc = run_json(capsys, "radon", "--input", tri, "--s", 1, "--t", 1)
        assert code == 2
        assert doc == {"subcommand": "radon", "found": False, "s": 1, "t": 1,
                       "n": 3, "bipartitions": 6}

    def test_separate_found(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        out = tmp_path / "sep"
        code, doc = run_json(capsys, "separate", "--input", sq, "--a", "0",
                             "--b", "1,2", "--s", 1, "--t", 2, "--out-dir", out)
        assert code == 0 and doc["separable"]
        code, doc = run_json(capsys, "verify-cert", "--input",
                             out / "certificate.json")
        assert code == 0 and doc["ok"]

    def test_separate_refuted(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        code, doc = run_json(capsys, "separate", "--input", sq, "--a", "0,1",
                             "--b", "2,3", "--s", 1, "--t", 1)
        assert code == 2
        assert not doc["separable"]
        assert doc["enumerated"] == doc["closed_form"] == 1

    def test_tverberg_line(self, capsys, tmp_path):
        line = put(tmp_path, "line5.json", LINE5_DOC)
        code, doc = run_json(capsys, "tverberg", "--input", line, "--r", 3,
                             "--s", 1)
        assert code == 0
        assert doc["certificate"]["partition"] == [[0, 3], [1, 4], [2]]

    def test_tverberg_needs_group_bound(self, capsys, tmp_path):
        line = put(tmp_path, "line5.json", LINE5_DOC)
        code = main(["tverberg", "--input", str(line), "--r", "3"])
        capsys.readouterr()
        assert code == 4

    def test_build_separation(self, capsys, tmp_path):
        line = put(tmp_path, "line4.json", LINE4_DOC)
        out = tmp_path / "bs"
        code, doc = run_json(capsys, "build-separation", "--input", line,
                             "--parts", "0,2;1,3", "--s-list", "2,2",
                             "--out-dir", out)
        assert code == 0 and doc["built"]
        assert doc["facet_counts"] == [[2, 2], [2, 2]]
        for name in ["empty_intersection.json", "r_separation.json"]:
            code, verdict = run_json(capsys, "verify-cert", "--input", out / name)
            assert code == 0 and verdict["ok"], name

    @pytest.mark.parametrize("name, emptied", [
        ("empty_intersection.json", {"witnesses": []}),
        # with cover 0 empty, the facet bound of cover 1's piece is 0
        ("r_separation.json", {"unions": [[], [[]]], "emptiness": []}),
    ], ids=["empty-intersection", "r-separation"])
    def test_a_cover_with_no_group_is_rejected(self, capsys, tmp_path, name, emptied):
        # cover 0 loses its groups, and with them every cross tuple there
        # was to refute: the tampered certificate claims nothing
        line = put(tmp_path, "line4.json", LINE4_DOC)
        out = tmp_path / "bs"
        code, _ = run(capsys, "build-separation", "--input", line,
                      "--parts", "0,1;2,3", "--s", 1, "--out-dir", out)
        assert code == 0
        data = json.loads((out / name).read_text(encoding="utf-8"))
        data["covers"][0] = []
        data.update(emptied)
        code, verdict = run_json(capsys, "verify-cert", "--input",
                                 put(tmp_path, "tampered.json", data))
        assert code == 2 and verdict["ok"] is False

    def test_build_separation_refuted(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        code, doc = run_json(capsys, "build-separation", "--input", sq,
                             "--parts", "0,1;2,3", "--s", 1)
        assert code == 2 and not doc["built"]


class TestGen:
    def test_periodic(self, capsys):
        code, doc = run_json(capsys, "gen", "periodic", "--n", 7, "--r", 2)
        assert code == 0
        assert doc == {"n": 7, "r": 2, "coloring": [0, 1, 0, 1, 0, 1, 0]}

    def test_moment_curve_default_spacing(self, capsys):
        code, doc = run_json(capsys, "gen", "moment-curve", "--n", 5, "--d", 2)
        assert code == 0
        assert doc["points"][0] == ["1/6", "1/36"]
        assert doc["points"][4] == ["5/6", "25/36"]

    def test_convex_position_seeded_reproducible(self, capsys):
        first = run(capsys, "gen", "convex-position", "--n", 6, "--seed", 7)
        second = run(capsys, "gen", "convex-position", "--n", 6, "--seed", 7)
        assert first == second and first[0] == 0

    def test_tight(self, capsys):
        code, doc = run_json(capsys, "gen", "tight", "--d", 1, "--r", 3)
        assert code == 0 and len(doc["points"]) == 4

    def test_copies(self, capsys, tmp_path):
        line = put(tmp_path, "line4.json", LINE4_DOC)
        code, doc = run_json(capsys, "gen", "copies", "--input", line, "--s", 2)
        assert code == 0 and len(doc["points"]) == 8

    def test_t42_instance(self, capsys):
        code, doc = run_json(capsys, "gen", "t42", "--d", 1, "--s", 3, "--r", 4)
        assert code == 0
        assert (doc["m"], doc["p"], doc["n"]) == (2, 2, 4)
        assert doc["interval_index"] == [0, 0, 1, 1]


class TestVerify:
    def test_t42(self, capsys):
        code, doc = run_json(capsys, "verify", "t42", "--d", 1, "--s", 3,
                             "--r", 4)
        assert code == 0
        assert doc["ok"] and doc["colorings_total"] == 256

    def test_sauer(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        _, doc = run_json(capsys, "traces", "--input", sq)
        sys_path = put(tmp_path, "system.json", doc)
        code, doc = run_json(capsys, "verify", "sauer", "--input", sys_path)
        assert code == 0 and doc["ok"]

    def test_rshatter_consistency(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        _, doc = run_json(capsys, "traces", "--input", sq)
        sys_path = put(tmp_path, "system.json", doc)
        code, doc = run_json(capsys, "verify", "rshatter", "--input", sys_path,
                             "--r", 2)
        assert code == 0
        assert doc["consistent"] and doc["dimension"] <= doc["counting_ceiling"]

    def test_f3(self, capsys):
        code, doc = run_json(capsys, "verify", "f3", "--seed", 3)
        assert code == 0
        assert doc["ok"] and doc["n"] == 9 and doc["class_size"] >= 3

    def test_abstract_valid(self, capsys, tmp_path):
        sp = put(tmp_path, "space.json", PATH3_SPACE)
        code, doc = run_json(capsys, "verify", "abstract", "--input", sp,
                             "--r", 3)
        assert code == 0
        assert doc["ok"] and doc["radon_number"] == 3
        assert doc["tverberg_number"] is None
        assert doc["separable"] and doc["halfspace_vc"] == 2

    def test_abstract_invalid(self, capsys, tmp_path):
        sp = put(tmp_path, "bad_space.json",
                 {"n": 2, "family": [[0], [0, 1]]})
        code, doc = run_json(capsys, "verify", "abstract", "--input", sp)
        assert code == 2
        assert doc["violation"] == ["missing-empty"]


class TestFSearch:
    def test_all_good(self, capsys):
        code, doc = run_json(capsys, "fsearch", "--d", 2, "--n", 4,
                             "--samples", 3, "--s", 1, "--t", 1)
        assert code == 0
        assert doc["all_good"] and doc["sample_count"] == 3
        assert all(c is not None for c in doc["certificates"])

    def test_witness(self, capsys):
        code, doc = run_json(capsys, "fsearch", "--d", 2, "--n", 3,
                             "--samples", 2, "--s", 1, "--t", 1)
        assert code == 2
        assert doc["witness_index"] == 0 and doc["witness_transcript"] == 6
        assert doc["witness"] is not None

    def test_file_sampler(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        code, doc = run_json(capsys, "fsearch", "--d", 2, "--n", 4,
                             "--sampler", "file", "--input", sq,
                             "--s", 1, "--t", 1)
        assert code == 0 and doc["all_good"]
        assert doc["certificates"][0]["partition"] == [[0, 1], [2, 3]]


class TestErrorsAndCaps:
    def test_missing_input(self, capsys):
        assert main(["radon", "--s", "1", "--t", "1"]) == 4
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 4
        capsys.readouterr()

    def test_float_coordinates(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 1, "points": [[0.5], [1]]}')
        assert main(["radon", "--input", str(bad), "--s", "1", "--t", "1"]) == 4
        capsys.readouterr()

    def test_not_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["vcdim", "--input", str(bad)]) == 4
        capsys.readouterr()

    def test_cap_exit(self, capsys, tmp_path):
        line = put(tmp_path, "line5.json", LINE5_DOC)
        code = main(["tverberg", "--input", str(line), "--r", "3", "--s", "1",
                     "--cap", "2"])
        capsys.readouterr()
        assert code == 3

    def test_radon_cap_counts_bipartitions(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        base = ["radon", "--input", str(sq), "--s", "1", "--t", "1", "--cap"]
        # 4 points give 14 bipartitions; a budget of 13 refuses, 14 runs
        assert main(base + ["13"]) == 3
        capsys.readouterr()
        assert main(base + ["14"]) == 0
        capsys.readouterr()

    def test_rshatter_of_an_empty_ground_meets_its_caps(self, capsys, tmp_path):
        # an empty ground asks r_vc_dim nothing, so the row-0 subset cap is
        # the first to stop it; the orderings cap reports the r^1 it checks
        path = put(tmp_path, "empty.json", {"n": 0, "edges": [[]]})
        base = ["rshatter", "--input", str(path), "--r", "3", "--cap"]
        assert main(base + ["0"]) == 3
        assert "cap r_shatter_subsets=0 exceeded, needed 1" in capsys.readouterr().err
        assert main(base + ["1"]) == 3
        assert ("cap count_realizable_orderings=1 exceeded, needed 3"
                in capsys.readouterr().err)
        assert main(base + ["3"]) == 0
        capsys.readouterr()

    def test_sampled_points_need_a_dimension(self, capsys):
        # no two distinct points exist in dimension 0, so drawing them never ends
        assert main(["fsearch", "--d", "0", "--n", "2", "--s", "1", "--t", "1",
                     "--samples", "1", "--sampler", "random-rational"]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize("argv", list(JSON_ONLY.values()), ids=list(JSON_ONLY))
    def test_csv_only_for_profiles(self, capsys, tmp_path, argv):
        # no --input: the refusal comes before any input is read or search run
        out = tmp_path / "out"
        code = main(argv + ["--format", "csv", "--out-dir", str(out)])
        assert code == 4
        assert "emits JSON only" in capsys.readouterr().err
        assert not out.exists()


class TestInputContract:
    @pytest.mark.parametrize("argv, doc", [
        (["radon", "--s", "1", "--t", "1"], {"dim": 2, "points": 5}),
        (["vcdim"], {"n": 3, "edges": 5}),
        (["verify", "abstract"], {"n": 3, "family": 5}),
        # JSON booleans are not numbers
        (["radon", "--s", "1", "--t", "1"], {"dim": 1, "points": [[True], [False]]}),
        (["radon", "--s", "1", "--t", "1"], {"dim": True, "points": [["0"], ["1"]]}),
        (["vcdim"], {"n": True, "edges": [[0]]}),
        (["vcdim"], {"n": 2, "edges": [[False]]}),
        (["verify", "abstract"], {"n": 2, "family": [[], [True], [0, 1]]}),
    ])
    def test_malformed_documents_exit_4(self, capsys, tmp_path, argv, doc):
        path = put(tmp_path, "doc.json", doc)
        assert main(argv + ["--input", str(path)]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["gen", "copies", "--s", "3", "--input", "SQUARE"],
        ["gen", "moment-curve", "--n", "6", "--d", "2"],
        ["gen", "convex-position", "--n", "11"],
        ["verify", "t999", "--r", "2", "--s", "2", "--n", "11"],
        # 2^12 - 2 bipartitions, listed before the first search
        ["fsearch", "--d", "1", "--n", "12", "--s", "1", "--t", "1",
         "--samples", "1"],
        # 6 bipartitions, but 4 samples of 3 points (12 coordinates) come first
        ["fsearch", "--d", "1", "--n", "3", "--s", "1", "--t", "1",
         "--samples", "4"],
        ["gen", "periodic", "--n", "11", "--r", "2"],
        ["gen", "t42", "--d", "2", "--s", "5", "--r", "4"],
        ["verify", "t42", "--d", "1", "--s", "3", "--r", "4"],
        ["verify", "f3", "--n", "11"],
        # default n = r(r-1)(s+1)+1 = 13
        ["verify", "t999", "--r", "3", "--s", "1"],
        # 10 points, but 2 * 16 run splits listed before the sweep
        ["verify", "t999", "--r", "2", "--s", "5", "--n", "10"],
        # 10 coordinates, but (i/3)^k takes 120 numerator and denominator bits
        ["gen", "moment-curve", "--n", "2", "--d", "5"],
        # 6 coordinates, but 48 bits
        ["gen", "t42", "--d", "3", "--s", "3", "--r", "2"],
        # 2 points, but 20 coordinates each
        ["fsearch", "--d", "20", "--n", "2", "--s", "1", "--t", "1",
         "--samples", "1", "--sampler", "random-rational"],
        ["fsearch", "--d", "20", "--n", "2", "--s", "1", "--t", "1",
         "--samples", "1", "--sampler", "moment-curve"],
        # 4 coordinates, but two random t = k/2^30 take 366 bits
        ["fsearch", "--d", "2", "--n", "2", "--s", "1", "--t", "1",
         "--samples", "1", "--sampler", "moment-curve"],
    ])
    def test_generator_sizes_respect_cap(self, capsys, tmp_path, argv):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        argv = [str(sq) if arg == "SQUARE" else arg for arg in argv]
        assert main(argv + ["--cap", "10"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["shatter"],
        ["rshatter", "--r", "2"],
        ["verify", "sauer"],
        ["verify", "rshatter", "--r", "2"],
    ])
    def test_negative_profile_rows_exit_4(self, capsys, tmp_path, argv):
        path = put(tmp_path, "system.json", {"n": 3, "edges": [[0], [1, 2], [0, 1, 2]]})
        assert main(argv + ["--input", str(path), "--n", "-3"]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["vcdim"],
        ["shatter", "--n", "2"],
        ["verify", "sauer", "--n", "2"],
    ])
    def test_vc_scan_respects_cap(self, capsys, tmp_path, argv):
        # 64 edges put the top level at 6: C(100, 6) subsets, far past the cap
        rng = random.Random(100)
        edges = [[i for i in range(100) if rng.random() < 0.5] for _ in range(64)]
        path = put(tmp_path, "system.json", {"n": 100, "edges": edges})
        assert main(argv + ["--input", str(path)]) == 3
        assert "vc_subsets" in capsys.readouterr().err

    def test_counting_ceiling_respects_cap(self, capsys, tmp_path):
        # the ceiling's least f is 37,610 at r = 60 and 24 at r = 3
        path = put(tmp_path, "system.json", {"n": 1, "edges": [[], [0]]})
        code, doc = run_json(capsys, "verify", "rshatter", "--input", path,
                             "--r", 60)
        assert code == 0 and doc["counting_ceiling"] == 37609
        assert main(["verify", "rshatter", "--input", str(path), "--r", "3",
                     "--cap", "10"]) == 3
        assert "min_f_counting" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_fsearch_needs_a_sample(self, capsys, samples):
        assert main(["fsearch", "--d", "1", "--n", "3", "--s", "1", "--t", "1",
                     "--samples", samples]) == 4
        capsys.readouterr()

    def test_tverberg_circuit_table_respects_cap(self, capsys, tmp_path):
        # S(20, 19) = 190 partitions fit the cap, but the circuit table's
        # C(20, 2) + C(20, 3) + C(20, 4) = 6,175 planar subsets do not
        doc = {"dim": 2, "points": [[str(i), str(i * i)] for i in range(20)]}
        path = put(tmp_path, "points.json", doc)
        assert main(["tverberg", "--input", str(path), "--r", "19", "--s", "1",
                     "--cap", "1000"]) == 3
        assert "circuit_table" in capsys.readouterr().err

    def test_unwritable_out_dir_exits_4(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        for out in (taken, taken / "below"):
            assert main(["gen", "moment-curve", "--n", "3", "--d", "2",
                         "--out-dir", str(out)]) == 4
            capsys.readouterr()

    def test_abstract_work_total_stops_at_the_cap(self, capsys, tmp_path):
        # the work total over every k is astronomically large at n = 4000;
        # the cap check has to stop adding long before that
        n = 4000
        path = put(tmp_path, "space.json", {"n": n, "family": [[], list(range(n))]})
        assert main(["verify", "abstract", "--input", str(path), "--cap", "10"]) == 3
        capsys.readouterr()

    def test_separate_stops_its_grouping_walk_at_the_cap(self, capsys, tmp_path):
        # evens against odds on a 16-point line: no grouping separates, and
        # there are 4,111^2 of them, so the walk has to stop at the cap
        path = put(tmp_path, "line16.json",
                   {"dim": 1, "points": [[str(i)] for i in range(16)]})
        assert main(["separate", "--input", str(path), "--a", "0,2,4,6,8,10,12,14",
                     "--b", "1,3,5,7,9,11,13,15", "--s", "6", "--t", "6",
                     "--cap", "10"]) == 3
        err = capsys.readouterr().err
        assert "cap separation_groupings=10 exceeded, needed 16900321" in err

    def test_good_partition_checker_walks_under_the_cap(self, capsys, tmp_path):
        pts = [(0, 0), (4, 0), (0, 4), (4, 4), (1, 2), (3, 1), (2, 3)]
        path = put(tmp_path, "seven.json",
                   {"dim": 2, "points": [[str(x), str(y)] for x, y in pts]})
        out = tmp_path / "radon"
        code, _ = run(capsys, "radon", "--input", path, "--s", 1, "--t", 1, "--out-dir", out)
        assert code == 0
        cert = out / "certificate.json"
        code, verdict = run_json(capsys, "verify-cert", "--input", cert)
        assert code == 0 and verdict["ok"]
        assert main(["verify-cert", "--input", str(cert), "--cap", "0"]) == 3
        assert "cap separation_groupings=0 exceeded" in capsys.readouterr().err

    def test_build_separation_stops_its_grouping_walk_at_the_cap(self, capsys, tmp_path):
        # the same walk under the same rule: past --cap combinations tried
        # it stops, and one that ends within --cap runs whatever the closed
        # form (10 for 0,1,2 against 3,4 at s = 3, 2; the first one misses)
        path = put(tmp_path, "line16.json",
                   {"dim": 1, "points": [[str(i)] for i in range(16)]})
        assert main(["build-separation", "--input", str(path),
                     "--parts", "0,2,4,6,8,10,12,14;1,3,5,7,9,11,13,15",
                     "--s-list", "6,6", "--cap", "10"]) == 3
        err = capsys.readouterr().err
        assert "cap separation_groupings=10 exceeded, needed 16900321" in err
        assert main(["build-separation", "--input", str(path), "--parts", "0,1,2;3,4",
                     "--s-list", "3,2", "--cap", "3"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("change, message", [
        ({"kind": "tverberg", "params": {"s_list": [1]}}, "one group bound per part required"),
        ({"kind": "tverberg", "params": {"s_list": [0, 1]}}, "group counts must be at least 1"),
        ({"params": {"s": 0, "t": 1}}, "group counts must be at least 1"),
        ({"kind": "tverberg", "params": {"s_list": [1]}, "partition": [[0, 1, 2, 3, 4]]},
         "need at least two parts"),
        ({"partition": [[-1, 0, 1], [2, 3, 4]]}, "index out of range in group (-1, 0, 1)"),
        ({"partition": [[4], [0, 1, 2, 3], []]}, "empty index group"),
    ], ids=["one-bound", "zero-bound", "radon-zero-s", "one-part", "negative-index",
            "empty-part"])
    def test_good_partition_checker_rejects_bad_parts_and_bounds(self, capsys, tmp_path,
                                                                 change, message):
        # the parts and bounds of a good-partition document are checked
        # once, before the grouping walk, which checks nothing itself
        pts = [(0, 0), (4, 0), (0, 4), (4, 4), (1, 2)]
        path = put(tmp_path, "five.json",
                   {"dim": 2, "points": [[str(x), str(y)] for x, y in pts]})
        out = tmp_path / "radon"
        assert run(capsys, "radon", "--input", path, "--s", 1, "--t", 1,
                   "--out-dir", out)[0] == 0
        doc = json.loads((out / "certificate.json").read_text())
        assert doc["partition"] == [[4], [0, 1, 2, 3]]
        bad = put(tmp_path, "bad.json", {**doc, **change})
        assert main(["verify-cert", "--input", str(bad)]) == 4
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_abstract_partition_documents_are_an_unknown_schema(self, capsys, tmp_path):
        # no command emits this schema, so verify-cert no longer reads it
        doc = {"schema": "abstract-good-partition/1", "space": PATH3_SPACE,
               "subset": [0, 1, 2], "partition": [[1], [0, 2]], "s": 1, "t": 1,
               "a_cover_count": 4, "b_cover_count": 1, "checked_pairs": 4}
        path = put(tmp_path, "abstract.json", doc)
        assert main(["verify-cert", "--input", str(path)]) == 4
        assert "unknown certificate schema" in capsys.readouterr().err

    def test_abstract_member_pairs_capped_before_validation(self, capsys, tmp_path):
        # the free family on 14 points is valid, but its 2^14 members make
        # 134 million pairs: the member_pairs cap fires before any check
        n = 14
        family = [[i for i in range(n) if m >> i & 1] for m in range(1 << n)]
        path = put(tmp_path, "space.json", {"n": n, "family": family})
        assert main(["verify", "abstract", "--input", str(path)]) == 3
        assert "member_pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", list(INPUT_COMMANDS.values()),
                             ids=list(INPUT_COMMANDS))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(doc=JSON_VALUES)
    def test_any_json_input_keeps_the_exit_contract(self, argv, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(doc))
            assert main(argv + ["--input", str(path), "--cap", "50"]) in {0, 2, 3, 4}


    @pytest.mark.parametrize("argv, code", [
        (["verify"], 4),
        (["gen", "nope"], 4),
        (["radon", "extra", "--input", "SQUARE", "--s", "1", "--t", "1"], 4),
        (["gen", "--n", "4", "--d", "2", "moment-curve"], 0),
    ])
    def test_targets_keep_the_exit_contract(self, capsys, tmp_path, argv, code):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        argv = [str(sq) if arg == "SQUARE" else arg for arg in argv]
        assert main(argv) == code
        capsys.readouterr()

    def test_help_exits_0_and_lists_every_target(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        for target in ["moment-curve", "convex-position", "periodic", "tight",
                       "copies", "t42", "t999", "sauer", "rshatter", "f3",
                       "abstract"]:
            assert target in out
        for word in [*_FLAGS, *_HANDLERS]:
            assert word in out

    def test_sauer_profile_total_respects_cap(self, capsys, tmp_path):
        # 20 points and 64 edges: the rows above the VC dimension hold about
        # 2^20 subsets under the default cap of 10^6
        rng = random.Random(100)
        edges = [[i for i in range(20) if rng.random() < 0.5] for _ in range(64)]
        path = put(tmp_path, "system.json", {"n": 20, "edges": edges})
        for argv in (["shatter"], ["verify", "sauer"]):
            assert main(argv + ["--input", str(path)]) == 3
            assert "primal_shatter_total" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, cap_name", [
        (["rvcdim", "--r", "2"], "r_shatter_classes"),
        (["rshatter", "--r", "3"], "r_shatter_classes"),
        (["verify", "rshatter", "--r", "3"], "r_shatter_classes"),
        (["tverberg", "--r", "3", "--s", "1"], "tverberg_partitions"),
    ])
    def test_partition_counts_of_large_inputs_exit_3(self, capsys, tmp_path,
                                                      argv, cap_name):
        # S(n, k) was a recursion n frames deep: these exited 1 on RecursionError
        if argv[0] == "tverberg":
            doc = {"dim": 1, "points": [[str(i)] for i in range(700)]}
        else:
            doc = {"n": 1000, "edges": [[0]]}
        path = put(tmp_path, "input.json", doc)
        assert main(argv + ["--input", str(path)]) == 3
        assert cap_name in capsys.readouterr().err

    def test_cap_need_past_the_int_print_limit_exits_3(self, capsys, tmp_path):
        # 2^20000 - 2 bipartitions have 6,021 digits, past Python's 4,300
        doc = {"dim": 1, "points": [[str(i)] for i in range(20000)]}
        path = put(tmp_path, "points.json", doc)
        assert main(["radon", "--input", str(path), "--s", "2", "--t", "1"]) == 3
        err = capsys.readouterr().err
        assert "radon_bipartitions" in err and "about 2^19999" in err
        assert CapExceeded("radon_bipartitions", 1, (1 << 20000) - 2).needed == (1 << 20000) - 2

    @pytest.mark.parametrize("text", ["[" * 100000, "[" * 100000 + "]" * 100000],
                             ids=["unclosed", "closed"])
    def test_deeply_nested_json_exits_4(self, capsys, tmp_path, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        for argv in INPUT_COMMANDS.values():
            assert main(argv + ["--input", str(path)]) == 4
            assert "nested too deeply" in capsys.readouterr().err

    def test_separate_on_602_collinear_points_solves_only_meeting_lps(
            self, capsys, tmp_path, monkeypatch):
        # the separator is read off the meeting LP of the two groups, whose
        # 2(d+2) normalized rows do not grow with the point count; a row LP
        # with one row per point takes tens of seconds on this input
        import convexparts.geometry
        import convexparts.linprog as linprog
        import convexparts.partitions  # noqa: F401  (so its names are patched)

        rows = []
        real = linprog.lp_feasible

        def counted(constraints, *args, **kwargs):
            constraints = list(constraints)
            rows.append(len(fraction_normalize_rows(constraints)))
            return real(constraints, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("convexparts") and getattr(module, "lp_feasible", None) is real:
                monkeypatch.setattr(module, "lp_feasible", counted)
        d, n = 1, 602
        path = put(tmp_path, "line.json", {"dim": d, "points": [[str(i)] for i in range(n)]})
        out = tmp_path / "sep"
        start = time.perf_counter()
        code = main(["separate", "--input", str(path), "--a", ",".join(map(str, range(n - 2))),
                     "--b", f"{n - 2},{n - 1}", "--s", "2", "--t", "1", "--out-dir", str(out)])
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code == 0
        assert rows and max(rows) <= 2 * (d + 2)
        code, verdict = run_json(capsys, "verify-cert", "--input", out / "certificate.json")
        assert code == 0 and verdict["ok"]
        assert elapsed < 20

    def test_separate_with_a_1100_point_part_exits_0(self, capsys, tmp_path):
        # 1,100 points are past the recursion limit, so the part's grouping
        # walk must be a loop
        n = 1101
        path = put(tmp_path, "line.json", {"dim": 1, "points": [[str(i)] for i in range(n)]})
        code, doc = run_json(capsys, "separate", "--input", path,
                             "--a", ",".join(map(str, range(n - 1))), "--b", str(n - 1),
                             "--s", "2", "--t", "1")
        assert code == 0 and doc["separable"]


# Argv shapes of every command, both target positions of `gen` and `verify`,
# and the argv of every benchmark op kind
PARSER_ARGVS = [
    ["vcdim", "--input", "F"],
    ["rvcdim", "--input", "F", "--r", "2"],
    ["shatter", "--input", "F"],
    ["shatter", "--input", "F", "--n", "3", "--format", "csv"],
    ["rshatter", "--input", "F", "--r", "3"],
    ["bound-e31", "--d", "1", "--r", "2"],
    ["traces", "--input", "F", "--t", "2"],
    ["traces", "--input", "F", "--s", "2", "--out-dir", "O"],
    ["radon", "--input", "F", "--s", "2", "--t", "1", "--out-dir", "O"],
    ["radon", "--input", "F", "--s", "2", "--t", "2", "--jobs", "2"],
    ["tverberg", "--input", "F", "--r", "4", "--s", "2", "--jobs", "2"],
    ["tverberg", "--input", "F", "--r", "3", "--s-list", "1,2,1"],
    ["separate", "--input", "F", "--a", "0,1", "--b", "2,3", "--s", "2",
     "--t", "1", "--out-dir", "O"],
    ["build-separation", "--input", "F", "--parts", "0,1;2;3,4", "--s", "2",
     "--out-dir", "O"],
    ["build-separation", "--input", "F", "--parts", "0;1", "--s-list", "2,2"],
    ["fsearch", "--d", "2", "--n", "4", "--samples", "3", "--s", "1", "--t", "1",
     "--seed", "5", "--sampler", "moment-curve", "--cap", "100"],
    ["verify-cert", "--input", "F"],
    ["gen", "moment-curve", "--n", "4", "--d", "2"],
    ["gen", "--n", "4", "--d", "2", "moment-curve"],
    ["gen", "copies", "--input", "F", "--s", "2"],
    ["gen", "--input", "F", "--s", "2", "copies"],
    ["verify", "t42", "--d", "1", "--s", "5", "--r", "4", "--jobs", "2"],
    ["verify", "--d", "1", "--s", "5", "--r", "2", "t42"],
    ["verify", "sauer", "--input", "F", "--format", "csv"],
    ["verify", "--input", "F", "sauer"],
    ["verify", "rshatter", "--input", "F", "--r", "2"],
    ["verify", "abstract", "--input", "F", "--r", "3"],
    ["verify", "f3", "--n", "-3", "--seed", "2"],
]

# Argv the nested parser refused
REJECTED_ARGVS = [
    [],
    ["frobnicate"],
    ["verify"],
    ["gen"],
    ["gen", "nope"],
    ["gen", "nope", "--d", "1", "--s", "3", "--r", "4"],
    ["verify", "t42", "t999"],
    ["radon", "extra"],
    ["radon", "--s", "x"],
    ["radon", "--bogus", "1"],
    ["shatter", "--format", "xml"],
    ["vcdim", "--jobs"],
    ["bound-e31", "--d", "1", "--r", "2", "--d"],
]


def _outcome(parse, argv):
    """What a parser makes of argv: its fields, "refused" or "help"."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(parse(argv))
    except InputError:
        return "refused"
    except SystemExit as stop:
        assert stop.code == 0
        return "help"


def _flat_ref(argv):
    return flat_parser_ref().parse_intermixed_args(argv)


# Words for random argv: the flags, each prefix of each (unique or not), the
# help flag, unknown flags, and values that are negative, not integers, or
# look like flags. Two shapes are left out, because there the reader and
# argparse differ:
# - "--": here it ends the flags, each later word is a command or target and
#   each "--" is dropped; argparse keeps a later "--" as a word in some
#   positions, and took `--input=--` as the empty list;
# - "-h" glued to more h's (`-hh`, `-h=h`): argparse prints help, here it is
#   refused as -h given a value.
FLAG_WORDS = sorted({flag[:k] for flag in _FLAGS for k in range(3, len(flag) + 1)})
INT_WORDS = ["0", "3", "-3", "-0", "+2", " 4", "1_0", "json", "csv"]
VALUE_WORDS = ["1.5", "-.5", "-2.5", "1e3", "-1e3", "x", "", "-", "-x", "-1,2",
               "0,1", "0;1,2", "a b", "-a b", "--a b", "xml", "random-rational", "t42"]
TARGET_WORDS = sorted({t for ts in _TARGETS.values() for t in ts})
ODD_WORDS = ["-h", "--he", "--help", "-hx", "--help=x", "--bogus", "-x", "---d",
             "--=1", "frobnicate", "", "-", "-7", "-x y", "--x y"]


@st.composite
def random_argv(draw):
    """Flag chunks with a command, and maybe a target after it, put in
    between them."""
    flag = st.sampled_from(FLAG_WORDS)
    number = st.sampled_from(INT_WORDS)
    value = number | st.sampled_from(VALUE_WORDS)
    chunk = (st.tuples(flag, number) | st.tuples(flag, number) | st.tuples(flag, value)
             | st.builds(lambda f, v: (f"{f}={v}",), flag, value)
             | st.tuples(flag) | st.tuples(st.sampled_from(ODD_WORDS)))
    chunks = draw(st.lists(chunk, max_size=4))
    at = draw(st.integers(0, len(chunks)))
    chunks.insert(at, (draw(st.sampled_from(list(_HANDLERS))),))
    for word in draw(st.lists(st.sampled_from(TARGET_WORDS) | st.sampled_from(TARGET_WORDS)
                              | st.sampled_from(ODD_WORDS), max_size=1)):
        chunks.insert(draw(st.integers(at + 1, len(chunks))), (word,))
    return [word for part in chunks for word in part]


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_ARGVS)
    def test_flat_parser_matches_the_nested_reference(self, argv):
        flat = vars(_parse(argv))
        assert flat == _outcome(_flat_ref, argv)
        if flat["target"] is None:
            del flat["target"]
        assert flat == vars(nested_parser_ref().parse_args(argv))

    @pytest.mark.parametrize("argv", REJECTED_ARGVS)
    def test_argv_the_reference_refuses_exits_4(self, capsys, argv):
        with pytest.raises(InputError):
            nested_parser_ref().parse_args(argv)
        assert _outcome(_parse, argv) == _outcome(_flat_ref, argv)
        assert main(argv) == 4
        capsys.readouterr()

    def test_flags_may_precede_the_command(self):
        # the one argv shape the nested parser refused and this one accepts
        argv = ["--d", "1", "--s", "3", "--r", "4", "verify", "t42"]
        with pytest.raises(InputError):
            nested_parser_ref().parse_args(argv)
        assert _parse(argv) == _parse(argv[6:] + argv[:6])

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(argv=random_argv())
    def test_random_argv_reads_as_the_flat_reference_reads_it(self, argv):
        assert _outcome(_parse, argv) == _outcome(_flat_ref, argv)

    @pytest.mark.parametrize("argv, expected", [
        (["--", "bound-e31", "--d", "1"], "refused"),
        (["bound-e31", "--d", "1", "--"], {"command": "bound-e31", "d": 1}),
        (["--d", "1", "--", "verify", "--", "t42"],
         {"command": "verify", "target": "t42", "d": 1}),
        (["bound-e31", "--", "--d"], {"command": "bound-e31", "target": "--d"}),
        (["bound-e31", "--d", "--", "1"], "refused"),
    ])
    def test_double_dash_ends_the_flags(self, argv, expected):
        outcome = _outcome(_parse, argv)
        if isinstance(expected, dict):
            expected = {**vars(_parse([expected["command"]])), **expected}
        assert outcome == expected

    @pytest.mark.parametrize("argv", [["vcdim", "--input=--"],
                                      ["bound-e31", "--d=--", "--r", "2"]])
    def test_double_dash_as_a_value_exits_4(self, capsys, argv):
        # argparse read these values as the empty list, and the commands
        # then exited 1 on a TypeError
        assert main(argv) == 4
        capsys.readouterr()


class TestReproducibility:
    def read_all(self, folder):
        return {p.name: p.read_bytes() for p in sorted(folder.iterdir())}

    def test_radon_jobs_invariant(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        outs = []
        for jobs in (1, 8):
            out = tmp_path / f"jobs{jobs}"
            run(capsys, "radon", "--input", sq, "--s", 1, "--t", 1,
                "--jobs", jobs, "--out-dir", out)
            outs.append(self.read_all(out))
        assert outs[0] == outs[1]

    def test_searches_start_no_pool(self, capsys, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a command started a process pool")

        # eight CPUs, so the worker clamp cannot hide a pool either
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        line = put(tmp_path, "line5.json", LINE5_DOC)
        code, doc = run_json(capsys, "radon", "--input", sq, "--s", 1, "--t", 1,
                             "--jobs", 8)
        assert code == 0 and doc["certificate"]["partition"] == [[0, 1], [2, 3]]
        code, doc = run_json(capsys, "radon", "--input", sq, "--s", 2, "--t", 2,
                             "--jobs", 8)
        assert code == 2 and doc["bipartitions"] == 14
        code, doc = run_json(capsys, "tverberg", "--input", line, "--r", 3,
                             "--s", 1, "--jobs", 8)
        assert code == 0
        assert doc["certificate"]["partition"] == [[0, 3], [1, 4], [2]]
        code, doc = run_json(capsys, "fsearch", "--d", 2, "--n", 3, "--samples", 2,
                             "--s", 1, "--t", 1, "--jobs", 8)
        assert code == 2
        assert doc["witness_index"] == 0 and doc["witness_transcript"] == 6
        code, doc = run_json(capsys, "verify", "t42", "--d", 1, "--s", 3,
                             "--r", 4, "--jobs", 8)
        assert code == 0 and doc["verified"] == 256

    def test_t42_jobs_invariant(self, capsys, tmp_path):
        outs = []
        for jobs in (1, 8):
            out = tmp_path / f"jobs{jobs}"
            run(capsys, "verify", "t42", "--d", 1, "--s", 3, "--r", 4,
                "--jobs", jobs, "--out-dir", out)
            outs.append(self.read_all(out))
        assert outs[0] == outs[1]

    def test_rerun_byte_identical(self, capsys, tmp_path):
        line = put(tmp_path, "line4.json", LINE4_DOC)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            run(capsys, "build-separation", "--input", line,
                "--parts", "0,2;1,3", "--s-list", "2,2", "--out-dir", out)
            outs.append(self.read_all(out))
        assert outs[0] == outs[1]


class TestConsoleScript:
    def test_entry_point(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "convexparts.cli", "bound-e31",
             "--d", "1", "--r", "2"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0
        assert proc.stdout == "6\n"

    def test_package_runs_as_a_module(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "convexparts", "bound-e31", "--d", "1", "--r", "2"],
            capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (0, "6\n")
        proc = subprocess.run(
            [sys.executable, "-m", "convexparts", "verify", "abstract"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 4 and "needs --input" in proc.stderr


# Public names that no module of the package references, and why each stays
UNREACHED_ALLOWLIST = {
    "parallel.pmap": "imported by the benchmark tracer",
}


def test_every_public_function_is_reached_from_the_package():
    package = Path(__file__).resolve().parents[1] / "src" / "convexparts"
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    # each top-level statement of each module, or of each class body, with
    # the names it reads
    units = [stmt for tree in trees.values() for top in tree.body
             for stmt in (top.body if isinstance(top, ast.ClassDef) else [top])]
    refs = [(unit, {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(unit)
                    if isinstance(n, (ast.Name, ast.Attribute))})
            for unit in units]
    # public functions, classes and methods, each with the units it spans
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{module}.{node.name}"] = node.name, [node]
            elif isinstance(node, ast.ClassDef):
                defs[f"{module}.{node.name}"] = node.name, node.body
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        defs[f"{module}.{node.name}.{method.name}"] = method.name, [method]
    unreached = {
        qualified for qualified, (name, own) in defs.items()
        if not name.startswith("_")
        and not any(name in used for unit, used in refs
                    if all(unit is not o for o in own))}
    assert unreached == set(UNREACHED_ALLOWLIST)


def test_only_main_renders_documents():
    # handlers return plain data; main alone turns it into text and bytes
    cli = Path(__file__).resolve().parents[1] / "src" / "convexparts" / "cli.py"

    def names(top):
        return {n.id if isinstance(n, ast.Name) else
                n.attr if isinstance(n, ast.Attribute) else n.name
                for n in ast.walk(top)
                if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}

    users = {getattr(top, "name", "module level")
             for top in ast.parse(cli.read_text()).body
             if names(top) & {"canonical_text", "canonical_bytes"}}
    assert users == {"main"}


def _modules_after(*code, prefix="convexparts"):
    """The modules under prefix a fresh interpreter holds after running code."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    script = "\n".join(code + (
        "import json, sys",
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestColdStart:
    """Each command imports only the modules it runs."""

    def test_bound_e31_loads_the_set_system_modules_only(self):
        loaded = _modules_after("from convexparts.cli import main",
                                "main(['bound-e31', '--d', '1', '--r', '2'])")
        assert loaded == {"convexparts", "convexparts.cli", "convexparts.errors",
                          "convexparts.combinat", "convexparts.setsystems",
                          "convexparts.serialize"}

    def test_rshatter_loads_no_rationals(self, tmp_path):
        path = put(tmp_path, "system.json", {"n": 5, "edges": [[0], [1, 2], [2, 3, 4], [0, 4]]})
        loaded = _modules_after(
            "from convexparts.cli import main",
            f"main(['rshatter', '--r', '3', '--input', {str(path)!r}])", prefix="")
        assert "convexparts.setsystems" in loaded
        assert not loaded & {"convexparts.rational", "fractions", "decimal"}

    def test_bound_e31_loads_no_argparse(self):
        loaded = _modules_after("from convexparts.cli import main",
                                "main(['bound-e31', '--d', '1', '--r', '2'])",
                                prefix="")
        assert not loaded & {"argparse", "gettext"}

    def test_radon_loads_no_set_system_modules(self, tmp_path):
        path = put(tmp_path, "square.json", SQUARE_DOC)
        loaded = _modules_after(
            "from convexparts.cli import main",
            f"main(['radon', '--input', {str(path)!r}, '--s', '1', '--t', '1'])")
        assert not loaded & {"convexparts.setsystems", "convexparts.abstract",
                             "convexparts.constructions", "convexparts.ranges",
                             "convexparts.rng"}
        assert {"convexparts.partitions", "convexparts.geometry",
                "convexparts.linprog"} <= loaded

    def test_t42_loads_no_rng_or_set_system_modules(self):
        # hashlib pulls in OpenSSL; the sweep needs neither it nor logging
        loaded = _modules_after(
            "from convexparts.cli import main",
            "main(['verify', 't42', '--d', '1', '--s', '3', '--r', '4'])", prefix="")
        assert not loaded & {"convexparts.rng", "convexparts.ranges",
                             "convexparts.setsystems", "hashlib", "logging"}
        assert "convexparts.constructions" in loaded

    @pytest.mark.parametrize("module", sorted(
        p.stem for p in (Path(__file__).resolve().parents[1] / "src" / "convexparts").glob("*.py")
        if p.stem != "__main__"))
    def test_every_module_imports_alone(self, module):
        assert f"convexparts.{module}" in _modules_after(f"import convexparts.{module}")

