"""End-to-end command tests: exit codes, document shapes, artifact round
trips, and byte reproducibility across --jobs."""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexparts.cli import main
from convexparts.serialize import canonical_bytes

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

    def test_sampled_points_need_a_dimension(self, capsys):
        # no two distinct points exist in dimension 0, so drawing them never ends
        assert main(["fsearch", "--d", "0", "--n", "2", "--s", "1", "--t", "1",
                     "--samples", "1", "--sampler", "random-rational"]) == 4
        capsys.readouterr()

    def test_csv_only_for_profiles(self, capsys, tmp_path):
        sq = put(tmp_path, "square.json", SQUARE_DOC)
        code = main(["radon", "--input", str(sq), "--s", "1", "--t", "1",
                     "--format", "csv"])
        capsys.readouterr()
        assert code == 4


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

    def test_abstract_work_total_stops_at_the_cap(self, capsys, tmp_path):
        # the work total over every k is astronomically large at n = 4000;
        # the cap check has to stop adding long before that
        n = 4000
        path = put(tmp_path, "space.json", {"n": n, "family": [[], list(range(n))]})
        assert main(["verify", "abstract", "--input", str(path), "--cap", "10"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("argv", list(INPUT_COMMANDS.values()),
                             ids=list(INPUT_COMMANDS))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(doc=JSON_VALUES)
    def test_any_json_input_keeps_the_exit_contract(self, argv, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(doc))
            assert main(argv + ["--input", str(path), "--cap", "50"]) in {0, 2, 3, 4}


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
        proc = subprocess.run(
            [sys.executable, "-m", "convexparts.cli", "bound-e31",
             "--d", "1", "--r", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "6\n"
