import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import thermaltda
from thermaltda.cli import main
from thermaltda.complexes import CORPUS, SimplicialComplex, build_clique_complex, load_point_cloud, random_complex
from thermaltda.discriminant import annealing_path, pad_hamiltonian, pauli_jumps
from thermaltda.homology import combinatorial_laplacian, laplacian_spectrum, spectral_gap


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


NO_SCIPY = """
import json, sys
from click.testing import CliRunner
from thermaltda.cli import main
for args in json.loads(sys.argv[1]):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, (args, result.output)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.exit(f"scipy loaded: {loaded[:3]}" if loaded else 0)
"""


def test_commands_load_no_scipy(tmp_path):
    """scipy is imported by the solve of a Gram of IN_PLACE_MIN_DIM levels or
    more and by the exact route's count for one of INERTIA_MIN_DIM levels or
    more, which none of these queries reaches, and by boundary_matrix, which
    only that count calls."""
    commands = [
        ["betti", "--corpus", "octahedron-boundary", "--k", "1"],
        ["betti", "--corpus", "octahedron-boundary", "--k", "1", "--method", "thermal"],
        ["betti", "--corpus", "octahedron-boundary", "--k", "1", "--method", "swap"],
        ["sweep", "--corpus", "octahedron-boundary", "--k", "1", "--out", str(tmp_path / "sweep.csv")],
        ["scaling", "--n", "6", "--instances", "5", "--out", str(tmp_path / "scaling.csv")],
        ["discriminant-check", "--corpus", "hollow-triangle", "--k", "1", "--grid-m", "4", "--steps", "1",
         "--out", str(tmp_path / "report.json")],
    ]
    src = os.path.dirname(os.path.dirname(thermaltda.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, json.dumps(commands)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


class TestBuildComplex:
    def test_collinear_demo(self, runner, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("0,0\n1,0\n2,0\n")
        out = tmp_path / "cx.json"
        result = invoke(
            runner, "build-complex", "--points", points, "--epsilon", 1.1,
            "--max-dim", 2, "--out", out,
        )
        assert result.exit_code == 0, result.output
        data = json.loads(out.read_text())
        assert data["simplices"]["1"] == [[0, 1], [1, 2]]
        assert "2" not in data["simplices"]
        summary = json.loads(result.output)
        assert summary["num_simplices"]["1"] == 2

    def test_epsilon_zero(self, runner, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("0,0\n1,0\n")
        out = tmp_path / "cx.json"
        result = invoke(runner, "build-complex", "--points", points, "--epsilon", 0, "--out", out)
        assert result.exit_code == 0
        assert list(json.loads(out.read_text())["simplices"]) == ["0"]

    def test_missing_file_exits_2(self, runner, tmp_path):
        result = invoke(
            runner, "build-complex", "--points", tmp_path / "nope.csv",
            "--epsilon", 1, "--out", tmp_path / "x.json",
        )
        assert result.exit_code == 2

    def test_ragged_file_exits_2(self, runner, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("0,0\n1\n")
        result = invoke(
            runner, "build-complex", "--points", points, "--epsilon", 1,
            "--out", tmp_path / "x.json",
        )
        assert result.exit_code == 2
        assert "row 2" in result.output

    def test_distance_cap_rejects_before_the_distances(self, runner, tmp_path, monkeypatch):
        """n^2 * d = 18 for three points in the plane: accepted at a cap of
        18, and at 17 refused with exit 2 before any distance is computed."""
        points = tmp_path / "points.csv"
        points.write_text("0,0\n1,0\n2,0\n")
        out = tmp_path / "cx.json"
        args = ("build-complex", "--points", points, "--epsilon", 1.1, "--out", out)
        monkeypatch.setattr("thermaltda.complexes.MAX_DISTANCE_ENTRIES", 18)
        assert invoke(runner, *args).exit_code == 0
        out.unlink()

        def unbuilt(*args):
            raise AssertionError("distances computed past the cap")

        monkeypatch.setattr("thermaltda.complexes.MAX_DISTANCE_ENTRIES", 17)
        monkeypatch.setattr("thermaltda.complexes._pairwise_distances", unbuilt)
        result = invoke(runner, *args)
        assert result.exit_code == 2, result.output
        assert "Error:" in result.output and "distance cap" in result.output
        assert not out.exists()


class TestRandomComplex:
    def test_deterministic_files(self, runner, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            result = invoke(
                runner, "random-complex", "--n", 8, "--edge-prob", 0.5,
                "--max-dim", 3, "--seed", 9, "--out", out,
            )
            assert result.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_written_files_load_as_their_complex(self, runner, tmp_path):
        """Every complex file the tool writes passes the strict reader."""
        points, out = tmp_path / "points.csv", tmp_path / "cx.json"
        points.write_text("0,0\n1,0\n0,1\n1,1\n2,2\n")
        invoke(runner, "build-complex", "--points", points, "--epsilon", 1.5, "--max-dim", 3, "--out", out)
        assert SimplicialComplex.load(out) == build_clique_complex(load_point_cloud(points), "euclidean", 1.5, 3)
        invoke(runner, "random-complex", "--n", 12, "--edge-prob", 0.5, "--seed", 3, "--out", out)
        assert SimplicialComplex.load(out) == random_complex(12, 0.5, 3, 3)
        result = invoke(runner, "betti", "--input", out, "--k", 1, "--method", "exact")
        assert result.exit_code == 0 and json.loads(result.output)["agree"], result.output

    def test_bad_probability_exits_2(self, runner, tmp_path):
        result = invoke(
            runner, "random-complex", "--n", 5, "--edge-prob", 2.0,
            "--out", tmp_path / "x.json",
        )
        assert result.exit_code == 2


class TestBetti:
    def test_exact_hollow_triangle(self, runner):
        result = invoke(runner, "betti", "--corpus", "hollow-triangle", "--k", 1)
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["betti_kernel"] == 1 and data["betti_rank"] == 1 and data["agree"]
        assert data["meta"]["command"] == "betti"

    @pytest.mark.parametrize(
        "args",
        [
            ("betti", "--corpus", "octahedron-boundary", "--k", 1, "--method", "exact"),
            ("betti", "--corpus", "octahedron-boundary", "--k", 1, "--method", "thermal"),
            ("betti", "--corpus", "octahedron-boundary", "--k", 1, "--method", "swap"),
            ("sweep", "--corpus", "octahedron-boundary", "--k", 1, "--out", "OUT"),
            ("scaling", "--n", 6, "--instances", 5, "--out", "OUT"),
        ],
        ids=["betti exact", "betti thermal", "betti swap", "sweep", "scaling"],
    )
    def test_spectra_assemble_no_boundary_or_laplacian(self, runner, tmp_path, monkeypatch, args):
        """Every spectrum on these routes comes from the boundaries' Gram
        matrices, read off the face tables: the Laplacian matrix is never
        built, nor the sparse boundary below INERTIA_MIN_DIM levels."""

        def unbuilt(*args):
            raise AssertionError("boundary matrix or Laplacian assembled")

        for name in ("homology.boundary_matrix", "homology.combinatorial_laplacian", "cli.combinatorial_laplacian"):
            monkeypatch.setattr(f"thermaltda.{name}", unbuilt)
        result = invoke(runner, *(tmp_path / "out" if a == "OUT" else a for a in args))
        assert result.exit_code == 0, result.output

    def test_thermal_hollow_triangle(self, runner):
        result = invoke(runner, "betti", "--corpus", "hollow-triangle", "--k", 1, "--method", "thermal")
        data = json.loads(result.output)
        assert data["betti_floor"] == 1 and data["converged"]

    @pytest.mark.parametrize(
        "n,p,k,betti",
        [(32, 0.5, 2, 19), (33, 0.55, 3, 5)],
        ids=["594 levels", "815 levels"],
    )
    def test_default_beta_floors_to_the_kernel(self, runner, tmp_path, n, p, k, betti):
        # 4x the cooling threshold (26.10 and 23.56 here) floors one above b while
        # converged; ln(5m)/gap (216.2 and 122.0) floors to b
        cx = random_complex(n, p, 4, 4)
        path = tmp_path / "cx.json"
        cx.save(path)
        spec = laplacian_spectrum(cx, k)
        data = json.loads(invoke(runner, "betti", "--input", path, "--k", k, "--method", "thermal").output)
        assert data["beta"] == math.log(5 * spec.dim) / spectral_gap(spec)
        assert data["betti_floor"] == betti and data["converged"]
        if k == 2:
            args = ("betti", "--input", path, "--k", k, "--method", "thermal", "--beta", 26.1)
            data = json.loads(invoke(runner, *args).output)
            assert data["beta"] == 26.1 and data["betti_floor"] == betti + 1

    def test_thermal_filled_triangle_trivial(self, runner):
        result = invoke(runner, "betti", "--corpus", "filled-triangle", "--k", 1, "--method", "thermal")
        data = json.loads(result.output)
        assert data["betti_floor"] == 0 and data["trivial_kernel"]

    def test_swap_method(self, runner, tmp_path):
        out = tmp_path / "swap.json"
        result = invoke(
            runner, "betti", "--corpus", "tetrahedron-boundary", "--k", 2,
            "--method", "swap", "--shots", 200000, "--seed", 5, "--out", out,
        )
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["betti_floor"] == 1 and data["stable"]
        assert data["count0"] + data["count1"] == 200000

    def test_swap_deterministic_bytes(self, runner, tmp_path):
        blobs = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            result = invoke(
                runner, "betti", "--corpus", "hollow-triangle", "--k", 1,
                "--method", "swap", "--shots", 100000, "--seed", 3, "--out", out,
            )
            assert result.exit_code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_out_of_range_k_exits_2(self, runner):
        result = invoke(runner, "betti", "--corpus", "hollow-triangle", "--k", 5)
        assert result.exit_code == 2

    def test_both_input_and_corpus_rejected(self, runner, tmp_path):
        result = invoke(
            runner, "betti", "--corpus", "hollow-triangle",
            "--input", tmp_path / "x.json", "--k", 1,
        )
        assert result.exit_code == 2

    def test_invalid_json_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = invoke(runner, "betti", "--input", bad, "--k", 1)
        assert result.exit_code == 2


class TestSweep:
    def test_hollow_triangle_descends(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = invoke(
            runner, "sweep", "--corpus", "hollow-triangle", "--k", 1,
            "--beta-min", 0.01, "--beta-max", 20, "--beta-steps", 30, "--out", out,
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("beta,purity,inverse_purity")
        assert len(lines) == 31
        inv_first = float(lines[1].split(",")[2])
        inv_last = float(lines[-1].split(",")[2])
        assert inv_first > 2.9 and abs(inv_last - 1.0) < 1e-6
        summary = json.loads(result.output.splitlines()[-1])
        assert summary["beta_threshold"] == pytest.approx(2.5336, rel=1e-3)

    def test_single_point_grid(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = invoke(
            runner, "sweep", "--corpus", "hollow-triangle", "--k", 1,
            "--beta-min", 0.5, "--beta-max", 1.0, "--beta-steps", 1, "--out", out,
        )
        assert result.exit_code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_zero_laplacian_warns_without_threshold(self, runner, tmp_path):
        cx_path = tmp_path / "isolated.json"
        invoke(
            runner, "random-complex", "--n", 4, "--edge-prob", 0.0,
            "--seed", 0, "--out", cx_path,
        )
        out = tmp_path / "sweep.csv"
        result = invoke(
            runner, "sweep", "--input", cx_path, "--k", 0,
            "--beta-steps", 5, "--out", out,
        )
        assert result.exit_code == 0
        assert "no cooling threshold" in result.output
        assert len(out.read_text().splitlines()) == 6  # rows still emitted
        summary = json.loads(result.output.splitlines()[-1])
        assert summary["beta_threshold"] is None

    @pytest.mark.parametrize("bound", [("--beta-max", 20), ("--beta-min", 0.3)], ids=lambda b: b[0])
    def test_grid_endpoints_equal_options(self, runner, tmp_path, bound):
        """The first and last beta rows are the options themselves, not their
        round trip through log10."""
        out = tmp_path / "sweep.csv"
        result = invoke(runner, "sweep", "--corpus", "hollow-triangle", "--k", 1, *bound, "--out", out)
        assert result.exit_code == 0, result.output
        options = json.loads(result.output.splitlines()[-1])["meta"]["options"]
        rows = out.read_text().splitlines()[1:]
        assert float(rows[0].split(",")[0]) == options["beta_min"]
        assert float(rows[-1].split(",")[0]) == options["beta_max"]

    def test_bad_grid_exits_2(self, runner, tmp_path):
        result = invoke(
            runner, "sweep", "--corpus", "hollow-triangle", "--k", 1,
            "--beta-min", 5.0, "--beta-max", 1.0, "--out", tmp_path / "x.csv",
        )
        assert result.exit_code == 2


class TestScaling:
    def test_small_run_writes_outputs(self, runner, tmp_path):
        out = tmp_path / "scaling.csv"
        fit = tmp_path / "fit.json"
        result = invoke(
            runner, "scaling", "--n", 8, "--k", 1, "--k", 2, "--instances", 15,
            "--seed", 4, "--out", out, "--fit-out", fit,
        )
        assert result.exit_code == 0, result.output
        assert out.exists() and fit.exists()
        fit_data = json.loads(fit.read_text())
        assert "pooled" in fit_data and fit_data["pooled"]["n"] >= 10
        summary = json.loads(result.output.splitlines()[-1])
        assert summary["records"] == fit_data["pooled"]["n"]

    def test_single_instance_withholds_fit(self, runner, tmp_path):
        out = tmp_path / "scaling.csv"
        result = invoke(
            runner, "scaling", "--n", 8, "--k", 1, "--instances", 1,
            "--seed", 0, "--out", out,
        )
        assert result.exit_code == 0
        assert "fit withheld" in result.output
        assert out.exists()

    def test_single_gap_withholds_fit(self, runner, tmp_path):
        """Every record of a one-edge complex has gap 2: the slope is
        undefined, so the fit is withheld rather than printed."""
        out = tmp_path / "scaling.csv"
        result = invoke(runner, "scaling", "--n", 2, "--k", 0, "--instances", 15, "--out", out)
        assert result.exit_code == 0, result.output
        assert "fit withheld" in result.stderr and "share one gap" in result.stderr
        summary = json.loads(result.stdout)
        assert summary["records"] == 10 and "fit" not in summary
        assert {row.split(",")[5] for row in out.read_text().splitlines()[1:]} == {"2.0"}

    def test_repeated_seed_identical_files(self, runner, tmp_path):
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            result = invoke(
                runner, "scaling", "--n", 8, "--k", 1, "--k", 2,
                "--instances", 10, "--seed", 11, "--out", out,
            )
            assert result.exit_code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_tiny_n_exits_2(self, runner, tmp_path):
        result = invoke(runner, "scaling", "--n", 1, "--out", tmp_path / "x.csv")
        assert result.exit_code == 2


class TestDiscriminantCheck:
    def test_hollow_triangle_report(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = invoke(
            runner, "discriminant-check", "--corpus", "hollow-triangle", "--k", 1,
            "--beta", 1.0, "--grid-m", 16, "--steps", 2, "--out", out,
        )
        assert result.exit_code == 0, result.output
        data = json.loads(out.read_text())
        assert data["grid_m"] == 16
        assert data["steps"][0]["beta"] == 0.0
        assert data["steps"][0]["fidelity"] >= 0.99  # beta=0: entangled-pair target
        assert data["final_fidelity"] > 0.0
        assert data["min_overlap"] > 0.0

    def test_beta_zero_only(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = invoke(
            runner, "discriminant-check", "--corpus", "hollow-triangle", "--k", 1,
            "--beta", 0.0, "--grid-m", 16, "--out", out,
        )
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert len(data["steps"]) == 1 and data["steps"][0]["fidelity"] >= 0.99

    def test_octahedron_vertices_within_cap(self, runner, tmp_path):
        # 6 vertices, so 6 levels and a 36 x 36 discriminant: comfortably inside
        out = tmp_path / "report.json"
        result = invoke(
            runner, "discriminant-check", "--corpus", "octahedron-boundary", "--k", 0,
            "--beta", 0.5, "--grid-m", 16, "--steps", 1, "--out", out,
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["steps"][0]["fidelity"] >= 0.99

    def test_two_level_real_form(self, runner, tmp_path):
        # two edges that share a vertex: L_1 has the levels 1 and 3, one qubit, a
        # 4 x 4 D whose real form has a single off-diagonal pair of Hermitian units
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"n_vertices": 3, "simplices": {"0": [[0], [1], [2]], "1": [[0, 1], [1, 2]]}}))
        out = tmp_path / "report.json"
        result = invoke(runner, "discriminant-check", "--input", path, "--k", 1, "--steps", 2, "--out", out)
        assert result.exit_code == 0, result.output
        steps = json.loads(out.read_text())["steps"]
        assert len(steps) == 3
        assert all(s["top_eigenvalue"] <= 1.0 + 1e-8 for s in steps)
        assert steps[0]["fidelity"] >= 0.99

    def test_power_of_two_levels_match_the_padded_route(self, runner, tmp_path):
        # 4 triangles fill a 2-qubit register: no level is cut or padded, so the
        # record is the one annealing_path gives on pad_hamiltonian and pauli_jumps
        out = tmp_path / "report.json"
        result = invoke(runner, "discriminant-check", "--corpus", "tetrahedron-boundary", "--k", 2, "--out", out)
        assert result.exit_code == 0, result.output
        record = json.loads(out.read_text())
        del record["meta"]
        laplacian = combinatorial_laplacian(CORPUS["tetrahedron-boundary"](), 2)
        report = annealing_path(pad_hamiltonian(laplacian), pauli_jumps(2), 32, [i / 5 for i in range(6)])
        expected = {"grid_m": 32, "beta_target": 1.0, **asdict(report)}
        assert json.dumps(record, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_default_octahedron_edges(self, runner, tmp_path):
        # 12 edges, 12 levels of a 16-level register: the top eigenvalue of I + D stays at
        # most 1 and the default schedule ends on the purification
        out = tmp_path / "report.json"
        result = invoke(runner, "discriminant-check", "--corpus", "octahedron-boundary", "--k", 1, "--out", out)
        assert result.exit_code == 0, result.output
        record = json.loads(out.read_text())
        assert all(s["top_eigenvalue"] <= 1.0 + 1e-8 for s in record["steps"])
        assert record["final_fidelity"] >= 0.99

    def test_dimension_cap_enforced(self, runner, tmp_path, monkeypatch):
        cx_path = tmp_path / "big.json"
        result = invoke(
            runner, "random-complex", "--n", 24, "--edge-prob", 0.9,
            "--max-dim", 2, "--seed", 1, "--out", cx_path,
        )
        assert result.exit_code == 0

        # the cap depends only on the simplex count: no Laplacian is assembled
        def fail(*args, **kwargs):
            raise AssertionError("Laplacian assembled before the cap check")

        monkeypatch.setattr("thermaltda.cli.combinatorial_laplacian", fail)
        result = invoke(
            runner, "discriminant-check", "--input", cx_path, "--k", 1,
            "--beta", 0.5, "--grid-m", 8, "--out", tmp_path / "x.json",
        )
        assert result.exit_code == 2
        assert "cap" in result.output

    def test_empty_dimension(self, runner, tmp_path):
        result = invoke(
            runner, "discriminant-check", "--corpus", "hollow-triangle", "--k", 2,
            "--out", tmp_path / "x.json",
        )
        assert result.exit_code == 2
        assert "no 2-simplices" in result.output


class ComplexFile(str):
    """JSON text that a test writes to a file and passes by path."""

    name = "cx.json"


class PointsFile(str):
    """CSV text that a test writes to a file and passes by path."""

    name = "points.csv"


# complex files that were once read as a different complex: dimension keys
# "1" and "01" that parse to the same integer, a repeated key, fractional
# numbers and booleans
MISREAD_FILES = [
    '{"n_vertices": 3, "simplices": {"0": [[0], [1], [2]], "1": [[0, 1], [1, 2]], "01": []}}',
    '{"n_vertices": 3, "n_vertices": 2, "simplices": {"0": [[0], [1]], "1": [[0, 1]], "1": []}}',
    '{"n_vertices": 2.9, "simplices": {"0": [[0.7], [1.2]]}}',
    '{"n_vertices": true, "simplices": {"0": [[false]]}}',
]


class TestBadInput:
    """Out-of-range options and malformed inputs exit 2 with a usage error,
    never a traceback."""

    HOLLOW = ("--corpus", "hollow-triangle", "--k", 1)
    THERMAL = ("betti", *HOLLOW, "--method", "thermal")

    @pytest.mark.parametrize(
        "args",
        [
            ("betti", *HOLLOW, "--method", "swap", "--shots", 0),
            ("betti", *HOLLOW, "--method", "thermal", "--beta", -1),
            ("betti", *HOLLOW, "--method", "swap", "--beta", -1),
            ("betti", *HOLLOW, "--method", "thermal", "--criterion", 0),
            ("sweep", *HOLLOW, "--criterion", -1, "--out", "OUT"),
            ("scaling", "--n", 4, "--instances", 1, "--criterion", -1, "--out", "OUT"),
            ("discriminant-check", *HOLLOW, "--grid-m", 3, "--out", "OUT"),
            ("discriminant-check", *HOLLOW, "--beta", -1, "--out", "OUT"),
            ("discriminant-check", *HOLLOW, "--grid-m", 1026, "--out", "OUT"),
            ("discriminant-check", *HOLLOW, "--grid-m", 9, "--out", "OUT"),
            ("discriminant-check", *HOLLOW, "--steps", 0, "--beta", 2, "--out", "OUT"),
            ("discriminant-check", *HOLLOW, "--steps", -3, "--out", "OUT"),
            ("discriminant-check", *HOLLOW, "--steps", 1001, "--out", "OUT"),
            ("sweep", *HOLLOW, "--beta-steps", 10_001, "--out", "OUT"),
            ("discriminant-check", *HOLLOW, "--beta", "inf", "--out", "OUT"),
            (*THERMAL, "--beta", "nan"),
            (*THERMAL, "--beta", "inf"),
            (*THERMAL, "--criterion", "nan"),
            ("sweep", *HOLLOW, "--criterion", "nan", "--out", "OUT"),
            (*THERMAL, "--guard", 1.5),
            (*THERMAL, "--guard", 0.5),
            (*THERMAL, "--guard", -0.5),
            (*THERMAL, "--guard", "nan"),
            # 33 levels: a 1089-dim discriminant, over the cap of 1024 (32 levels)
            ("discriminant-check", "--input", ComplexFile(json.dumps(
                {"n_vertices": 33, "simplices": {"0": [[v] for v in range(33)]}})), "--k", 0, "--out", "OUT"),
            # zero Laplacian of power-of-two size: no level spacing for the frequency grid
            ("discriminant-check", "--input", ComplexFile('{"n_vertices": 2, "simplices": {"0": [[0], [1]]}}'),
             "--k", 0, "--out", "OUT"),
            ("betti", "--input", ComplexFile('{"n_vertices": 2, "simplices": [[0], [1]]}'), "--k", 0),
            ("betti", "--input", ComplexFile("[[0], [1]]"), "--k", 0),
            ("betti", "--input", ComplexFile('{"n_vertices": 2, "simplices": {"0": [0, [1]]}}'), "--k", 0),
            # numbers beyond the float range, where the format has integers
            ("betti", "--input", ComplexFile('{"n_vertices": 1e400, "simplices": {"0": [[0]]}}'), "--k", 0),
            ("betti", "--input", ComplexFile('{"n_vertices": 2, "simplices": {"0": [[0], [1e400]]}}'), "--k", 0),
            # vertex ids are int32: a count above 2^31 - 1, or beyond int64
            ("betti", "--input", ComplexFile('{"n_vertices": 5000000000, "simplices": {"0": [[0]]}}'), "--k", 0),
            ("betti", "--input", ComplexFile(f'{{"n_vertices": {2**70}, "simplices": {{"0": [[0]]}}}}'), "--k", 0),
            ("betti", "--input", ComplexFile(f'{{"n_vertices": 2, "simplices": {{"0": [[0], [{2**70}]]}}}}'), "--k", 0),
            # the empty simplex has the length of a (-1)-simplex
            ("betti", "--input", ComplexFile('{"n_vertices": 2, "simplices": {"-1": [[]], "0": [[0], [1]]}}'),
             "--k", 0),
            *(("betti", "--input", ComplexFile(text), "--k", 0) for text in MISREAD_FILES),
            # an output path that cannot be opened for writing
            ("betti", *HOLLOW, "--out", "OUT_IN_MISSING_DIR"),
            ("sweep", *HOLLOW, "--out", "OUT_IN_MISSING_DIR"),
            ("scaling", "--n", 4, "--instances", 1, "--out", "OUT_IN_MISSING_DIR"),
            ("random-complex", "--n", 4, "--edge-prob", 0.5, "--out", "OUT_IN_MISSING_DIR"),
            ("discriminant-check", *HOLLOW, "--grid-m", 4, "--steps", 1, "--out", "OUT_IN_MISSING_DIR"),
            ("betti", *HOLLOW, "--out", "OUT_IS_DIR"),
            # inverse temperatures beyond the bound
            (*THERMAL, "--beta", 1e308),
            ("discriminant-check", *HOLLOW, "--beta", 1e308, "--out", "OUT"),
            ("sweep", *HOLLOW, "--beta-max", "inf", "--out", "OUT"),
            ("sweep", *HOLLOW, "--beta-max", 1e308, "--out", "OUT"),
            # dimensions and counts outside what the library or the sampler accept
            ("scaling", "--n", 4, "--instances", 1, "--k", -1, "--out", "OUT"),
            ("random-complex", "--n", 4, "--edge-prob", 0.5, "--max-dim", -1, "--out", "OUT"),
            ("random-complex", "--n", 4_097, "--edge-prob", 0.5, "--out", "OUT"),
            ("scaling", "--n", 4_097, "--instances", 1, "--out", "OUT"),
            ("scaling", "--n", 4, "--instances", 100_001, "--out", "OUT"),
            ("betti", *HOLLOW, "--method", "swap", "--shots", 2**63),
            ("build-complex", "--points", PointsFile("0,0\n1,0\n"), "--epsilon", "nan", "--out", "OUT"),
        ],
        ids=lambda args: " ".join(str(a) for a in args if a not in ("--out", "OUT")),
    )
    def test_exits_2(self, runner, tmp_path, args):
        out = tmp_path / "out"
        paths = {"OUT": out, "OUT_IN_MISSING_DIR": tmp_path / "missing" / "out", "OUT_IS_DIR": tmp_path}
        argv = []
        for a in args:
            if isinstance(a, (ComplexFile, PointsFile)):
                (tmp_path / a.name).write_text(a)
                a = tmp_path / a.name
            argv.append(paths.get(a, a))
        result = invoke(runner, *argv)
        assert result.exit_code == 2, result.output
        assert "Error:" in result.output
        assert not out.exists()
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ("random-complex", "--n", 20, "--edge-prob", 0.9, "--max-dim", 3),
            ("build-complex", "--points", PointsFile("".join(f"{i},0\n" for i in range(20))),
             "--epsilon", 100, "--max-dim", 3),
            ("scaling", "--n", 20, "--instances", 1, "--edge-prob-lo", 0.9),
        ],
        ids=["random-complex", "build-complex", "scaling"],
    )
    def test_simplex_budget_exits_2(self, runner, tmp_path, monkeypatch, args):
        monkeypatch.setattr("thermaltda.complexes.MAX_SIMPLICES", 100)
        out = tmp_path / "out"
        argv = []
        for a in args:
            if isinstance(a, PointsFile):
                (tmp_path / a.name).write_text(a)
                a = tmp_path / a.name
            argv.append(a)
        result = invoke(runner, *argv, "--out", out)
        assert result.exit_code == 2, result.output
        assert "Error:" in result.output and "simplices" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["betti", "sweep"])
    def test_laplacian_cap_exits_2(self, runner, tmp_path, monkeypatch, command):
        """A loaded complex with more k-simplices than the Laplacian cap exits 2."""
        monkeypatch.setattr("thermaltda.homology.MAX_LAPLACIAN_DIM", 4)
        path = tmp_path / "cx.json"
        path.write_text(json.dumps({"n_vertices": 5, "simplices": {"0": [[v] for v in range(5)]}}))
        out = tmp_path / "out"
        result = invoke(runner, command, "--input", path, "--k", 0, "--out", out)
        assert result.exit_code == 2, result.output
        assert "Error:" in result.output and "Laplacian cap" in result.output
        assert not out.exists()

    def test_single_level_laplacian_exits_2(self, runner, tmp_path):
        """Two disjoint edges: L_1 = 2 I fills a 2-level register, so the
        discriminant has no transition frequency for its grid to span."""
        out = tmp_path / "out"
        result = invoke(runner, "discriminant-check", "--corpus", "two-components", "--k", 1, "--out", out)
        assert result.exit_code == 2, result.output
        assert "Error: the 1-Laplacian has a single level, so there is no transition frequency" in result.output
        assert not out.exists()

    def test_single_level_of_any_size_exits_2(self, runner, tmp_path):
        """One triangle (m = 1) and three disjoint edges (L_1 = 2 I on 3 levels):
        a single level, whether or not m is a power of two."""
        path = tmp_path / "edges.json"
        path.write_text(json.dumps({"n_vertices": 6, "simplices": {
            "0": [[v] for v in range(6)], "1": [[0, 1], [2, 3], [4, 5]]}}))
        for args, k in ((("--corpus", "filled-triangle"), 2), (("--input", path), 1)):
            out = tmp_path / "out"
            result = invoke(runner, "discriminant-check", *args, "--k", k, "--out", out)
            assert result.exit_code == 2, result.output
            assert f"Error: the {k}-Laplacian has a single level, so there is no transition" in result.output
            assert not out.exists()

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, OverflowError])
    def test_exits_3(self, runner, monkeypatch, error):
        """A solver failure or a float overflow exits 3, never a traceback."""

        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr("thermaltda.cli.betti_thermal", fail)
        result = invoke(runner, *self.THERMAL)
        assert result.exit_code == 3, result.output
        assert "Error:" in result.output

    @pytest.mark.parametrize("failure", ["no convergence", "arpack error", "dsytrf argument"])
    def test_inertia_count_failure_exits_3(self, runner, monkeypatch, failure):
        """A Lanczos run that fails or an LDL^T that LAPACK rejects on the exact
        route's inertia count exits 3, never a traceback."""
        import scipy.linalg.lapack
        import scipy.sparse.linalg as arpack

        def no_top(*args, **kwargs):
            if failure == "no convergence":
                raise arpack.ArpackNoConvergence("injected", np.empty(0), np.empty((0, 0)))
            raise arpack.ArpackError(-9999)

        if failure == "dsytrf argument":
            monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", lambda a, **kwargs: (a, np.ones(len(a)), -1))
        else:
            monkeypatch.setattr(arpack, "eigsh", no_top)
        monkeypatch.setattr("thermaltda.homology.INERTIA_MIN_DIM", 2)
        result = invoke(runner, "betti", *self.HOLLOW, "--method", "exact")
        assert result.exit_code == 3, result.output
        assert "Error: numerical failure:" in result.output


def _beta_in_bound(v: float) -> bool:
    return 0.0 <= v <= 1e12


@pytest.mark.parametrize(
    "args, accepted",
    [
        (("betti", *TestBadInput.HOLLOW, "--method", "thermal", "--beta"), _beta_in_bound),
        (("discriminant-check", *TestBadInput.HOLLOW, "--grid-m", 4, "--steps", 1, "--out", "OUT", "--beta"),
         _beta_in_bound),
        # the default --beta-min is 0.01
        (("sweep", *TestBadInput.HOLLOW, "--out", "OUT", "--beta-max"), lambda v: 0.01 < v <= 1e12),
    ],
    ids=["betti", "discriminant-check", "sweep"],
)
@settings(derandomize=True, database=None, deadline=None)
@given(v=st.floats())
def test_beta_options_exit_0_or_2(args, accepted, v):
    """Any float given as an inverse temperature runs or exits 2: beta in
    [0, 1e12] runs, anything else is a usage error."""
    runner = CliRunner()  # hypothesis rejects function-scoped fixtures
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        result = invoke(runner, *(out if a == "OUT" else a for a in args), repr(v))
    assert result.exit_code == (0 if accepted(v) else 2), result.output


# small ints, ints beyond int64 and every float, inf and nan among them
_NUMBERS = st.integers(-2, 4) | st.integers(min_value=2**63) | st.floats()
_COMPLEX_FILES = st.fixed_dictionaries({
    "n_vertices": _NUMBERS,
    "simplices": st.dictionaries(
        st.sampled_from(["-1", "0", "1", "2"]),
        st.lists(st.lists(_NUMBERS, max_size=3), max_size=4),
        max_size=3,
    ),
})


@settings(derandomize=True, database=None, deadline=None)
@example(data={"n_vertices": math.inf, "simplices": {"0": [[0]]}})
@example(data={"n_vertices": 2, "simplices": {"0": [[0], [math.inf]]}})
@example(data={"n_vertices": 2, "simplices": {"-1": [[]], "0": [[0], [1]]}})
@given(data=_COMPLEX_FILES)
def test_complex_files_exit_0_or_2(data):
    """A complex file, well formed or not, runs or exits 2: never a numerical
    failure or a traceback.  json.dump writes inf and nan as Infinity and NaN."""
    runner = CliRunner()  # hypothesis rejects function-scoped fixtures
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cx.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        result = invoke(runner, "betti", "--input", path, "--k", 0)
    assert result.exit_code in (0, 2), result.output


def test_shuffled_repeated_rows_read_as_the_sorted_file(runner, tmp_path):
    """A file whose rows come in any order, some twice, is the complex the
    sorted file holds: the same Betti numbers, and saved back, the same bytes."""
    canonical, shuffled, resaved = tmp_path / "cx.json", tmp_path / "shuffled.json", tmp_path / "resaved.json"
    random_complex(12, 0.5, 3, seed=3).save(canonical)
    data = json.loads(canonical.read_text())
    rng = np.random.default_rng(0)
    for key, rows in data["simplices"].items():
        rows = rows + rows[:2]
        data["simplices"][key] = [rows[i] for i in rng.permutation(len(rows))]
    shuffled.write_text(json.dumps(data))
    for k in range(3):
        results = [invoke(runner, "betti", "--input", path, "--k", k) for path in (canonical, shuffled)]
        assert [r.exit_code for r in results] == [0, 0], results[1].output
        a, b = (json.loads(r.output) for r in results)
        assert a.pop("meta")["options"]["input"] != b.pop("meta")["options"]["input"] and a == b
    SimplicialComplex.load(shuffled).save(resaved)
    assert resaved.read_bytes() == canonical.read_bytes()


def _as_written(text: str) -> set:
    """The count and the (dimension key, simplex) pairs a complex file's text
    spells out, each as its JSON, repeated keys included."""
    written = set()
    for key, value in json.loads(text, object_pairs_hook=list):
        if key == "n_vertices":
            written.add(json.dumps(value))
        elif key == "simplices":
            written |= {(dim, json.dumps(s)) for dim, simplices in value for s in simplices}
    return written


@settings(derandomize=True, database=None, deadline=None)
@example(text=MISREAD_FILES[0])
@example(text=MISREAD_FILES[1])
@example(text=MISREAD_FILES[2])
@example(text=MISREAD_FILES[3])
@given(text=_COMPLEX_FILES.map(json.dumps))
def test_complex_files_that_run_save_back_as_written(text):
    """A complex file that runs is the complex it spells out: saved back, it
    has exactly its own count and simplices."""
    runner = CliRunner()  # hypothesis rejects function-scoped fixtures
    with tempfile.TemporaryDirectory() as tmp:
        path, saved = os.path.join(tmp, "cx.json"), os.path.join(tmp, "saved.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if invoke(runner, "betti", "--input", path, "--k", 0).exit_code == 0:
            SimplicialComplex.load(path).save(saved)
            with open(saved, encoding="utf-8") as fh:
                assert _as_written(fh.read()) == _as_written(text)


class TestMeta:
    def test_outputs_carry_reproduction_metadata(self, runner):
        result = invoke(runner, "betti", "--corpus", "hollow-triangle", "--k", 1)
        meta = json.loads(result.output)["meta"]
        assert meta["tool"] == "thermaltda"
        assert "version" in meta
        assert meta["options"]["k"] == 1
        assert meta["options"]["seed"] == 0

    @pytest.mark.parametrize(
        "args, keys",
        [
            (("betti", *TestBadInput.HOLLOW, "--out", "OUT"),
             {"input", "corpus", "k", "method", "beta", "criterion", "guard", "shots", "seed"}),
            (("sweep", *TestBadInput.HOLLOW, "--out", "OUT"),
             {"input", "corpus", "k", "beta_min", "beta_max", "beta_steps", "criterion"}),
            (("scaling", "--n", 6, "--k", 1, "--instances", 2, "--out", "OUT"),
             {"n", "k", "instances", "criterion", "edge_prob_lo", "edge_prob_hi", "seed"}),
            (("discriminant-check", *TestBadInput.HOLLOW, "--grid-m", 4, "--steps", 1, "--out", "OUT"),
             {"input", "corpus", "k", "beta", "grid_m", "steps"}),
        ],
        ids=lambda v: v[0] if isinstance(v, tuple) else None,
    )
    def test_option_keys(self, runner, tmp_path, args, keys):
        """meta records every option of the command but its output paths."""
        out = tmp_path / "out"
        result = invoke(runner, *(out if a == "OUT" else a for a in args))
        assert result.exit_code == 0, result.output
        # betti and discriminant-check write JSON to --out; sweep and scaling a CSV
        json_out = args[0] in ("betti", "discriminant-check")
        text = out.read_text() if json_out else result.output.splitlines()[-1]
        meta = json.loads(text)["meta"]
        assert meta["command"] == args[0]
        assert set(meta["options"]) == keys


class TestCrossMethodAgreement:
    CORPUS_KS = {
        "hollow-triangle": (0, 1),
        "filled-triangle": (0, 1, 2),
        "tetrahedron-boundary": (0, 1, 2),
        "two-components": (0, 1),
        "octahedron-boundary": (0, 1, 2),
    }

    def test_three_methods_agree_on_corpus(self, runner):
        # The swap comparison is gated on its stability flag: two-components
        # at k=0 has its purity exactly on the 1/2 boundary at the default
        # beta, where a million-shot estimate rightly refuses to commit.
        stable_cases = 0
        total_cases = 0
        for name, ks in self.CORPUS_KS.items():
            for k in ks:
                values = {}
                swap_stable = False
                for method in ("exact", "thermal", "swap"):
                    result = invoke(
                        runner, "betti", "--corpus", name, "--k", k,
                        "--method", method, "--shots", 10**6, "--seed", 13,
                    )
                    assert result.exit_code == 0, (name, k, method, result.output)
                    data = json.loads(result.output)
                    if method == "exact":
                        assert data["agree"]
                        values[method] = data["betti_kernel"]
                    elif method == "thermal":
                        assert data["converged"]
                        values[method] = data["betti_floor"]
                    else:
                        swap_stable = data["stable"]
                        values[method] = data["betti_floor"]
                total_cases += 1
                assert values["exact"] == values["thermal"], (name, k, values)
                if swap_stable:
                    stable_cases += 1
                    assert values["swap"] == values["exact"], (name, k, values)
        assert stable_cases >= total_cases - 1  # only the boundary case may abstain

    def test_in_place_solve_prints_the_same_answers(self, runner, tmp_path, monkeypatch):
        """With every Gram solved in its own buffer, each betti query prints
        the same JSON as through numpy's copying solve."""
        path = tmp_path / "cx.json"
        random_complex(9, 0.7, 4, 3).save(path)
        sources = [("--corpus", name, ks) for name, ks in self.CORPUS_KS.items()]
        queries = [
            ("betti", flag, value, "--k", k, "--method", method)
            for flag, value, ks in [*sources, ("--input", path, (1, 2, 3))]
            for k in ks
            for method in ("exact", "thermal", "swap")
        ]
        copying = [invoke(runner, *q) for q in queries]
        monkeypatch.setattr("thermaltda.homology.IN_PLACE_MIN_DIM", 1)
        for q, before in zip(queries, copying):
            assert before.exit_code == 0, (q, before.output)
            assert invoke(runner, *q).output == before.output, q

    def test_inertia_count_prints_the_same_answers(self, runner, tmp_path, monkeypatch):
        """With every Gram of two levels or more counted by inertia, each exact
        query prints the same Betti numbers and verdict as through the full
        spectra, and a tolerance within 1e-13 of theirs."""
        path = tmp_path / "cx.json"
        random_complex(9, 0.7, 4, 3).save(path)
        sources = [("--corpus", name, ks) for name, ks in self.CORPUS_KS.items()]
        queries = [
            ("betti", flag, value, "--k", k, "--method", "exact")
            for flag, value, ks in [*sources, ("--input", path, (0, 1, 2, 3))]
            for k in ks
        ]
        solved = [invoke(runner, *q) for q in queries]
        monkeypatch.setattr("thermaltda.homology.INERTIA_MIN_DIM", 2)
        for q, before in zip(queries, solved):
            assert before.exit_code == 0, (q, before.output)
            ref, data = json.loads(before.output), json.loads(invoke(runner, *q).output)
            assert data.pop("tol_kernel") == pytest.approx(ref.pop("tol_kernel"), rel=1e-13, abs=0), q
            assert data == ref, q
