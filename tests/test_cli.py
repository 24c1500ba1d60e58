import json
import os
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from thermaltda.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


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

    def test_thermal_hollow_triangle(self, runner):
        result = invoke(runner, "betti", "--corpus", "hollow-triangle", "--k", 1, "--method", "thermal")
        data = json.loads(result.output)
        assert data["betti_floor"] == 1 and data["converged"]

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
        # 6 vertices pad to 8 dims, a 64x64 discriminant: comfortably inside
        out = tmp_path / "report.json"
        result = invoke(
            runner, "discriminant-check", "--corpus", "octahedron-boundary", "--k", 0,
            "--beta", 0.5, "--grid-m", 16, "--steps", 1, "--out", out,
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["steps"][0]["fidelity"] >= 0.99

    def test_dimension_cap_enforced(self, runner, tmp_path):
        cx_path = tmp_path / "big.json"
        result = invoke(
            runner, "random-complex", "--n", 24, "--edge-prob", 0.9,
            "--max-dim", 2, "--seed", 1, "--out", cx_path,
        )
        assert result.exit_code == 0
        result = invoke(
            runner, "discriminant-check", "--input", cx_path, "--k", 1,
            "--beta", 0.5, "--grid-m", 8, "--out", tmp_path / "x.json",
        )
        assert result.exit_code == 2
        assert "cap" in result.output


class ComplexFile(str):
    """JSON text that a test writes to a file and passes by path."""


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
            ("discriminant-check", *HOLLOW, "--beta", "inf", "--out", "OUT"),
            (*THERMAL, "--beta", "nan"),
            (*THERMAL, "--beta", "inf"),
            (*THERMAL, "--criterion", "nan"),
            ("sweep", *HOLLOW, "--criterion", "nan", "--out", "OUT"),
            (*THERMAL, "--guard", 1.5),
            (*THERMAL, "--guard", 0.5),
            (*THERMAL, "--guard", -0.5),
            (*THERMAL, "--guard", "nan"),
            # zero Laplacian of power-of-two size: no level spacing for the frequency grid
            ("discriminant-check", "--input", ComplexFile('{"n_vertices": 2, "simplices": {"0": [[0], [1]]}}'),
             "--k", 0, "--out", "OUT"),
            ("betti", "--input", ComplexFile('{"n_vertices": 2, "simplices": [[0], [1]]}'), "--k", 0),
            ("betti", "--input", ComplexFile("[[0], [1]]"), "--k", 0),
            ("betti", "--input", ComplexFile('{"n_vertices": 2, "simplices": {"0": [0, [1]]}}'), "--k", 0),
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
        ],
        ids=lambda args: " ".join(str(a) for a in args if a not in ("--out", "OUT")),
    )
    def test_exits_2(self, runner, tmp_path, args):
        out = tmp_path / "out"
        paths = {"OUT": out, "OUT_IN_MISSING_DIR": tmp_path / "missing" / "out", "OUT_IS_DIR": tmp_path}
        argv = []
        for a in args:
            if isinstance(a, ComplexFile):
                (tmp_path / "cx.json").write_text(a)
                a = tmp_path / "cx.json"
            argv.append(paths.get(a, a))
        result = invoke(runner, *argv)
        assert result.exit_code == 2, result.output
        assert "Error:" in result.output
        assert not out.exists()
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, OverflowError])
    def test_exits_3(self, runner, monkeypatch, error):
        """A solver failure or a float overflow exits 3, never a traceback."""

        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr("thermaltda.cli.betti_thermal", fail)
        result = invoke(runner, *self.THERMAL)
        assert result.exit_code == 3, result.output
        assert "Error:" in result.output


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


class TestMeta:
    def test_outputs_carry_reproduction_metadata(self, runner):
        result = invoke(runner, "betti", "--corpus", "hollow-triangle", "--k", 1)
        meta = json.loads(result.output)["meta"]
        assert meta["tool"] == "thermaltda"
        assert "version" in meta
        assert meta["options"]["k"] == 1
        assert meta["options"]["seed"] == 0


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
