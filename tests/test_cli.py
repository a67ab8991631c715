import csv
import io
import json
import math

import numpy as np
import pytest

from fbmilt import cli, iltmc, phasescan, quadmoments
from fbmilt.covkernel import ModelConfig
from fbmilt.errors import ParameterError, QuadratureBudgetError
from fbmilt.fbmgen import TimeGrid, path_to_csv, sample_paths
from fbmilt.phasescan import PhaseError, phase_grid


def run_main(argv):
    return cli.main(argv)


class TestParseArgs:
    def test_phase_lists(self):
        rc = cli.parse_args(["phase", "--hurst", "0.25,0.5,0.75", "--dim", "2,3",
                             "--out", "phase.json"])
        assert rc.command == "phase"
        assert rc.hurst == [0.25, 0.5, 0.75]
        assert rc.dim == [2, 3]
        assert rc.out == "phase.json"

    def test_estimate_defaults(self):
        rc = cli.parse_args(["estimate", "--hurst", "0.5", "--dim", "2",
                             "--eps", "0.5", "--reps", "100", "--seed", "42"])
        assert rc.seed == 42
        assert rc.horizon == 1.0
        assert rc.method == "circulant"

    def test_dim_one_rejected_naming_field(self):
        with pytest.raises(ParameterError, match="dim"):
            cli.parse_args(["estimate", "--hurst", "0.5", "--dim", "1", "--eps", "0.5"])

    def test_estimate_requires_positive_eps(self):
        with pytest.raises(ParameterError, match="eps"):
            cli.parse_args(["estimate", "--hurst", "0.5", "--dim", "2", "--eps", "0"])

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hurst = 0.25\nseed = 7  # comment\neps = 1\n")
        rc = cli.parse_args(["moments", "--config", str(cfg), "--hurst", "0.75"])
        assert rc.hurst == [0.75]  # flag wins
        assert rc.seed == 7  # file beats default
        assert rc.eps == 1.0

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(ParameterError, match="bogus"):
            cli.parse_args(["moments", "--config", str(cfg), "--eps", "1"])

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["moments", "--nope", "1"])
        assert exc.value.code == 2


def exit_code(argv):
    """main's exit code, also when argparse rejects ``argv`` by exiting."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestFlagsTakeEffect:
    @pytest.mark.parametrize("argv", [
        ["phase", "--reps", "5", "--seed", "9", "--format", "csv"],
        ["sweep", "--seed", "3", "--count", "3"],
        ["phase", "--hurst", "0.25", "--dim", "2", "--count", "3"],
        ["moments", "--eps", "nan"],
        ["moments", "--eps", "inf"],
        ["estimate", "--eps", "nan", "--reps", "10"],
        ["sweep", "--count", "3", "--eps0", "inf"],
        ["moments", "--eps", "0.5", "--horizon", "inf"],
        ["moments", "--eps", "0.5", "--tol", "nan"],
        ["moments", "--eps", "0.5", "--tol", "-1"],
        ["moments", "--eps", "0.5", "--tol", "0"],
        ["simulate", "--grid-n", "0"],
        ["estimate", "--eps", "1", "--reps", "10", "--grid-n", "0"],
        ["sweep", "--count", "3", "--reps", "10", "--grid-n", "0"],
        ["simulate", "--seed", "-1"],
        ["estimate", "--eps", "1", "--reps", "10", "--seed", "-1"],
        ["sweep", "--count", "3", "--reps", "10", "--seed", "-1"],
        ["verify-lemmas", "--seed", "-1"],
        ["estimate", "--eps", "1", "--reps", "10", "--workers", "0"],
        ["estimate", "--eps", "1", "--reps", "1"],
        ["phase", "--hurst", "0.25", "--dim", "2", "--count", "4"],
    ], ids=["phase-reads-no-mc-or-format", "sweep-seed-without-reps", "phase-short-ladder",
            "eps-nan", "eps-inf", "estimate-eps-nan", "eps0-inf", "horizon-inf",
            "tol-nan", "tol-negative", "tol-zero",
            "simulate-grid-n-0", "estimate-grid-n-0", "sweep-grid-n-0",
            "simulate-seed-negative", "estimate-seed-negative", "sweep-seed-negative",
            "verify-lemmas-seed-negative", "estimate-workers-0", "estimate-reps-1",
            "phase-count-4"])
    def test_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        assert exit_code(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_config_value_outside_choices(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        out = tmp_path / "s.json"
        argv = ["sweep", "--count", "3", "--config", str(cfg), "--out", str(out)]
        assert exit_code(argv) == 2
        assert not out.exists()

    def test_sweep_mc_flags_with_reps(self):
        rc = cli.parse_args(["sweep", "--reps", "50", "--seed", "3", "--grid-n", "32"])
        assert (rc.reps, rc.seed, rc.grid_n) == (50, 3, 32)


class TestMomentsCommand:
    def test_report_and_roundtrip(self, tmp_path):
        out = tmp_path / "m.json"
        code = run_main(["moments", "--hurst", "0.5", "--dim", "2", "--eps", "1",
                         "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["m1"]["value"] == pytest.approx(
            (3 * math.log(3) - 4 * math.log(2)) / (2 * math.pi), rel=1e-8
        )
        assert report["results"]["m2"]["value"] > 0
        assert report["results"]["variance"] == pytest.approx(
            report["results"]["m2"]["value"] - report["results"]["m1"]["value"] ** 2,
            rel=1e-12,
        )
        assert report["config"]["hurst"] == [0.5]

    def test_cells_and_nevals_reported(self, tmp_path):
        out = tmp_path / "m.json"
        run_main(["moments", "--hurst", "0.5", "--dim", "2", "--eps", "1", "--out", str(out)])
        results = json.loads(out.read_text())["results"]
        cfg = ModelConfig(0.5, 2)
        for key, res in (("m1", quadmoments.m1(1.0, cfg)), ("m2", quadmoments.m2(1.0, cfg))):
            assert results[key]["cells"] == res.subdivisions > 0
            assert results[key]["nevals"] == res.nevals > results[key]["cells"]
            assert results[key]["seconds"] > 0.0

    def test_deterministic_modulo_timestamp(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_main(["moments", "--hurst", "0.3", "--dim", "2", "--eps", "0.5",
                      "--out", str(out)])
            d = json.loads(out.read_text())
            d.pop("timestamp")
            d["config"].pop("out")
            for key in ("m1", "m2"):  # wall time, like the timestamp
                d["results"][key].pop("seconds")
            outs.append(json.dumps(d, sort_keys=True))
        assert outs[0] == outs[1]

    def test_diverged_m1_reported(self, tmp_path):
        out = tmp_path / "d.json"
        code = run_main(["moments", "--hurst", "0.75", "--dim", "3", "--eps", "0",
                         "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["m1"]["diverged"] is True
        assert report["results"]["m1"]["evidence"]
        assert report["results"]["m1"]["nevals"] > 0
        assert report["results"]["m2"] is None
        m1 = report["results"]["m1"]
        assert [s["width"] for s in m1["shells"]] == [4.0**-k for k in range(1, 8)]
        assert all(s["status"] == "converged" for s in m1["shells"])
        values = [s["value"] for s in m1["shells"]]
        assert m1["evidence"].endswith(", ".join(f"{v:.4g}" for v in values))
        assert m1["shell_rate"] < 0.0
        assert m1["radial_exponent"] == pytest.approx(1.0 - 2.25)

    def test_m1_diverged_within_the_critical_band(self, tmp_path):
        # Hd = 2 - 2e-10, which phase reads Critical
        out = tmp_path / "b.json"
        code = run_main(["moments", "--eps", "0", "--hurst", "0.6666666666", "--dim", "3",
                         "--out", str(out)])
        assert code == 0
        m1 = json.loads(out.read_text())["results"]["m1"]
        assert m1["diverged"] is True
        assert m1["evidence"] and m1["shells"]

    def test_tol_reaches_diverged_m1(self, tmp_path):
        nevals = []
        for tol in ([], ["--tol", "1e-3"]):
            out = tmp_path / "d.json"
            run_main(["moments", "--hurst", "0.75", "--dim", "3", "--eps", "0",
                      "--out", str(out)] + tol)
            m1 = json.loads(out.read_text())["results"]["m1"]
            assert m1["diverged"] is True
            nevals.append(m1["nevals"])
        assert nevals[1] < nevals[0]

    def test_finite_m1_has_no_shells(self, tmp_path):
        out = tmp_path / "f.json"
        run_main(["moments", "--hurst", "0.5", "--dim", "2", "--eps", "0", "--out", str(out)])
        m1 = json.loads(out.read_text())["results"]["m1"]
        assert m1["shells"] is None and m1["shell_rate"] is None


class TestEstimateCommand:
    def test_deterministic(self, tmp_path):
        vals = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = run_main(["estimate", "--hurst", "0.5", "--dim", "2", "--eps", "1",
                             "--reps", "100", "--seed", "42", "--grid-n", "16",
                             "--out", str(out)])
            assert code == 0
            vals.append(json.loads(out.read_text())["results"]["mc"])
        assert vals[0] == vals[1]
        assert vals[0]["reps"] == 100
        assert vals[0]["se"] > 0

    @pytest.mark.parametrize("grid_args, n", [([], 16), (["--grid-n", "20"], 20)])
    def test_diagnostics(self, tmp_path, grid_args, n):
        # without --grid-n the exact-bias rule gives its floor of 16 steps here
        out = tmp_path / "e.json"
        code = run_main(["estimate", "--hurst", "0.5", "--dim", "2", "--eps", "1",
                         "--reps", "50", "--out", str(out)] + grid_args)
        assert code == 0
        diagnostics = json.loads(out.read_text())["results"]["diagnostics"]
        assert diagnostics["grid_n"] == n
        assert diagnostics["pair_sums"] == 50 * (n + 1) ** 2
        cfg = ModelConfig(0.5, 2)
        exact = iltmc.discrete_mean(cfg, 1.0, TimeGrid(1.0, n))
        ref = quadmoments.m1(1.0, cfg)
        assert diagnostics["discrete_mean"] == exact
        bias = diagnostics["discretization_bias"]
        assert bias == {"value": exact - ref.value, "error": ref.error_estimate}
        # the chosen grid meets the 1e-3 relative bias bound
        assert abs(bias["value"]) + bias["error"] <= 1e-3 * ref.value

    def test_m1_integrated_once(self, tmp_path, monkeypatch):
        # the grid search reuses the m1 of the bias report; it used to
        # integrate m1(eps) a second time, with the same report
        cfg = ModelConfig(0.5, 2)
        n = iltmc.grid_for_eps(0.5, cfg)
        grid = TimeGrid(1.0, n)
        est = iltmc.mc_moments(cfg, 0.5, grid, replications=20, seed=0)
        exact = iltmc.discrete_mean(cfg, 0.5, grid)
        ref = quadmoments.m1(0.5, cfg)
        seen = []
        real_m1 = quadmoments.m1

        def m1(eps, cfg, **kw):
            seen.append(eps)
            return real_m1(eps, cfg, **kw)

        monkeypatch.setattr(quadmoments, "m1", m1)
        out = tmp_path / "e.json"
        code = run_main(["estimate", "--hurst", "0.5", "--dim", "2", "--eps", "0.5",
                         "--reps", "20", "--out", str(out)])
        assert code == 0
        assert seen == [0.5]
        results = json.loads(out.read_text())["results"]
        assert (results["mc"]["mean"], results["mc"]["se"]) == (est.mean, est.se_mean)
        assert results["diagnostics"]["grid_n"] == n
        assert results["diagnostics"]["discretization_bias"] == {
            "value": exact - ref.value, "error": ref.error_estimate}


class TestSweepCommand:
    def test_csv_header(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_main(["sweep", "--hurst", "0.5", "--dim", "2", "--count", "3",
                         "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("eps,m1,m1_err,m2,m2_err,variance,cauchy_gap,gap_err,"
                            "mc_mean,mc_se,complete")
        assert len(lines) == 4
        # first-row gap is empty (no previous epsilon)
        assert lines[1].split(",")[6] == ""

    def test_json_rows(self, tmp_path):
        out = tmp_path / "s.json"
        run_main(["sweep", "--hurst", "0.5", "--dim", "2", "--count", "3",
                  "--eps0", "1", "--out", str(out)])
        rows = json.loads(out.read_text())["results"]["rows"]
        assert [r["eps"] for r in rows] == [1.0, 0.5, 0.25]
        assert rows[0]["cauchy_gap"] is None
        assert rows[1]["cauchy_gap"] >= 0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_budget_hit_gap_reported(self, tmp_path, monkeypatch, fmt):
        # the gaps cannot meet their tolerance within the shared pass's budget
        monkeypatch.setattr(quadmoments, "_M2_MAX_EVALS", 100_000)
        monkeypatch.setattr(quadmoments, "_GAP_REL_TOL", 1e-12)
        out = tmp_path / f"s.{fmt}"
        code = run_main(["sweep", "--hurst", "0.5", "--dim", "2", "--count", "3",
                         "--eps0", "1", "--format", fmt, "--out", str(out)])
        assert code == 3
        if fmt == "json":
            results = json.loads(out.read_text())["results"]
            rows = results["rows"]
            assert results["diagnostics"]["nevals"] > 0
        else:
            rows = list(csv.DictReader(io.StringIO(out.read_text())))
            for row in rows:
                row["complete"] = row["complete"] == "True"
                row["gap_err"] = float(row["gap_err"]) if row["gap_err"] else None
        assert [r["complete"] for r in rows] == [True, False, False]
        assert rows[0]["gap_err"] is None
        assert all(r["gap_err"] > 0.0 for r in rows[1:])


class TestPhaseCommand:
    def test_convergent_point(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = run_main(["phase", "--hurst", "0.5", "--dim", "2", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["verdict"] == "Convergent"
        assert "Convergent" in capsys.readouterr().out
        (row,) = report["results"]["rows"]
        assert row["nevals"] == phasescan.sweep(ModelConfig(0.5, 2)).nevals > 0

    @pytest.mark.parametrize("flags,starts,factor,count", [
        ([], [2.0**0.5, 2.0**1.5], 0.5, 12),
        (["--eps0", "0.5"], [0.5, 0.5], 0.5, 12),
        (["--factor", "0.25", "--count", "6"], [2.0**0.5, 2.0**1.5], 0.25, 6),
    ], ids=["own-scale", "given", "factor-count"])
    def test_each_point_starts_at_its_own_scale(self, tmp_path, monkeypatch, flags, starts,
                                                factor, count):
        # without --eps0 every point's ladder starts at its T^2H, as sweep's
        # does, within one phase_grid call over the whole grid; the first
        # point's scale used to serve the whole grid
        ladders, calls = [], []

        def m1_ladder(eps, cfg):
            ladders.append(list(eps))
            raise ParameterError("stop")

        def counted_phase_grid(*args, **kw):
            calls.append(args[:2])
            return phase_grid(*args, **kw)

        monkeypatch.setattr(quadmoments, "m1_ladder", m1_ladder)
        monkeypatch.setattr(cli, "phase_grid", counted_phase_grid)
        argv = ["phase", "--horizon", "2", "--hurst", "0.25,0.75", "--dim", "2",
                "--out", str(tmp_path / "p.json")]
        assert run_main(argv + flags) == 2
        assert calls == [([0.25, 0.75], [2])]
        want = [[start * factor**k for k in range(count)] for start in starts]
        np.testing.assert_allclose(ladders, want, rtol=1e-12)

    def test_indeterminate_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli, "phase_grid",
            lambda hs, ds, schedule, **kw: [PhaseError(0.5, 2, "tie", "indeterminate")],
        )
        code = run_main(["phase", "--hurst", "0.5", "--dim", "2",
                         "--out", str(tmp_path / "p.json")])
        assert code == 4

    def test_parameter_error_exit_code(self, tmp_path):
        # eps0 * factor underflows to 0, which m1_ladder's range check rejects
        # before any quadrature; the point's "parameter" error used to exit 0
        out = tmp_path / "p.json"
        code = run_main(["phase", "--hurst", "0.5", "--dim", "2", "--eps0", "5e-324",
                         "--out", str(out)])
        assert code == 2
        (row,) = json.loads(out.read_text())["results"]["rows"]
        assert "eps must lie in (0, inf)" in row["error"]
        assert row["nevals"] is None

    def test_sweep_budget_hit_exit_code(self, monkeypatch, tmp_path):
        # a point whose sweep rows all hit their budget used to exit 0
        monkeypatch.setattr(quadmoments, "_M2_MAX_EVALS", 500)
        out = tmp_path / "p.json"
        code = run_main(["phase", "--hurst", "0.5", "--dim", "2", "--count", "5",
                         "--out", str(out)])
        assert code == 3
        (row,) = json.loads(out.read_text())["results"]["rows"]
        assert row["verdict"] is None
        assert "quadrature budget" in row["error"]

    def test_budget_exit_code(self, monkeypatch, tmp_path):
        def boom(eps, cfg, **kw):
            raise QuadratureBudgetError("budget")

        monkeypatch.setattr(cli.quadmoments, "m1", boom)
        code = run_main(["moments", "--hurst", "0.5", "--dim", "2", "--eps", "1",
                         "--out", str(tmp_path / "m.json")])
        assert code == 3


class _Reached(Exception):
    """Stops a command at its first 4D moment pass."""


@pytest.mark.parametrize("argv,want", [
    (["phase", "--horizon", "2", "--tol", "1e-3"], (2.0, 1e-3)),
    (["sweep", "--horizon", "2", "--tol", "1e-3"], (2.0, 1e-3)),
    (["phase"], (1.0, 3e-4)),
], ids=["phase", "sweep", "phase-defaults"])
def test_horizon_and_tol_reach_m2(monkeypatch, tmp_path, argv, want):
    seen = []

    def m2_ladder(eps, cfg, rel_tol, **kw):
        seen.append((cfg.horizon, rel_tol))
        raise _Reached

    monkeypatch.setattr(cli.quadmoments, "m2_ladder", m2_ladder)
    with pytest.raises(_Reached):
        run_main(argv + ["--hurst", "0.5", "--dim", "2", "--out", str(tmp_path / "r.json")])
    assert seen == [want]


class TestSimulateCommand:
    def test_writes_two_csvs(self, tmp_path):
        out = tmp_path / "paths.csv"
        code = run_main(["simulate", "--hurst", "0.75", "--dim", "2", "--grid-n", "8",
                         "--seed", "1", "--out", str(out)])
        assert code == 0
        first = (tmp_path / "paths_first.csv").read_text().splitlines()
        second = (tmp_path / "paths_second.csv").read_text().splitlines()
        assert first[0] == "time,x1,x2"
        assert len(first) == 10
        assert first[1] == "0.0,0.0,0.0"
        assert first != second


    def test_method_writes_child_stream_paths(self, tmp_path):
        # path k is the cholesky draw from child k of SeedSequence(seed).spawn(2)
        code = run_main(["simulate", "--hurst", "0.6", "--dim", "3", "--grid-n", "12",
                         "--seed", "4", "--horizon", "2.0", "--method", "cholesky",
                         "--out", str(tmp_path / "p.csv")])
        assert code == 0
        grid, cfg = TimeGrid(2.0, 12), ModelConfig(0.6, 3, horizon=2.0)
        children = np.random.SeedSequence(4).spawn(2)
        for suffix, child in zip(("first", "second"), children):
            want = io.StringIO(newline="")
            path_to_csv(grid, sample_paths(grid, cfg, child, 1, "cholesky")[0], want)
            with open(tmp_path / f"p_{suffix}.csv", newline="") as fh:
                assert fh.read() == want.getvalue()


class TestVerifyLemmasCommand:
    def test_all_pass(self, tmp_path):
        out = tmp_path / "l.json"
        code = run_main(["verify-lemmas", "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())["results"]["rows"]
        assert {r["suite"] for r in rows} == {
            "gamma_bound", "superadditivity", "homogeneity", "angular_asymptotics"
        }
        assert all(r["passed"] for r in rows)

    def test_failed_check_exits_1(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli.covkernel, "superadditivity_violation", lambda n, rng: 1.0)
        out = tmp_path / "l.json"
        assert run_main(["verify-lemmas", "--out", str(out)]) == 1
        rows = json.loads(out.read_text())["results"]["rows"]
        assert {r["suite"]: r["passed"] for r in rows} == {
            "gamma_bound": True, "superadditivity": False, "homogeneity": True,
            "angular_asymptotics": True,
        }


class TestMainErrorPaths:
    def test_parameter_error_exit_2(self, capsys):
        assert run_main(["estimate", "--dim", "1", "--hurst", "0.5", "--eps", "1"]) == 2
        assert "dim" in capsys.readouterr().err
