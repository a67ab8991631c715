import csv
import io
import json
import math

import pytest

from fbmilt import cli, quadmoments
from fbmilt.errors import ParameterError, QuadratureBudgetError
from fbmilt.phasescan import PhaseError


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

    def test_deterministic_modulo_timestamp(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_main(["moments", "--hurst", "0.3", "--dim", "2", "--eps", "0.5",
                      "--out", str(out)])
            d = json.loads(out.read_text())
            d.pop("timestamp")
            d["config"].pop("out")
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
        # without --grid-n the bias rule gives ceil((16/eps)^(1/2H)) = 16 steps
        out = tmp_path / "e.json"
        code = run_main(["estimate", "--hurst", "0.5", "--dim", "2", "--eps", "1",
                         "--reps", "50", "--out", str(out)] + grid_args)
        assert code == 0
        diagnostics = json.loads(out.read_text())["results"]["diagnostics"]
        assert diagnostics == {"grid_n": n, "pair_sums": 50 * (n + 1) ** 2}


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

    def test_indeterminate_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli, "phase_grid",
            lambda hs, ds, schedule, **kw: [PhaseError(0.5, 2, "tie", "indeterminate")],
        )
        code = run_main(["phase", "--hurst", "0.5", "--dim", "2",
                         "--out", str(tmp_path / "p.json")])
        assert code == 4

    def test_sweep_budget_hit_exit_code(self, monkeypatch, tmp_path):
        # a point whose sweep rows all hit their budget used to exit 0
        monkeypatch.setattr(quadmoments, "_M2_MAX_EVALS", 500)
        out = tmp_path / "p.json"
        code = run_main(["phase", "--hurst", "0.5", "--dim", "2", "--count", "4",
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


class TestMainErrorPaths:
    def test_parameter_error_exit_2(self, capsys):
        assert run_main(["estimate", "--dim", "1", "--hurst", "0.5", "--eps", "1"]) == 2
        assert "dim" in capsys.readouterr().err
