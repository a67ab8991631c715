"""Command-line front end.

Subcommands: simulate, estimate, moments, sweep, phase, verify-lemmas.
Each subcommand takes only the flags it reads.  Flag values override
config-file values override defaults; the config file is flat
``key = value`` lines with ``#`` comments and may set any field.  Reports are JSON
(stable schema, floats serialized round-trip exact) or CSV for sweeps; a
sweep row's keys and CSV columns are the fields of phasescan.SweepRow.
An unset --tol leaves each tolerance at its library default.

Exit codes: 0 success, 1 a verify-lemmas check failed, then one per error
kind of errors.KINDS: 2 parameter error, 3 quadrature budget exhausted,
4 indeterminate classification.  A phase run exits with the highest code
among its points.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import __version__, covkernel, quadmoments
from .covkernel import ModelConfig, _check_int, _check_range
from .errors import KINDS, ParameterError
from .fbmgen import TimeGrid, path_to_csv, sample_pair
from .iltmc import discrete_mean, grid_for_eps, mc_moments
from .phasescan import MIN_ROWS, EpsSchedule, PhaseError, SweepRow, phase_grid, sweep

__all__ = ["RunConfig", "parse_args", "run", "main"]

COMMANDS = ("simulate", "estimate", "moments", "sweep", "phase", "verify-lemmas")
_EXIT_CODES = {"parameter": 2, "budget": 3, "indeterminate": 4}


@dataclass
class RunConfig:
    command: str
    hurst: List[float]
    dim: List[int]
    horizon: float = 1.0
    eps: Optional[float] = None
    eps0: Optional[float] = EpsSchedule.eps0
    factor: float = EpsSchedule.factor
    count: int = EpsSchedule.count
    reps: Optional[int] = None
    grid_n: Optional[int] = None
    seed: int = 0
    method: str = "circulant"
    tol: Optional[float] = None
    workers: int = 1
    out: Optional[str] = None
    format: str = "json"

    def model(self) -> ModelConfig:
        if len(self.hurst) != 1 or len(self.dim) != 1:
            raise ParameterError(
                f"command {self.command!r} takes a single hurst and dim value"
            )
        return ModelConfig(hurst=self.hurst[0], dim=self.dim[0], horizon=self.horizon)


def _floats(text):
    return [float(x) for x in str(text).split(",")]


def _ints(text):
    return [int(x) for x in str(text).split(",")]


class _Field(NamedTuple):
    parse: Callable
    commands: Tuple[str, ...]
    choices: Optional[Tuple[str, ...]] = None
    help: Optional[str] = None


_MODEL = ("simulate", "estimate", "moments", "sweep", "phase")
_SAMPLING = ("simulate", "estimate", "sweep")

# every RunConfig field a flag or a config line sets: its parser, the
# subcommands that read it, and its choices; a flag is offered only to
# the subcommands that read it, while a config file may hold any field
_FIELDS = {
    "hurst": _Field(_floats, _MODEL, help="Hurst parameter in (0,1); comma list for phase"),
    "dim": _Field(_ints, _MODEL, help="dimension >= 2; comma list for phase"),
    "horizon": _Field(float, _MODEL),
    "eps": _Field(float, ("estimate", "moments")),
    "eps0": _Field(float, ("sweep", "phase")),
    "factor": _Field(float, ("sweep", "phase")),
    "count": _Field(int, ("sweep", "phase")),
    "reps": _Field(int, ("estimate", "sweep")),
    "grid_n": _Field(int, _SAMPLING),
    "seed": _Field(int, _SAMPLING + ("verify-lemmas",)),
    "method": _Field(str, _SAMPLING, ("cholesky", "circulant")),
    "tol": _Field(float, ("moments", "sweep", "phase")),
    "workers": _Field(int, ("estimate", "sweep")),
    "out": _Field(str, COMMANDS),
    "format": _Field(str, ("sweep",), ("json", "csv")),
}
# flags that sweep reads only for its Monte Carlo column, so only with reps
_SWEEP_MC_FLAGS = ("grid_n", "seed", "method", "workers")


def _flag(name):
    return "--" + name.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmilt",
        description="Intersection local time of two fractional Brownian motions: "
        "simulation, Monte Carlo estimation, moment quadrature, phase classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command in COMMANDS:
        p = sub.add_parser(command)
        for name, field in _FIELDS.items():
            if command in field.commands:
                p.add_argument(_flag(name), dest=name, type=field.parse,
                               choices=field.choices, default=None, help=field.help)
        p.add_argument("--config", type=str, default=None)
    return parser


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _FIELDS:
                raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
            field = _FIELDS[key]
            try:
                values[key] = field.parse(val.strip())
            except ValueError as exc:
                raise ParameterError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
            if field.choices and values[key] not in field.choices:
                raise ParameterError(f"{path}:{lineno}: {key} must be one of "
                                     f"{', '.join(field.choices)}, got {values[key]!r}")
    return values


def parse_args(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    file_values = _load_config_file(ns.config) if ns.config else {}
    rc = RunConfig(command=ns.command, hurst=[0.5], dim=[2])
    flags = {name for name in _FIELDS if getattr(ns, name, None) is not None}
    for name in _FIELDS:
        if name in flags:
            setattr(rc, name, getattr(ns, name))
        elif name in file_values:
            setattr(rc, name, file_values[name])
    unread = [_flag(name) for name in _SWEEP_MC_FLAGS if name in flags]
    if rc.command == "sweep" and rc.reps is None and unread:
        raise ParameterError(f"reps: sweep reads {', '.join(unread)} only with --reps")
    _validate(rc)
    return rc


def _validate(rc: RunConfig) -> None:
    for h in rc.hurst:
        for d in rc.dim:
            ModelConfig(h, d, rc.horizon)
    # every float lands in the report's config, which JSON cannot give nan or inf
    for name, field in _FIELDS.items():
        value = getattr(rc, name)
        if field.parse is float and value is not None:
            _check_range(name, value, -math.inf)
    if rc.tol is not None:
        _check_range("tol", rc.tol, 0.0)
    if rc.command in ("estimate", "moments"):
        _check_range("eps", rc.eps, 0.0, closed=rc.command == "moments")
    if rc.grid_n is not None:
        _check_int("grid_n", rc.grid_n, 1)
    if rc.reps is not None:
        _check_int("reps", rc.reps, 2)
    _check_int("seed", rc.seed, 0)
    _check_int("workers", rc.workers, 1)
    if rc.command == "phase":
        _check_int("count", rc.count, MIN_ROWS)


# ---------------------------------------------------------------------------
# serialization

def _num(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _quad_dict(res) -> dict:
    shells = None
    if res.shells is not None:
        shells = [{"width": _num(w), "value": _num(s.value), "error": _num(s.error_estimate),
                   "status": s.status} for w, s in zip(res.shell_widths, res.shells)]
    return {
        "value": _num(res.value),
        "error": _num(res.error_estimate),
        "diverged": bool(res.diverged),
        "evidence": res.divergence_evidence,
        "status": res.status,
        "nevals": res.nevals,
        "cells": res.subdivisions,
        "seconds": res.seconds,
        "shells": shells,
        "shell_rate": _num(res.shell_rate),
        "radial_exponent": _num(res.radial_exponent),
    }


def _report(rc: RunConfig, results: dict) -> dict:
    base = {"m1": None, "m2": None, "variance": None, "mc": None,
            "verdict": None, "rows": None, "diagnostics": None}
    base.update(results)
    return {
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": asdict(rc),
        "results": base,
    }


def _emit(rc: RunConfig, report: dict, csv_rows=None) -> None:
    if rc.format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, [f.name for f in fields(SweepRow)])
        writer.writeheader()
        writer.writerows(csv_rows)  # None as "", a float as its repr
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if rc.out:
        with open(rc.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _say(rc: RunConfig, message: str) -> None:
    """One-line summary; kept off stdout when the report itself goes there."""
    stream = sys.stderr if rc.out is None and rc.command != "simulate" else sys.stdout
    print(message, file=stream)


# ---------------------------------------------------------------------------
# subcommand runners

def _run_simulate(rc: RunConfig) -> int:
    cfg = rc.model()
    n = 256 if rc.grid_n is None else rc.grid_n
    grid = TimeGrid(horizon=rc.horizon, n_steps=n)
    pair = sample_pair(grid, cfg, rc.seed, method=rc.method)
    if rc.out:
        stem = rc.out[:-4] if rc.out.endswith(".csv") else rc.out
        for suffix, values in zip(("first", "second"), pair):
            with open(f"{stem}_{suffix}.csv", "w", newline="") as fh:
                path_to_csv(grid, values, fh)
        where = f"written to {stem}_first.csv, {stem}_second.csv"
    else:
        where = "not written (no --out)"
    _say(rc, f"simulate: pair of fBm paths, H={cfg.hurst} d={cfg.dim} n={n} "
             f"seed={rc.seed}; {where}")
    return 0


def _run_estimate(rc: RunConfig) -> int:
    cfg = rc.model()
    reps = rc.reps or 1000
    r1 = quadmoments.m1(rc.eps, cfg)
    n = grid_for_eps(rc.eps, cfg, m1=r1) if rc.grid_n is None else rc.grid_n
    grid = TimeGrid(horizon=rc.horizon, n_steps=n)
    est = mc_moments(cfg, rc.eps, grid, replications=reps, seed=rc.seed,
                     method=rc.method, workers=rc.workers)
    exact = discrete_mean(cfg, rc.eps, grid)
    report = _report(rc, {
        "mc": {
            "mean": _num(est.mean), "se": _num(est.se_mean),
            "reps": est.replications,
            "second_moment": _num(est.second_moment),
            "se_second": _num(est.se_second),
            "variance": _num(est.variance),
        },
        "diagnostics": {
            "grid_n": est.grid_n, "pair_sums": est.pair_sums,
            "discrete_mean": _num(exact),
            "discretization_bias": {"value": _num(exact - r1.value),
                                    "error": _num(r1.error_estimate)},
        },
    })
    _emit(rc, report)
    _say(rc, f"estimate: E[I_eps] ~ {est.mean:.6g} +/- {est.se_mean:.2g} "
             f"(eps={rc.eps}, reps={reps}, n={n})")
    return 0


def _run_moments(rc: RunConfig) -> int:
    cfg = rc.model()
    r1 = quadmoments.m1(rc.eps, cfg, rel_tol=rc.tol)
    results = {"m1": _quad_dict(r1)}
    summary = f"moments: m1={r1.value:.6g}"
    if rc.eps > 0.0:
        r2 = quadmoments.m2(rc.eps, cfg, rel_tol=rc.tol)
        variance = r2.value - r1.value**2
        results["m2"] = _quad_dict(r2)
        results["variance"] = _num(variance)
        summary += f" m2={r2.value:.6g} variance={variance:.6g}"
    if r1.diverged:
        summary += " (m1 diverged)"
    _emit(rc, _report(rc, results))
    _say(rc, summary + f" (eps={rc.eps}, H={cfg.hurst}, d={cfg.dim})")
    return 0


def _row_dict(row: SweepRow) -> dict:
    return {k: _num(v) if isinstance(v, float) else v for k, v in asdict(row).items()}


def _run_sweep(rc: RunConfig) -> int:
    cfg = rc.model()
    mc_params = None if rc.reps is None else {
        "replications": rc.reps, "seed": rc.seed, "method": rc.method,
        "workers": rc.workers, "grid_n": rc.grid_n}
    series = sweep(cfg, EpsSchedule(rc.eps0, rc.factor, rc.count), mc_params=mc_params,
                   quad_rel_tol=rc.tol)
    rows = [_row_dict(r) for r in series.rows]
    report = _report(rc, {"rows": rows, "diagnostics": {"nevals": series.nevals}})
    _emit(rc, report, csv_rows=rows)
    incomplete = sum(1 for r in series.rows if not r.complete)
    _say(rc, f"sweep: {len(rows)} rows, eps {rows[0]['eps']:.3g} .. {rows[-1]['eps']:.3g}, "
             f"{incomplete} incomplete (H={cfg.hurst}, d={cfg.dim})")
    return _EXIT_CODES["budget"] if incomplete else 0


def _run_phase(rc: RunConfig) -> int:
    points = phase_grid(rc.hurst, rc.dim, EpsSchedule(rc.eps0, rc.factor, rc.count),
                        horizon=rc.horizon, quad_rel_tol=rc.tol)
    rows = []
    summaries = []
    status = 0
    for pt in points:
        if isinstance(pt, PhaseError):
            rows.append({"hurst": pt.hurst, "dim": pt.dim, "verdict": None,
                         "fitted_rate": None, "nevals": None, "error": pt.message})
            summaries.append(f"H={pt.hurst} d={pt.dim}: error ({pt.kind})")
            status = max(status, _EXIT_CODES[pt.kind])
        else:
            rows.append({"hurst": pt.hurst, "dim": pt.dim, "verdict": pt.verdict,
                         "fitted_rate": _num(pt.fitted_rate), "nevals": pt.evidence.nevals,
                         "error": None})
            summaries.append(f"H={pt.hurst} d={pt.dim}: {pt.verdict}")
    verdict = rows[0]["verdict"] if len(rows) == 1 else None
    _emit(rc, _report(rc, {"rows": rows, "verdict": verdict}))
    _say(rc, "phase: " + "; ".join(summaries))
    return status


def _run_verify_lemmas(rc: RunConfig) -> int:
    worst, checks = covkernel.gamma_bound_excess()
    violation = covkernel.superadditivity_violation(100_000, np.random.default_rng(rc.seed))
    mismatch = covkernel.homogeneity_mismatch(10_000, np.random.default_rng(rc.seed))
    ratios = {h: covkernel.angular_ratios(h) for h in covkernel.LEMMA_HURSTS}
    suites = {
        "gamma_bound": (worst <= 0.0, f"{checks} checks, worst excess {worst:.3e}"),
        "superadditivity": (violation <= 1e-12, f"worst normalized violation {violation:.3e}"),
        "homogeneity": (mismatch <= 1e-9, f"worst relative mismatch {mismatch:.3e}"),
        "angular_asymptotics": (
            all(0.9 <= r <= 1.1 for pair in ratios.values() for r in pair),
            "ratios to theta^2H at both endpoints: "
            + "; ".join(f"H={h}: {lo:.4f}/{hi:.4f}" for h, (lo, hi) in ratios.items()),
        ),
    }
    report = _report(rc, {"rows": [
        {"suite": name, "passed": passed, "detail": detail}
        for name, (passed, detail) in suites.items()
    ]})
    _emit(rc, report)
    all_pass = all(passed for passed, _ in suites.values())
    line = ", ".join(f"{k}={'pass' if v[0] else 'FAIL'}" for k, v in suites.items())
    _say(rc, f"verify-lemmas: {line}")
    return 0 if all_pass else 1


_RUNNERS = {
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "moments": _run_moments,
    "sweep": _run_sweep,
    "phase": _run_phase,
    "verify-lemmas": _run_verify_lemmas,
}


def run(rc: RunConfig) -> int:
    return _RUNNERS[rc.command](rc)


def main(argv=None) -> int:
    try:
        rc = parse_args(sys.argv[1:] if argv is None else argv)
        return run(rc)
    except tuple(KINDS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[KINDS[type(exc)]]


if __name__ == "__main__":
    sys.exit(main())
