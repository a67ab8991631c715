"""Outside-in tracing of the fbmilt layers for the benchmark.

The library is not instrumented.  Instead, ``install`` replaces, for the
duration of a ``with`` block, the module attributes through which each
layer is reached at call time, and restores every one of them on exit:

* ``fbmilt.iltmc.sample_pair`` and ``fbmilt.iltmc.gauss_weight_sum``.
  ``iltmc`` bound both with ``from ... import``, so wrapping
  ``fbmgen.sample_pair`` or ``_backend.gauss_weight_sum`` would miss them.
* ``fbmilt.iltmc.mc_moments``, which the benchmark calls through that name.
* ``fbmilt.cubature.integrate``.  Its integrand is wrapped too, so the
  time spent in the integrand can be told apart from driver bookkeeping.
* ``fbmilt.quadmoments.<fn>``.  ``quadmoments`` and ``phasescan`` look
  these up as module globals or attributes at call time, so internal
  calls (``reduction_bound`` -> ``a_z``) are seen as well.
* ``fbmilt.phasescan.sweep`` and ``fbmilt.phasescan.classify``.

Spans are kept in memory as ``[name, parent, start, end, counts]`` and
turned into per-layer metrics after the run.  Wrappers only observe
arguments and results, so traced outputs equal untraced ones bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

OP_SPAN = "bench.op"
QUAD_FNS = ("m1", "m2", "cauchy_gap", "a_z", "reduction_bound", "var_limit", "a_t_integral")

NAME, PARENT, START, END, COUNTS = range(5)


class Tracer:
    """In-memory span recorder for one single-threaded caller."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name):
        rec = [name, self._stack[-1] if self._stack else -1, self.clock(), None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        self._stack.pop()
        rec[END] = self.clock()

    def wrap(self, name, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(args, kwargs, result)``
        returns a dict of counters stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[COUNTS] = count(args, kwargs, out)
            return out

        return traced


def _kernel_counts(args, kwargs, out):
    x, y = args[0], args[1]
    return {"pairs": len(x) * len(y)}


def _cubature_counts(args, kwargs, out):
    return {
        "nevals": out.nevals,
        "ncells": out.ncells,
        "nonconverged": int(out.status != "converged"),
    }


def _classify_counts(args, kwargs, out):
    rows = len(out.evidence.rows)
    return {"rows": rows, "extra_rows": rows - len(args[0].rows)}


def _wrap_integrate(tracer, integrate):
    def integrate_with_traced_integrand(f, *args, **kwargs):
        return integrate(tracer.wrap("cubature.integrand", f), *args, **kwargs)

    functools.update_wrapper(integrate_with_traced_integrand, integrate)
    return tracer.wrap("cubature.integrate", integrate_with_traced_integrand, _cubature_counts)


def targets(tracer):
    """(module name, attribute, factory of the traced replacement)."""
    out = [
        ("fbmilt.iltmc", "sample_pair",
         lambda fn: tracer.wrap("fbmgen.sample_pair", fn)),
        ("fbmilt.iltmc", "gauss_weight_sum",
         lambda fn: tracer.wrap("iltmc.gauss_weight_sum", fn, _kernel_counts)),
        ("fbmilt.iltmc", "mc_moments",
         lambda fn: tracer.wrap("iltmc.mc_moments", fn)),
        ("fbmilt.cubature", "integrate",
         lambda fn: _wrap_integrate(tracer, fn)),
        ("fbmilt.phasescan", "sweep",
         lambda fn: tracer.wrap("phasescan.sweep", fn)),
        ("fbmilt.phasescan", "classify",
         lambda fn: tracer.wrap("phasescan.classify", fn, _classify_counts)),
    ]
    for name in QUAD_FNS:
        out.append(("fbmilt.quadmoments", name,
                    lambda fn, name=name: tracer.wrap(f"quadmoments.{name}", fn)))
    return out


@contextlib.contextmanager
def install(tracer):
    """Swap in the traced replacements; restore every original on exit."""
    saved = []
    try:
        for module_name, attr, factory in targets(tracer):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans):
    """Duration minus the time covered by direct children, per span.

    Children of one single-threaded caller nest inside their parent and
    do not overlap, so the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, covered)]


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, passes):
    """Per-layer metrics per traced pass (counts and seconds divided by
    ``passes``; ratios are ratios).  A layer that did no work reports 0."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    secs = defaultdict(float)
    self_s = defaultdict(float)
    totals = defaultdict(lambda: defaultdict(float))  # span name -> counter sums
    below = defaultdict(lambda: defaultdict(float))   # ancestor name -> integrate counters
    for i, rec in enumerate(spans):
        name = rec[NAME]
        calls[name] += 1
        secs[name] += rec[END] - rec[START]
        self_s[name] += selfs[i]
        for key, value in (rec[COUNTS] or {}).items():
            totals[name][key] += value
        if name == "cubature.integrate":
            seen = set()
            parent = rec[PARENT]
            while parent >= 0:
                anc = spans[parent][NAME]
                if anc not in seen:
                    seen.add(anc)
                    for key, value in rec[COUNTS].items():
                        below[anc][key] += value
                parent = spans[parent][PARENT]

    p = float(passes)
    op_s = secs[OP_SPAN]
    integ = totals["cubature.integrate"]
    m = {}
    m["fbmgen.sample_pair.calls"] = calls["fbmgen.sample_pair"] / p
    m["fbmgen.sample_pair.s"] = secs["fbmgen.sample_pair"] / p
    m["fbmgen.paths_per_s"] = _ratio(2 * calls["fbmgen.sample_pair"], secs["fbmgen.sample_pair"])
    m["fbmgen.share"] = _ratio(secs["fbmgen.sample_pair"], op_s)

    m["iltmc.mc_moments.s"] = secs["iltmc.mc_moments"] / p
    m["iltmc.mc_moments.self_s"] = self_s["iltmc.mc_moments"] / p
    m["iltmc.gauss_weight_sum.calls"] = calls["iltmc.gauss_weight_sum"] / p
    m["iltmc.gauss_weight_sum.s"] = secs["iltmc.gauss_weight_sum"] / p
    m["iltmc.gauss_weight_sum.share"] = _ratio(secs["iltmc.gauss_weight_sum"], op_s)
    pairs = totals["iltmc.gauss_weight_sum"]["pairs"]
    m["iltmc.kernel_pairs"] = pairs / p
    m["iltmc.kernel_pairs_per_s"] = _ratio(pairs, secs["iltmc.gauss_weight_sum"])

    n_int = calls["cubature.integrate"]
    int_s = secs["cubature.integrate"]
    driver_s = int_s - secs["cubature.integrand"]
    m["cubature.integrate.calls"] = n_int / p
    m["cubature.integrate.s"] = int_s / p
    m["cubature.integrand_s"] = secs["cubature.integrand"] / p
    m["cubature.driver_s"] = driver_s / p
    m["cubature.driver_share"] = _ratio(driver_s, int_s)
    m["cubature.nevals"] = integ["nevals"] / p
    m["cubature.ncells"] = integ["ncells"] / p
    m["cubature.evals_per_s"] = _ratio(integ["nevals"], int_s)
    m["cubature.evals_per_call"] = _ratio(integ["nevals"], n_int)
    m["cubature.nonconverged"] = integ["nonconverged"] / p
    m["cubature.converged_share"] = _ratio(n_int - integ["nonconverged"], n_int)

    for fn in QUAD_FNS:
        name = f"quadmoments.{fn}"
        m[f"{name}.calls"] = calls[name] / p
        m[f"{name}.s"] = secs[name] / p
        m[f"{name}.nevals"] = below[name]["nevals"] / p
        m[f"{name}.nonconverged"] = below[name]["nonconverged"] / p

    rows = totals["phasescan.classify"]["rows"]
    m["phasescan.sweep.s"] = secs["phasescan.sweep"] / p
    m["phasescan.classify.s"] = secs["phasescan.classify"] / p
    m["phasescan.rows"] = rows / p
    m["phasescan.extra_rows"] = totals["phasescan.classify"]["extra_rows"] / p
    m["phasescan.nevals_per_row"] = _ratio(
        below["phasescan.sweep"]["nevals"] + below["phasescan.classify"]["nevals"], rows)
    return m


_RATE_UNITS = {
    "fbmgen.paths_per_s": "paths/s",
    "iltmc.kernel_pairs_per_s": "pairs/s",
    "cubature.evals_per_s": "evals/s",
}


def unit(name):
    """Unit of the per-layer metric ``name``."""
    if name in _RATE_UNITS:
        return _RATE_UNITS[name]
    if name.endswith("share"):
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"
