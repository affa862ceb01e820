"""Per-layer tracing of lumenkit from outside the package.

``from .x import f`` binds ``f`` in the importing module when it is loaded,
so a layer is hooked by rebinding its function in every module that calls
it, not only where it is defined.  Each hook times the call and charges the
time of hooked calls beneath it to them, which gives every layer its self
time.  A hooked call also costs its caller some time outside the callee's
own timed window, and so does each counted integrand evaluation; both costs
are measured once per tracer (``calibrate``) and taken out of the caller's
self time, so that a layer's self time does not grow with the number of
hooked calls it makes.  Total times still include that cost.  Hot leaves
(spectrum density, eye response, CMF interpolation) are aggregated into call
counts and time only; every other call, and each op of the benchmark, is
also recorded as a span (name, start, end, parent, op id).
Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import lumenkit.cli
import lumenkit.colorimetry
import lumenkit.maxper
import lumenkit.photometry
import lumenkit.quadrature
import lumenkit.spectral

_M = {"spectral": lumenkit.spectral, "quadrature": lumenkit.quadrature,
      "photometry": lumenkit.photometry,
      "colorimetry": lumenkit.colorimetry, "maxper": lumenkit.maxper, "cli": lumenkit.cli}

# (layer name, defining module, function, modules that call it through their
# own binding, aggregate-only).  The benchmark itself calls per, tristimulus,
# in_gamut, max_per and cli.main through these module attributes.
HOOKS = (
    ("spectral.evaluate_spectrum", "spectral", "evaluate_spectrum",
     ("photometry", "colorimetry"), True),
    ("quadrature.integrate", "quadrature", "integrate", ("photometry", "colorimetry"), False),
    ("quadrature.spline_fit", "quadrature", "spline_fit", ("spectral",), False),
    ("photometry.per", "photometry", "per", ("photometry", "cli"), False),
    ("photometry.luminosity", "photometry", "luminosity", ("photometry", "cli"), True),
    ("photometry.compute_km", "photometry", "compute_km", ("photometry", "cli"), False),
    ("colorimetry.CmfTable.interp", "colorimetry", "CmfTable.interp", ("colorimetry",), True),
    ("colorimetry.tristimulus", "colorimetry", "tristimulus", ("colorimetry", "cli"), False),
    ("colorimetry.planckian_locus", "colorimetry", "planckian_locus", ("colorimetry",), False),
    ("colorimetry.in_gamut", "colorimetry", "in_gamut", ("colorimetry", "maxper"), False),
    ("colorimetry.load_cmf", "colorimetry", "load_cmf", ("colorimetry", "cli"), False),
    ("maxper.build_problem", "maxper", "build_problem", ("maxper",), False),
    ("maxper.simplex_solve", "maxper", "simplex_solve", ("maxper",), False),
    ("maxper.max_per", "maxper", "max_per", ("maxper", "cli"), False),
    ("maxper.iso_per_scan", "maxper", "iso_per_scan", ("maxper", "cli"), False),
    ("cli.main", "cli", "main", ("cli",), False),
)


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, self_s, total_s
        self.counts = Counter()
        self.spans = []
        self.missing = []  # hook sites that no longer hold the layer's function
        self.op_id = None
        self._frames = [[0.0]]  # time of hooked callees, per open call
        self._open_spans = [None]
        self._saved = []
        # Seconds a caller pays per hooked call outside the callee's window
        # (by aggregate-only or not) and per counted integrand evaluation.
        self.hook_cost = {True: 0.0, False: 0.0}
        self.count_cost = 0.0
        self.calibrate()

    def calibrate(self, n=20000, repeats=7):
        """Measure hook_cost and count_cost, each from the best of ``repeats``
        loops of ``n`` calls, since a busy host only adds time."""
        def noop(*_):
            return None

        def best_s(body, windows=None):
            """Best time of ``body`` less the time it spent inside the
            hooked callee's windows, as ``windows`` records them."""
            best = float("inf")
            for _ in range(repeats):
                inside = windows[2] if windows else 0.0
                t0 = time.perf_counter()
                body()
                spent = time.perf_counter() - t0
                best = min(best, spent - ((windows[2] - inside) if windows else 0.0))
            return best

        def calls(fn):
            def body():
                for _ in range(n):
                    fn()
            return body

        def empty():
            for _ in range(n):
                pass

        def integrate(f):  # stands in for quadrature.integrate
            for _ in range(n):
                f(0.0)

        loop_s = best_s(empty)
        for leaf in (True, False):
            hooked = self._hook("calibration", noop, leaf)
            outside = best_s(calls(hooked), self.stats["calibration"])
            self.stats.pop("calibration")
            self.hook_cost[leaf] = max(0.0, (outside - loop_s) / n)
        counting = self._counting_integrate(integrate)
        extra = best_s(lambda: counting(noop)) - best_s(lambda: integrate(noop))
        self.count_cost = max(0.0, extra / n)
        self.spans.clear()
        self.counts.clear()
        self._frames[:] = [[0.0]]

    def install(self):
        self.missing = []
        for name, home, func, callers, leaf in HOOKS:
            owner, attr = _owner(_M[home], func)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{home}.{func}")
                continue
            inner = original
            if func == "integrate":
                inner = self._counting_integrate(original)
            elif func == "simplex_solve":
                inner = self._after(original, "maxper.simplex_solve.optimal",
                                    lambda r: r.status == "optimal")
            elif func == "in_gamut":
                inner = self._after(original, "colorimetry.in_gamut.inside", bool)
            hooked = self._hook(name, inner, leaf)
            for caller in callers:
                owner, attr = _owner(_M[caller], func)
                current = getattr(owner, attr, None)
                if current is not original:
                    self.missing.append(f"{caller}.{func}")
                    continue
                self._saved.append((owner, attr, current))
                setattr(owner, attr, hooked)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_op(self, op_id, fn, *args):
        """Run one benchmark op under its own root span."""
        self.op_id = op_id
        try:
            return self._hook("op", fn, False)(*args)
        finally:
            self.op_id = None

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, f)

    def _hook(self, name, fn, leaf):
        stats = self.stats[name]
        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter
        cost = self.hook_cost[leaf]

        def hooked(*args, **kwargs):
            below = [0.0]
            frames.append(below)
            if not leaf:
                index = len(spans)
                spans.append(None)
                open_spans.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed - below[0]
                stats[2] += elapsed
                frames[-1][0] += elapsed + cost
                if not leaf:
                    open_spans.pop()
                    spans[index] = (name, start, end, open_spans[-1], self.op_id)
        return hooked

    def _counting_integrate(self, integrate):
        """``integrate`` with its integrand wrapped to count evaluations.  It
        runs inside integrate's hook, so the wrapper's calibrated cost can be
        added to the time below integrate and kept out of its self time."""
        counts = self.counts
        frames = self._frames

        def hooked(f, *args, **kwargs):
            evals = 0

            def counted(x):
                nonlocal evals
                evals += 1
                return f(x)
            try:
                return integrate(counted, *args, **kwargs)
            finally:
                counts["quadrature.integrand_evals"] += evals
                frames[-1][0] += evals * self.count_cost
        return hooked

    def _after(self, fn, counter, predicate):
        counts = self.counts

        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[counter] += bool(predicate(result))
            return result
        return hooked


def _owner(module, func):
    """The object holding ``func`` (a class for methods) and the attribute."""
    if "." in func:
        cls, attr = func.split(".")
        return getattr(module, cls), attr
    return module, func
