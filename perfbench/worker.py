"""Run one workload's ops in a fresh interpreter, one op at a time.

Started by run.py as ``python3 perfbench/worker.py --workload W --seed S
--seconds T [--trace-ops N]``.  Prints one JSON line per op (its index,
latency and output) and then a summary line; run.py checks the outputs.

Without ``--trace-ops`` the worker runs the workload's stream in a closed
loop, block by block, until the ops' own run time reaches ``--seconds`` (and
at least MIN_OPS ops are done) at the end of a round of blocks (ROUND), so
that every run holds the workload's mix in exact proportions.  Generating inputs and printing outputs happen
between ops and are not timed.  Between ops, evenly over the run's op time,
it times SETUP_PROBES set-up probes, each with a bare interpreter start, and,
before an op once every CAL_EVERY_S of op time, the workload's yardstick
(``workloads.YARDSTICKS``).  With
``--trace-ops N`` it runs each of the first N ops untraced and traced,
reports the per-layer figures, and then runs the census of known misses.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import workloads

SRC = workloads.ROOT / "src"
sys.path.insert(0, str(SRC))

# p90 needs ten samples beyond it.
MIN_OPS = 100
# Untimed ops run before the traced run's timed ones.
WARMUP_OPS = 20
# Blocks in which a workload's mix repeats exactly; a run ends at the end
# of one.  A cli block has two Sampled sources, so its grid steps repeat
# every three blocks.
ROUND = {"spectra": 1, "gamut": 1, "cli": 3}
# Op time between two timings of the yardstick.
CAL_EVERY_S = 0.02


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-ops", type=int, default=0)
    args = parser.parse_args(argv)

    cmf = workloads.load_cmf_columns()
    if args.trace_ops:
        lumenkit = import_lumenkit()
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()  # the set-up's table load is traced too
        lumenkit.default_cmf()
        tracer.uninstall()
        summary = traced_passes(RUNNERS[args.workload](), args, cmf, tracer)
        summary["census"] = census(args.seed, cmf)
    else:
        summary = timed_loop(RUNNERS[args.workload](), args, cmf)
    print(json.dumps({"summary": summary}))


def timed_loop(run, args, cmf):
    busy = 0.0
    count = 0
    first = []
    calibrations = []  # (index of the op that follows, yardstick seconds)
    calibrate_at = 0.0
    blocks = 0
    probes = []
    yardstick, _ = workloads.YARDSTICKS[args.workload]
    for block in workloads.stream(args.workload, args.seed, cmf):
        run.prepare(block)
        for op in block:
            if len(first) < MIN_OPS:
                first.append(op)
            if len(probes) < workloads.SETUP_PROBES and \
                    busy >= len(probes) * args.seconds / workloads.SETUP_PROBES:
                probes.append((workloads.probe(workloads.SETUP_CODE),
                               workloads.probe(workloads.BARE_CODE)))
            if busy >= calibrate_at:
                calibrations.append((count, yardstick()))
                calibrate_at = busy + CAL_EVERY_S
            t0 = time.perf_counter()
            out = run(op)
            latency = time.perf_counter() - t0
            busy += latency
            _emit(count, latency, out)
            count += 1
        blocks += 1
        if busy >= args.seconds and count >= MIN_OPS and blocks % ROUND[args.workload] == 0:
            return {"busy_s": busy, "ops": count, "peak_rss_mb": run.peak_rss_mb(),
                    "inputs_sha256": workloads.inputs_sha256(first),
                    "calibrations": calibrations, "setup_probes": probes}


def traced_passes(run, args, cmf, tracer):
    """Each op runs untraced and traced back to back, in alternating order,
    so that both passes see the same share of a noisy host's slow spells."""
    ops = workloads.ops(args.workload, args.seed, args.trace_ops, cmf)
    run.prepare(ops)
    for op in ops[:WARMUP_OPS]:  # so that neither pass pays first-call costs
        run.in_process(op)
    plain, outs = [], []
    plain_s = traced_s = 0.0
    for i, op in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                out = tracer.run_op(i, run.in_process, op) if traced else run.in_process(op)
                elapsed = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            if traced:
                outs.append(out)
                traced_s += elapsed
            else:
                plain.append(out)
                plain_s += elapsed
    for i, out in enumerate(outs):
        _emit(i, 0.0, out)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(workloads.OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    return {"ops": len(ops), "untraced_s": plain_s, "traced_s": traced_s,
            "identical": plain == outs, "missing_hooks": tracer.missing,
            "stats": dict(tracer.stats), "counts": dict(tracer.counts),
            "inputs_sha256": workloads.inputs_sha256(ops)}


def census(seed, cmf):
    """Outputs of lumenkit on its known misses (see workloads.py), untraced."""
    spectra, gamut, cli = SpectraRunner(), GamutRunner(), CliRunner()
    return {
        "spectra": [[spectra(dict(source, v=v)) for v in workloads.V_MODES]
                    for source in workloads.census_sources()],
        "gamut": [gamut.colorimetry.in_gamut(gamut.colorimetry.Chromaticity(x, y), gamut.cmf)
                  for x, y in workloads.census_targets(seed, cmf)],
        "cli": [cli.in_process(op)["code"] for op in workloads.census_cli(seed)],
    }


def import_lumenkit():
    import lumenkit
    if not lumenkit.__file__.startswith(str(SRC)):
        sys.exit(f"lumenkit imported from {lumenkit.__file__}, not from {SRC}")
    return lumenkit


def _emit(index, latency, out):
    sys.stdout.write(json.dumps({"i": index, "lat": latency, "out": out}) + "\n")


def _error(exc):
    return {"error": f"{type(exc).__name__}: {exc}"}


class _Runner:
    def prepare(self, ops):
        """Make what a batch of ops reads from disk; not timed."""

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpectraRunner(_Runner):
    """per(...) plus chromaticity(tristimulus(...)) for one source."""

    def __init__(self):
        import_lumenkit()
        import numpy
        from lumenkit import colorimetry, photometry, spectral
        self.array = numpy.array
        self.colorimetry, self.photometry, self.spectral = colorimetry, photometry, spectral
        self.cmf = colorimetry.default_cmf()
        self.v = {"photopic": photometry.PHOTOPIC, "scotopic": photometry.SCOTOPIC,
                  "tabulated": photometry.Tabulated.from_cmf(self.cmf)}

    def __call__(self, op):
        s = self.spectral
        kind = op["kind"]
        bounds = (380.0, 780.0) if kind in ("gaussian", "line") else (None, None)
        try:
            if kind == "planck":
                model = s.Planck(op["t"])
            elif kind == "truncated_planck":
                model = s.TruncatedPlanck(op["t"], op["lo"], op["hi"])
            elif kind == "flat":
                model = s.Flat(op["lo"], op["hi"])
            elif kind == "gaussian":
                model = s.Gaussian(op["peak"], op["width"])
            elif kind == "line":
                model = s.Line(op["lam"])
            else:
                model = s.Sampled(s.SampledSpectrum(self.array(op["wl"]), self.array(op["p"])))
            per = self.photometry.per(model, self.v[op["v"]], 683.0, *bounds).per
            xy = self.colorimetry.chromaticity(self.colorimetry.tristimulus(model, self.cmf, 683.0))
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            return _error(exc)
        return {"per": per, "x": xy.x, "y": xy.y}

    in_process = __call__


class GamutRunner(_Runner):
    """in_gamut, then max_per when the target is inside."""

    def __init__(self):
        import_lumenkit()
        from lumenkit import colorimetry, maxper
        self.colorimetry, self.maxper = colorimetry, maxper
        self.cmf = colorimetry.default_cmf()

    def __call__(self, op):
        try:
            target = self.colorimetry.Chromaticity(op[0], op[1])
            if not self.colorimetry.in_gamut(target, self.cmf):
                return {"inside": False}
            solution = self.maxper.max_per(target, self.cmf, 683.0)
        except Exception as exc:
            return _error(exc)
        return {"inside": True, "status": solution.status, "value": solution.objective_value}

    in_process = __call__


class CliRunner(_Runner):
    """One ``lumen`` invocation as a subprocess, from the checkout root.

    The timed loop does not import lumenkit or numpy here, so that the
    children's peak memory is their own."""

    def __init__(self):
        self.env = {k: v for k, v in os.environ.items() if k != "LUMEN_CMF_PATH"}
        self.env["PYTHONPATH"] = str(SRC)

    def prepare(self, ops):
        for op in ops:
            for rel, text in op["files"].items():
                path = workloads.ROOT / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")

    def __call__(self, op):
        proc = subprocess.run([sys.executable, "-m", "lumenkit", *op["argv"]],
                              cwd=workloads.ROOT, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return {"code": proc.returncode, "stdout": proc.stdout}

    def in_process(self, op):
        """The same invocation through ``lumenkit.cli.main`` in this process."""
        import lumenkit.cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = lumenkit.cli.main(list(op["argv"]))
            except Exception:  # the interpreter would print it and exit 1
                code = 1
        return {"code": code, "stdout": out.getvalue()}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


RUNNERS = {"spectra": SpectraRunner, "gamut": GamutRunner, "cli": CliRunner}

if __name__ == "__main__":
    os.chdir(workloads.ROOT)
    main()
