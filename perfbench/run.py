"""lumenkit benchmark: three seeded workloads, checked against references.

    python3 perfbench/run.py --workload {spectra,gamut,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/lumenkit``.  One client runs
ops in a closed loop in a worker process (see worker.py), with BLAS pinned
to one thread.  Every op's output is then checked against a reference that
does not use lumenkit (reference.py); an op fails on an unexpected
exception, a wrong exit code or an output outside tolerance.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (tracer.py).  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

# The worker is started before this process imports numpy or scipy: a
# child's peak-memory figure starts from its parent's.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LUMEN_CMF_PATH", None)

HERE = workloads.ROOT / "perfbench"
SRC = workloads.ROOT / "src"

# Yardstick timings whose median gives the host's speed around an op.
CAL_WINDOW = 9
# Ops in the traced run; fixed so that its counts repeat exactly per seed.
TRACE_OPS = {"spectra": 60, "gamut": 4000, "cli": 60}
# Gamut targets per run also solved by linprog, to check the envelope.
LP_CROSS_CHECKS = 200

END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Layer metrics from the tracer's (calls, self_s, total_s) per hooked function.
LAYER_STATS = (
    ("spectral.evaluate_spectrum", ("calls", "self_s")),
    ("quadrature.integrate", ("calls", "self_s")),
    ("quadrature.spline_fit", ("calls", "self_s")),
    ("photometry.per", ("calls", "self_s", "total_s")),
    ("photometry.luminosity", ("calls", "self_s")),
    ("colorimetry.CmfTable.interp", ("calls", "self_s")),
    ("colorimetry.tristimulus", ("calls", "self_s", "total_s")),
    ("colorimetry.planckian_locus", ("total_s",)),
    ("maxper.build_problem", ("calls", "self_s")),
    ("maxper.simplex_solve", ("calls", "self_s")),
    ("maxper.iso_per_scan", ("total_s",)),
    ("colorimetry.in_gamut", ("calls", "self_s")),
    ("colorimetry.load_cmf", ("calls", "self_s")),
    ("photometry.compute_km", ("total_s",)),
    ("cli.main", ("total_s", "self_s")),
)
_FIELDS = {"calls": 0, "self_s": 1, "total_s": 2}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lumenkit" / "__init__.py").is_file() or not workloads.CMF_CSV.is_file():
        print(f"error: no lumenkit sources under {SRC}", file=sys.stderr)
        return 2

    report = traced_run(args) if args.trace else timed_run(args)
    for line in report.pop("notes"):
        print(line)
    print(json.dumps(report))
    return 0


def timed_run(args):
    lines, summary = run_worker(args)
    probes = summary["setup_probes"]
    setup_s = statistics.median(s / bare for s, bare in probes) * workloads.BARE_NOMINAL_S
    ops, _, passed = check(args.workload, args.seed, [line["out"] for line in lines])
    raw_ms = [line["lat"] * 1e3 for line in lines]
    calibrations = summary["calibrations"]
    nominal = workloads.YARDSTICKS[args.workload][1]
    latency_ms = scaled_latencies(raw_ms, calibrations, nominal)
    p50, p90 = statistics.quantiles(latency_ms, n=10)[4:9:4]
    metrics = {"ops_per_s": 1e3 * len(latency_ms) / sum(latency_ms), "latency_p50_ms": p50,
               "latency_p90_ms": p90, "setup_s": setup_s, "peak_rss_mb": summary["peak_rss_mb"]}
    failed = len(passed) - sum(passed)
    notes = [f"workload={args.workload} seed={args.seed} trace=0 "
             f"ops={len(lines)} busy_s={summary['busy_s']:.3f} "
             f"inputs_sha256={summary['inputs_sha256']} (first {min(len(lines), 100)} ops)"]
    notes += [f"  {name:16s} {metrics[name]:12.4f} {unit}" for name, unit in END_TO_END]
    notes.append(f"  latency samples {len(lines)}, setup probes {len(probes)}, unscaled setup_s "
                 f"{statistics.median(s for s, _ in probes):.4f}, bare interpreter start "
                 f"{statistics.median(bare for _, bare in probes):.4f} s")
    raw_p50, raw_p90 = statistics.quantiles(raw_ms, n=10)[4:9:4]
    speeds = [nominal / s for _, s in calibrations]
    notes.append(f"  unscaled ops_per_s {len(lines) / summary['busy_s']:.4f} "
                 f"latency_p50_ms {raw_p50:.4f} latency_p90_ms {raw_p90:.4f}")
    notes.append(f"  yardstick timings {len(speeds)}, host speed {min(speeds):.2f}-"
                 f"{max(speeds):.2f} (median {statistics.median(speeds):.2f})")
    notes.append(f"  failed_fraction  {failed / len(passed):12.4f} ({failed} of {len(passed)})")
    notes += _failures(ops, lines, passed)
    return {"notes": notes, "correct": failed == 0, "attempted": len(passed), "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in END_TO_END}}


def scaled_latencies(latencies, calibrations, nominal):
    """Op latencies at the yardstick's nominal speed.

    The shared host moves between speed states up to about 1.5x apart that
    last from seconds to minutes, which would make a run's figures follow
    the share of its time spent in each state.  Each op's latency is scaled
    by the yardstick's ``nominal`` seconds over the median of the CAL_WINDOW
    yardstick timings nearest to it, so figures from a slow spell and a fast
    one agree."""
    import numpy as np
    at = np.array([index for index, _ in calibrations])
    cal = np.array([seconds for _, seconds in calibrations])
    half = CAL_WINDOW // 2
    local = np.array([np.median(cal[max(0, j - half):j + half + 1]) for j in range(len(cal))])
    nearest = np.searchsorted(at, np.arange(len(latencies)), side="right") - 1
    return list(np.array(latencies) * nominal / local[nearest])


def traced_run(args):
    startup_s = statistics.median(
        workloads.probe(f"import sys; sys.path.insert(0, {str(SRC)!r}); import lumenkit.cli")
        for _ in range(workloads.SETUP_PROBES))
    lines, summary = run_worker(args, trace_ops=TRACE_OPS[args.workload])
    outs = [line["out"] for line in lines]
    ops, ref, passed = check(args.workload, args.seed, outs)
    metrics = layer_metrics(summary)
    metrics["cli.startup_s"] = (startup_s, "s")
    metrics.update(census_metrics(args.seed, ref, summary["census"]))
    if args.workload == "cli":
        metrics["cli.exit_code_mismatches"] = (metrics["cli.exit_code_mismatches"][0] + sum(
            out["code"] not in ref.expected_exits(op["expect"]) for op, out in zip(ops, outs)),
            "count")
    failed = len(passed) - sum(passed)
    notes = [f"workload={args.workload} seed={args.seed} trace=1 ops={len(lines)} "
             f"inputs_sha256={summary['inputs_sha256']}",
             f"  traced outputs identical to untraced: {summary['identical']}"]
    if summary["missing_hooks"]:
        notes.append(f"  warning: hook sites no longer present: {summary['missing_hooks']}")
    notes += [f"  {name:40s} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    notes.append(f"  failed_fraction {failed / len(passed):.4f} ({failed} of {len(passed)})")
    notes += _failures(ops, lines, passed)
    return {"notes": notes, "correct": failed == 0 and summary["identical"],
            "attempted": len(passed), "failed": failed,
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def census_metrics(seed, ref, census):
    """How many of lumenkit's known misses (workloads.py) it still misses.

    The streams leave these inputs out so that the timed runs have no
    failed op; the census keeps the defects in view.  The in_gamut census
    is a sample of the stream's near-locus targets before that filter."""
    quadrature = sum(
        not all(ref.check_spectra(dict(source, v=v), out) for v, out in zip(workloads.V_MODES, outs))
        for source, outs in zip(workloads.census_sources(), census["spectra"]))
    state, _ = ref.gamut(workloads.census_targets(seed, workloads.load_cmf_columns()))
    in_gamut = sum(int(s) * (1 if inside else -1) < 0 for s, inside in zip(state, census["gamut"]))
    cli = sum(code != op["expect"]["exit"]
              for op, code in zip(workloads.census_cli(seed), census["cli"]))
    return {"census.quadrature_misses": (quadrature, "count"),
            "census.in_gamut_misses": (in_gamut, "count"),
            "cli.exit_code_mismatches": (cli, "count")}


def layer_metrics(summary):
    stats, counts = summary["stats"], summary["counts"]
    out = {}
    for layer, fields in LAYER_STATS:
        row = stats.get(layer, (0, 0.0, 0.0))
        for field in fields:
            out[f"{layer}.{field}"] = (row[_FIELDS[field]], "count" if field == "calls" else "s")
    integrate_calls = stats.get("quadrature.integrate", (0,))[0]
    evals = counts.get("quadrature.integrand_evals", 0)
    out["quadrature.integrand_evals"] = (evals, "count")
    out["quadrature.integrand_evals_per_call"] = (_ratio(evals, integrate_calls), "evals/call")
    out["maxper.simplex_solve.optimal_ratio"] = (
        _ratio(counts.get("maxper.simplex_solve.optimal", 0),
               stats.get("maxper.simplex_solve", (0,))[0]), "ratio")
    out["colorimetry.in_gamut.inside_ratio"] = (
        _ratio(counts.get("colorimetry.in_gamut.inside", 0),
               stats.get("colorimetry.in_gamut", (0,))[0]), "ratio")
    out["trace.overhead_ratio"] = (summary["untraced_s"] / summary["traced_s"], "ratio")
    return out


def _ratio(num, base):
    return num / base if base else 0.0


def run_worker(args, trace_ops=0):
    """Run worker.py; its per-op lines and its summary."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if trace_ops:
        cmd += ["--trace-ops", str(trace_ops)]
    proc = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True,
                          timeout=args.seconds + 150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    return records[:-1], records[-1]["summary"]


def check(workload, seed, outs):
    """The ops behind ``outs``, the reference, and one pass flag per op."""
    from reference import Reference
    cmf = workloads.load_cmf_columns()
    ops = workloads.ops(workload, seed, len(outs), cmf)
    ref = Reference(cmf)
    return ops, ref, verify(workload, ref, ops, outs)


def verify(workload, ref, ops, outs):
    """One pass flag per op."""
    if workload == "spectra":
        return [ref.check_spectra(op, out) for op, out in zip(ops, outs)]
    if workload == "gamut":
        bad = ref.cross_check_lp(ops[:LP_CROSS_CHECKS])
        if bad:
            raise RuntimeError(f"gamut references disagree with linprog at {bad}")
        return ref.check_gamut(ops, outs)
    return [ref.check_cli(op, out["code"], out["stdout"]) for op, out in zip(ops, outs)]


def _failures(ops, lines, passed, limit=5):
    """A few failed ops, for whoever reads the log."""
    bad = [(op, line["out"]) for op, line, ok in zip(ops, lines, passed) if not ok]
    notes = []
    for op, out in bad[:limit]:
        op_text = json.dumps(op.get("argv", op) if isinstance(op, dict) else op)
        notes.append(f"  failed op {op_text[:160]} -> {json.dumps(out)[:160]}")
    return notes


if __name__ == "__main__":
    sys.exit(main())
