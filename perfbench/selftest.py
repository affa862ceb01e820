"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

On small traced runs of each workload it checks that
* traced and untraced passes of one seed give identical outputs;
* the inputs hash and the deterministic counts (calls, integrand
  evaluations, optimal and inside ratios) repeat exactly for a seed;
* every hook site is still in place, and each layer records calls on the
  workload that stresses it and none where the design bypasses it;
* the checker fails outputs that are off by more than the tolerance.
It then runs run.py once per mode and checks the printed result against
BENCHMARK.json.  Exits 1 and lists what failed; a refactor that unhooks a
layer fails here loudly.
"""

from __future__ import annotations

import argparse
import copy
import json
import subprocess
import sys

import run
import workloads

SEED = 7
TRACE_OPS = {"spectra": 30, "gamut": 300, "cli": 20}  # one whole block each, or more

# Layers that must record calls (True) or none (False) on each workload.
EXPECT_CALLS = {
    "spectra": {"spectral.evaluate_spectrum": True, "quadrature.integrate": True,
                "quadrature.spline_fit": True, "photometry.per": True,
                "photometry.luminosity": True, "colorimetry.CmfTable.interp": True,
                "colorimetry.tristimulus": True, "maxper.simplex_solve": False,
                "maxper.build_problem": False, "colorimetry.in_gamut": False,
                "cli.main": False},
    "gamut": {"colorimetry.in_gamut": True, "maxper.build_problem": True,
              "maxper.simplex_solve": True, "quadrature.integrate": False,
              "colorimetry.tristimulus": False, "spectral.evaluate_spectrum": False,
              "photometry.per": False, "cli.main": False},
    "cli": {"cli.main": True, "colorimetry.load_cmf": True, "photometry.per": True,
            "photometry.compute_km": True, "colorimetry.tristimulus": True,
            "colorimetry.planckian_locus": True, "maxper.iso_per_scan": True,
            "maxper.simplex_solve": True, "colorimetry.in_gamut": True},
}

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)


def deterministic(summary):
    return {"inputs": summary["inputs_sha256"], "counts": summary["counts"],
            "calls": {name: row[0] for name, row in summary["stats"].items()}}


def traced(workload):
    args = argparse.Namespace(workload=workload, seed=SEED, seconds=1)
    return run.run_worker(args, trace_ops=TRACE_OPS[workload])


def check_workload(workload):
    lines, first = traced(workload)
    _, second = traced(workload)
    check(first["identical"], f"{workload}: traced outputs differ from untraced ones")
    check(deterministic(first) == deterministic(second),
          f"{workload}: inputs or counts differ between two runs of seed {SEED}")
    check(not first["missing_hooks"], f"{workload}: hook sites missing: {first['missing_hooks']}")
    for layer, stressed in EXPECT_CALLS[workload].items():
        calls = first["stats"].get(layer, [0])[0]
        check((calls > 0) == stressed,
              f"{workload}: {layer} made {calls} calls, expected {'some' if stressed else 'none'}")

    outs = [line["out"] for line in lines]
    ops, ref, passed = run.check(workload, SEED, outs)
    bad = copy.deepcopy(outs)
    if workload == "spectra":
        for out in bad:
            out["per"] *= 1.0 + 1e-5
    elif workload == "gamut":
        for out in bad:
            out["inside"] = not out["inside"]
    else:
        for out in bad:
            out["code"] = 3
    check(not any(run.verify(workload, ref, ops, bad)),
          f"{workload}: the checker passed outputs that are off")
    return passed


def check_run_py():
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "gamut",
                               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                              capture_output=True, text=True, cwd=workloads.ROOT)
        check(proc.returncode == 0, f"run.py --trace {trace} exited {proc.returncode}")
        if proc.returncode != 0:
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"run.py --trace {trace} printed keys {sorted(result)}")
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == want, f"run.py --trace {trace} metrics differ from BENCHMARK.json {key}")


def main():
    for workload in workloads.WORKLOADS:
        passed = check_workload(workload)
        print(f"{workload}: {sum(passed)} of {len(passed)} traced ops match the reference")
    check_run_py()
    for message in failures:
        print(f"FAIL {message}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
