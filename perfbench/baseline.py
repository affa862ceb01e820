"""Time the operations of ROADMAP item 1's baseline table with this harness.

    python3 perfbench/baseline.py > table.json

In-process operations report the median of several calls and, where they
integrate, the integrand evaluations of one call (counted by tracer.py);
``lumen`` commands report the median wall time of several subprocesses.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def evals(fn):
    import tracer
    t = tracer.Tracer()
    t.install()
    try:
        fn()
    finally:
        t.uninstall()
    return t.counts["quadrature.integrand_evals"]


def main():
    import numpy as np
    import lumenkit as lk

    cmf = lk.default_cmf()
    sampled_op = workloads._sampled(random.Random("baseline"), 5)
    sampled = lk.Sampled(lk.SampledSpectrum(np.array(sampled_op["wl"]), np.array(sampled_op["p"])))
    planck = lk.Planck(3000.0)
    target = lk.Chromaticity(1.0 / 3.0, 1.0 / 3.0)
    rows = {
        "per(Planck 3000 K)": (lambda: lk.per(planck, lk.PHOTOPIC, 683.0), 7, True),
        "per(Sampled)": (lambda: lk.per(sampled, lk.PHOTOPIC, 683.0), 7, True),
        "tristimulus(Planck 3000 K)": (lambda: lk.tristimulus(planck, cmf, 683.0), 5, True),
        "tristimulus(Sampled)": (lambda: lk.tristimulus(sampled, cmf, 683.0), 5, True),
        "planckian_locus(1000, 10000, 100)": (lambda: lk.planckian_locus(1000, 10000, 100, cmf), 3, True),
        "max_per(1/3, 1/3)": (lambda: lk.max_per(target, cmf, 683.0), 51, False),
        "in_gamut(1/3, 1/3)": (lambda: lk.in_gamut(target, cmf), 51, False),
        "iso_per_scan(0.02)": (lambda: lk.iso_per_scan(0.02, cmf, 683.0), 3, False),
    }
    table = {}
    for name, (fn, repeats, integrates) in rows.items():
        table[name] = {"median_ms": timed(fn, repeats) * 1e3, "repeats": repeats}
        if integrates:
            table[name]["integrand_evals"] = evals(fn)
    env = dict(os.environ, PYTHONPATH=str(workloads.ROOT / "src"))
    for argv, repeats in ((["km"], 7), (["locus", "1000", "10000", "500"], 3),
                          (["isoper", "--grid-step", "0.02"], 3)):
        def run(argv=argv):
            subprocess.run([sys.executable, "-m", "lumenkit", *argv], env=env,
                           capture_output=True, check=True)
        table["lumen " + " ".join(argv)] = {"median_ms": timed(run, repeats) * 1e3,
                                            "repeats": repeats}
    print(json.dumps(table, indent=1))


if __name__ == "__main__":
    main()
