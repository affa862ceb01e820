"""List the catalogue sources on which lumenkit misses the reference.

    python3 perfbench/screen.py

For every entry of every catalogue in ``workloads.CATALOGUE`` this computes
``per`` under each eye model and the chromaticity with lumenkit, checks them
as the spectra workload does, and prints the entries that fail as a dict of
kind to entry numbers, for ``workloads.KNOWN_QUADRATURE_MISSES``.  Takes
about twenty minutes on two vCPUs.
"""

from __future__ import annotations

import sys

import workloads
import worker
from reference import Reference


def main():
    ref = Reference(workloads.load_cmf_columns())
    spectra = worker.SpectraRunner()
    misses = {}
    for kind, size in workloads.CATALOGUE.items():
        for k in range(size):
            ops = [dict(workloads.catalogue_source(kind, k), v=v) for v in workloads.V_MODES]
            if not all(ref.check_spectra(op, spectra(op)) for op in ops):
                misses.setdefault(kind, []).append(k)
                print(f"miss: {kind} {k}", file=sys.stderr, flush=True)
        print(f"{kind}: {size} entries checked", file=sys.stderr, flush=True)
    print({kind: tuple(ks) for kind, ks in misses.items()})


if __name__ == "__main__":
    main()
