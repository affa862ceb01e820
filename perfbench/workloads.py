"""Seeded inputs for the spectra, gamut and cli workloads.

Ops are plain data (dicts, lists, floats and strings) so that the worker,
which imports lumenkit, and the checker, which must not, rebuild the same
ops from the same seed.  Ops come in fixed-size blocks; block ``b`` depends
only on the seed, the workload and ``b``, so every prefix of a stream is
reproducible and each block holds the workload's mix in exact proportions.
Fixed proportions keep the latency percentiles away from the border between
two op kinds, which is what keeps them steady from seed to seed.

This module uses only the standard library: a process that starts ``lumen``
subprocesses must stay small, because a child's peak-memory figure starts
from its parent's.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CMF_CSV = ROOT / "src" / "lumenkit" / "data" / "cie_1931_2deg_5nm.csv"

WORKLOADS = ("spectra", "gamut", "cli")

# Output directory inside the checkout for spectrum files and span dumps.
OUT_DIR = ROOT / ".perfbench_out"

V_MODES = ("photopic", "scotopic", "tabulated")

# One spectra block: two Sampled ops in ten put p90 inside the Sampled
# group (the tristimulus tail) and p50 inside the Planck-like group.
SPECTRA_KINDS = ("planck", "planck", "planck", "truncated_planck", "flat",
                 "gaussian", "gaussian", "sampled", "sampled", "line")

GAMUT_BLOCK = 10
GAMUT_UNIFORM = 6  # the rest of a block lies within NEAR_LOCUS of the locus
NEAR_LOCUS = 0.01
# Near-locus targets of a traced run's in_gamut census.
CENSUS_TARGETS = 2000

# Sources that lumenkit integrates come from finite catalogues: entry k of a
# kind is built from the seed "<kind>/<k>" alone.  screen.py checks every
# entry against the reference once.  On the entries listed here lumenkit's
# adaptive Simpson stops with a result outside the reference tolerances:
# they are its known accuracy misses.  The streams leave them out, and every
# traced run checks them again in its census (see run.py).  A stream takes a
# kind's other entries in an order drawn from its seed, so a run repeats a
# source only after it has used every entry of that kind.
CATALOGUE = {"planck": 1000, "truncated_planck": 300, "flat": 300, "gaussian": 600,
             "sampled": 600}
KNOWN_QUADRATURE_MISSES = {"sampled": (260, 492)}

# Grid steps (nm) of Sampled sources: catalogue entry k has step
# SAMPLED_STEPS[k % 6], and a stream takes the steps in turn.  The cost of a
# Sampled op depends on its step, and the p90 of spectra falls among the
# Sampled ops; a spectra block has one Sampled source of each step.
SAMPLED_STEPS = (1, 7, 3, 10, 5, 2)


# Yardsticks of the host's speed, each with the seconds it took on the
# 2-vCPU machine the benchmark was tuned on.  Op latencies are scaled by that
# nominal time over the yardstick's time measured around them (see run.py),
# with the yardstick that moves with the host as the ops do: a fixed piece of
# pure-Python work for ops that run in the worker's own interpreter, and a
# bare interpreter start for cli ops and set-up, which start processes.
CAL_LOOPS = 6000
CAL_NOMINAL_S = 1e-3


# Fresh interpreters started per timed run to time set-up, spread evenly
# over the run's op time so that their median, like the ops, covers the
# whole run.  Each set-up probe is paired with a bare interpreter start;
# set-up is reported as the median of its probes' times over their bare
# starts' times, times BARE_NOMINAL_S.
SETUP_PROBES = 15
SETUP_CODE = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
              "import lumenkit; lumenkit.default_cmf()")
BARE_CODE = "pass"
BARE_NOMINAL_S = 0.04


def probe(code: str) -> float:
    """Seconds from starting a fresh interpreter to the end of ``code``."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code + "; print('ready', flush=True)"],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {code}")
    return elapsed


def calibrate() -> float:
    """Seconds the yardstick takes now: its second of two runs, since the
    first also pays for caches that an op (or a child process) left cold."""
    for _ in range(2):
        t0 = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(CAL_LOOPS):
            acc += math.sqrt(i + acc % 7.0)
            table[i & 255] = acc
        elapsed = time.perf_counter() - t0
    return elapsed


def bare_start() -> float:
    """Seconds a bare interpreter start takes now."""
    return probe(BARE_CODE)


# Per workload, the yardstick that its op latencies are scaled by and the
# yardstick's nominal seconds.
YARDSTICKS = {"spectra": (calibrate, CAL_NOMINAL_S), "gamut": (calibrate, CAL_NOMINAL_S),
              "cli": (bare_start, BARE_NOMINAL_S)}


def load_cmf_columns() -> list:
    """The CIE table as rows of wavelength, xbar, ybar, zbar."""
    with open(CMF_CSV, encoding="utf-8", newline="") as f:
        return [[float(v) for v in row] for row in list(csv.reader(f))[1:] if row]


def block(workload: str, seed: int, index: int, cmf: list) -> list:
    rng = random.Random(f"{workload}/{seed}/{index}")
    return _MAKERS[workload](rng, cmf, seed, index)


def ops(workload: str, seed: int, count: int, cmf: list) -> list:
    """The first ``count`` ops of a workload's stream."""
    out = []
    index = 0
    while len(out) < count:
        out.extend(block(workload, seed, index, cmf))
        index += 1
    return out[:count]


def stream(workload: str, seed: int, cmf: list):
    """Yield the workload's blocks one at a time, without end."""
    index = 0
    while True:
        yield block(workload, seed, index, cmf)
        index += 1


def inputs_sha256(op_list) -> str:
    text = json.dumps(op_list, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --- spectra: one source per op, from the catalogues ---------------------


def _spectra_block(rng, cmf, seed, index):
    """Thirty sources: the kind mix three times, each V model ten times."""
    kinds = _shuffled(rng, SPECTRA_KINDS * 3)
    vs = _shuffled(rng, V_MODES * len(SPECTRA_KINDS))
    pick = _picker("spectra", seed, index, kinds)
    return [dict(pick(rng, kind), v=v) for kind, v in zip(kinds, vs)]


def _picker(workload, seed, index, kinds):
    """A function giving block ``index``'s next source of a kind; ``kinds``
    lists the block's sources, as every block of the workload does."""
    used = dict.fromkeys(kinds, 0)

    def pick(rng, kind):
        if kind not in CATALOGUE:
            return _source(rng, kind)
        k = index * kinds.count(kind) + used[kind]  # the stream's k-th source of the kind
        used[kind] += 1
        groups = _catalogue_order(workload, seed, kind)
        group = groups[k % len(groups)]
        return catalogue_source(kind, group[k // len(groups) % len(group)])
    return pick


_ORDERS = {}


def _catalogue_order(workload, seed, kind):
    """The catalogue entries a stream takes, known misses left out, in its
    seeded order; for Sampled, one list per grid step."""
    key = (workload, seed, kind)
    if key not in _ORDERS:
        usable = [k for k in range(CATALOGUE[kind])
                  if k not in KNOWN_QUADRATURE_MISSES.get(kind, ())]
        count = len(SAMPLED_STEPS) if kind == "sampled" else 1
        rng = random.Random(f"{workload}/{seed}/{kind}")
        _ORDERS[key] = [_shuffled(rng, [k for k in usable if k % count == i])
                        for i in range(count)]
    return _ORDERS[key]


def census_sources():
    """The catalogue entries that are known accuracy misses."""
    return [catalogue_source(kind, k) for kind, misses in KNOWN_QUADRATURE_MISSES.items()
            for k in misses]


def catalogue_source(kind, k):
    """Entry ``k`` of the catalogue of ``kind``."""
    rng = random.Random(f"{kind}/{k}")
    if kind == "sampled":
        return _sampled(rng, SAMPLED_STEPS[k % len(SAMPLED_STEPS)])
    return _source(rng, kind)


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _source(rng, kind):
    """A source of ``kind``, other than Sampled."""
    if kind == "planck":
        return {"kind": kind, "t": _log_uniform(rng, 1000.0, 20000.0)}
    if kind == "truncated_planck":
        return {"kind": kind, "t": _log_uniform(rng, 1000.0, 20000.0),
                "lo": _r(rng.uniform(380.0, 500.0)), "hi": _r(rng.uniform(550.0, 780.0))}
    if kind == "flat":
        lo = _r(rng.uniform(380.0, 560.0))
        return {"kind": kind, "lo": lo, "hi": _r(min(lo + rng.uniform(20.0, 220.0), 780.0))}
    if kind == "gaussian":  # LED-like emitter inside the visible band
        return {"kind": kind, "peak": _r(rng.uniform(420.0, 680.0)),
                "width": _r(rng.uniform(5.0, 40.0))}
    if kind == "line":
        return {"kind": kind, "lam": _r(rng.uniform(380.0, 780.0))}
    raise ValueError(f"unknown source kind {kind}")


def _sampled(rng, step):
    """A measured-like spectrum: two or three bands over a small baseline,
    with 1 % multiplicative noise, on a grid of ``step`` nm."""
    wl = [float(w) for w in range(380 + rng.randint(0, 20), 781 - rng.randint(0, 20), step)]
    power = [rng.uniform(0.02, 0.1)] * len(wl)
    for _ in range(rng.randint(2, 3)):
        peak, width, height = rng.uniform(420.0, 680.0), rng.uniform(10.0, 60.0), rng.uniform(0.2, 1.0)
        power = [p + height * math.exp(-0.5 * ((w - peak) / width) ** 2) for w, p in zip(wl, power)]
    power = [round(p * (1.0 + 0.01 * rng.gauss(0.0, 1.0)), 6) for p in power]
    return {"kind": "sampled", "wl": wl, "p": power}


def _log_uniform(rng, lo, hi):
    return _r(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _r(value, digits=3):
    return round(float(value), digits)


# --- gamut: chromaticity targets -----------------------------------------


def _gamut_block(rng, cmf, seed, index):
    shapes = _gamut_shapes(cmf)
    targets = [_target(rng, _uniform_target, shapes) for _ in range(GAMUT_UNIFORM)]
    targets += [_target(rng, lambda r: _near_locus_target(r, shapes.segments), shapes)
                for _ in range(GAMUT_BLOCK - GAMUT_UNIFORM)]
    return _shuffled(rng, targets)


def census_targets(seed, cmf):
    """CENSUS_TARGETS near-locus targets of the stream's distribution, the
    known in_gamut misses among them kept."""
    rng = random.Random(f"gamut-census/{seed}")
    segments = _gamut_shapes(cmf).segments
    return [_near_locus_target(rng, segments) for _ in range(CENSUS_TARGETS)]


def _target(rng, draw, shapes):
    """A target from ``draw`` that is not a known in_gamut miss."""
    while True:
        x, y = draw(rng)
        if not shapes.known_miss(x, y):
            return [x, y]


def _uniform_target(rng):
    x, y = rng.random(), rng.random()
    if x + y > 1.0:
        x, y = 1.0 - x, 1.0 - y
    return [x, y]


class _GamutShapes:
    """The locus polygon that lumenkit's in_gamut tests (table order, closed
    by the purple line from the last point back to the first), and the
    convex hull of the locus, which is where the max-PER LP is feasible."""

    def __init__(self, cmf):
        pts = [(r[1] / (r[1] + r[2] + r[3]), r[2] / (r[1] + r[2] + r[3])) for r in cmf]
        self.edges = list(zip(pts, pts[1:] + pts[:1]))
        self.hull = _convex_hull(pts)
        segs = [(x0, y0, x1 - x0, y1 - y0, math.hypot(x1 - x0, y1 - y0))
                for (x0, y0), (x1, y1) in self.edges]
        segs = [s for s in segs if s[4] > 0.0]
        cum = []
        for s in segs:
            cum.append((cum[-1] if cum else 0.0) + s[4])
        # Segments of nonzero length as (x0, y0, dx, dy, length), and their
        # cumulative lengths.
        self.segments = segs, cum

    def known_miss(self, x, y):
        """True where the even-odd rule on the polygon puts a point of the
        hull outside: in_gamut rejects it although the LP is feasible."""
        crossings = 0
        for (x0, y0), (x1, y1) in self.edges:
            if (y0 > y) != (y1 > y) and x < x0 + (y - y0) * (x1 - x0) / (y1 - y0):
                crossings += 1
        if crossings % 2:
            return False
        return all((x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > 0.0
                   for (x0, y0), (x1, y1) in zip(self.hull, self.hull[1:] + self.hull[:1]))


_SHAPES = []


def _gamut_shapes(cmf):
    if not _SHAPES:  # there is one CIE table
        _SHAPES.append(_GamutShapes(cmf))
    return _SHAPES[0]


def _convex_hull(pts):
    """Counter-clockwise hull vertices (Andrew's monotone chain)."""
    pts = sorted(set(pts))

    def half(points):
        out = []
        for p in points:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0.0:
                out.pop()
            out.append(p)
        return out[:-1]
    return half(pts) + half(pts[::-1])


def _near_locus_target(rng, segments):
    """A point offset by up to NEAR_LOCUS along the normal of the closed
    locus, at a position uniform in arc length."""
    segs, cum = segments
    while True:
        s = rng.uniform(0.0, cum[-1])
        i = min(bisect.bisect_left(cum, s), len(segs) - 1)
        x0, y0, dx, dy, length = segs[i]
        t = 1.0 - (cum[i] - s) / length
        d = rng.uniform(-NEAR_LOCUS, NEAR_LOCUS) / length
        x, y = x0 + t * dx - d * dy, y0 + t * dy + d * dx
        if x >= 0.0 and y >= 0.0:  # negative coordinates are not chromaticities
            return [x, y]


# --- cli: lumen invocations ----------------------------------------------

# Invalid invocations and the exit code the table in lumenkit/cli.py
# documents for each (2 usage/config, 4 input parse, 5 infeasible).
# nan and inf inputs are domain errors, so they must exit 2.
_INVALID = ("km_scotopic", "flat_reversed", "bad_header", "short_file", "maxper_outside",
            "gaussian_negative", "locus_reversed", "planck_nan")
# Invalid invocations that lumenkit answers with the wrong exit code: its
# known cli misses.  The stream leaves them out, and every traced run
# checks them again in its census.
KNOWN_CLI_MISSES = ("maxper_nan", "planck_inf")
_KM_FLAGS = ("683", "computed")
# The iso-PER grid step.  The grids of 0.02, 0.025, 0.04 and 0.05 hold the
# known in_gamut miss (0.6, 0.2); that of 0.048 holds none.
ISOPER_STEP = 0.048
_V_FLAGS = {"photopic": "photopic_analytic", "scotopic": "scotopic_analytic",
            "tabulated": "tabulated"}


def _cli_block(rng, cmf, seed, index):
    """Twenty invocations: every subcommand, per and chroma with each source
    flag, and two invalid ones."""
    files = f"{OUT_DIR.name}/cli-{seed}"
    ops_ = [_km_op(), _vlambda_op(rng), _locus_op(rng), _isoper_op(rng)]
    ops_ += [_maxper_op(rng, cmf) for _ in range(2)]
    kinds = ("planck", "truncated_planck", "flat", "gaussian", "line", "sampled")
    pick = _picker("cli", seed, index, kinds * 2)
    for kind in kinds:
        for command in ("per", "chroma"):
            path = f"{files}/b{index}-{command}.csv"
            ops_.append(_source_op(rng, command, pick(rng, kind), path))
    # Two invalid invocations per block; the order of the eight recipes is
    # seeded, and every four blocks use each recipe once.
    order = _shuffled(random.Random(f"cli/{seed}/invalid"), _INVALID)
    first = 2 * (index % (len(_INVALID) // 2))
    for slot in (first, first + 1):
        ops_.append(_invalid_op(rng, order[slot], f"{files}/b{index}-bad{slot}.csv"))
    return _shuffled(rng, ops_)


def census_cli(seed):
    """The known cli misses, one invocation each."""
    rng = random.Random(f"cli-census/{seed}")
    return [_invalid_op(rng, recipe, "") for recipe in KNOWN_CLI_MISSES]


def _common(rng, with_v=True):
    km = rng.choice(_KM_FLAGS)
    v = rng.choice(V_MODES) if with_v else "photopic"
    argv = ["--km", km]
    if with_v:
        argv += ["--v-mode", _V_FLAGS[v]]
    return argv, km, v


def _km_op():
    return {"argv": ["km"], "files": {}, "expect": {"exit": 0, "check": "km"}}


def _vlambda_op(rng):
    argv, km, v = _common(rng)
    return {"argv": ["vlambda"] + argv, "files": {},
            "expect": {"exit": 0, "check": "vlambda", "v": v}}


def _locus_op(rng):
    tmin = float(rng.randint(1500, 8000))
    step = float(rng.randint(200, 1000))
    argv = ["locus", repr(tmin), repr(tmin + 2 * step), repr(step)]
    return {"argv": argv, "files": {},
            "expect": {"exit": 0, "check": "locus", "temps": [tmin + k * step for k in range(3)]}}


def _isoper_op(rng):
    argv, km, _ = _common(rng, with_v=False)
    step = ISOPER_STEP
    return {"argv": ["isoper", "--grid-step", repr(step)] + argv, "files": {},
            "expect": {"exit": 0, "check": "isoper", "km": km, "step": step}}


def _maxper_op(rng, cmf):
    argv, km, _ = _common(rng, with_v=False)
    x, y = _target(rng, lambda r: [_r(c, 4) for c in _uniform_target(r)], _gamut_shapes(cmf))
    return {"argv": ["maxper", "--x", repr(x), "--y", repr(y)] + argv, "files": {},
            "expect": {"exit": "lp", "check": "maxper", "x": x, "y": y, "km": km}}


def _source_op(rng, command, source, path):
    argv, km, v = _common(rng, with_v=command == "per")
    flags, files = _source_flags(source, path)
    return {"argv": [command] + flags + argv, "files": files,
            "expect": {"exit": 0, "check": command, "source": source, "km": km, "v": v}}


def _source_flags(source, path):
    kind = source["kind"]
    if kind == "planck":
        return ["--planck", repr(source["t"])], {}
    if kind == "truncated_planck":
        return ["--truncated-planck"] + [repr(source[k]) for k in ("t", "lo", "hi")], {}
    if kind == "flat":
        return ["--flat", repr(source["lo"]), repr(source["hi"])], {}
    if kind == "gaussian":
        return ["--gaussian", repr(source["peak"]), repr(source["width"])], {}
    if kind == "line":
        return ["--line", repr(source["lam"])], {}
    rows = "".join(f"{w!r},{p!r}\n" for w, p in zip(source["wl"], source["p"]))
    return ["--file", path], {path: "wavelength_nm,power\n" + rows}


def _invalid_op(rng, recipe, path):
    files = {}
    if recipe == "maxper_nan":
        argv, code = ["maxper", "--x", "nan", "--y", _s(rng, 0.2, 0.4)], 2
    elif recipe == "planck_inf":
        argv, code = ["per", "--planck", "inf"], 2
    elif recipe == "planck_nan":
        argv, code = ["chroma", "--planck", "nan"], 2
    elif recipe == "km_scotopic":
        argv, code = ["km", "--v-mode", "scotopic_analytic"], 2
    elif recipe == "flat_reversed":
        argv, code = ["per", "--flat", _s(rng, 600.0, 700.0), _s(rng, 400.0, 500.0)], 2
    elif recipe == "gaussian_negative":
        argv, code = ["per", "--gaussian", _s(rng, 450.0, 650.0), _s(rng, -30.0, -1.0)], 2
    elif recipe == "locus_reversed":
        argv, code = ["locus", _s(rng, 5000.0, 9000.0), _s(rng, 1000.0, 4000.0), "100"], 2
    elif recipe == "bad_header":
        files[path] = "lambda,power\n500,1\n510,1\n520,1\n530,1\n"
        argv, code = ["chroma", "--file", path], 4
    elif recipe == "short_file":
        files[path] = "wavelength_nm,power\n500,1\n510,1\n"
        argv, code = ["per", "--file", path], 4
    elif recipe == "maxper_outside":  # below the purple line: no source has it
        argv, code = ["maxper", "--x", _s(rng, 0.4, 0.5), "--y", _s(rng, 0.02, 0.05)], 5
    else:
        raise ValueError(f"unknown invalid recipe {recipe}")
    return {"argv": argv, "files": files, "expect": {"exit": code, "check": None, "recipe": recipe}}


def _s(rng, lo, hi):
    return repr(_r(rng.uniform(lo, hi)))


_MAKERS = {"spectra": _spectra_block, "gamut": _gamut_block, "cli": _cli_block}
