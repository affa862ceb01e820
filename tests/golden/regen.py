"""Golden stdout corpus of ``lumen``: rewrite ``lumen.txt`` and its inputs.

Run from the root of a checkout::

    PYTHONPATH=src python tests/golden/regen.py

Each entry of ``lumen.txt`` records one invocation, run in process through
``lumenkit.cli.main``::

    $ [LUMEN_CMF_PATH=PATH] ARGS...   the invocation
    = CODE                            its exit code
    > LINE                            each line of its CSV output
    ! LINE                            the first line of stderr, if any

``{golden}`` in an invocation stands for this directory and ``{out}`` for a
scratch file; for an invocation with ``--output {out}`` the ``>`` lines are
that file's contents.  ``tests/test_golden.py`` replays every entry.  A change
that alters an entry reruns this script and names each changed entry.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent
CORPUS = GOLDEN_DIR / "lumen.txt"
ENV_VAR = "LUMEN_CMF_PATH"

_SOURCES = [
    "--planck 2856",
    "--truncated-planck 3000 420 680",
    "--flat 450 650",
    "--gaussian 530 20",
    "--line 555",
    "--file {golden}/spectrum.csv",
    "--flat 400 700 --lmin 450 --lmax 600",
]
_V_MODES = ("photopic_analytic", "scotopic_analytic", "tabulated")

INVOCATIONS = (
    ["km", "km --km computed"]
    + [f"per {source} --v-mode {mode}" for mode in _V_MODES for source in _SOURCES]
    + [f"per --planck --sweep 1000 2000 500 --v-mode {mode}" for mode in _V_MODES]
    + [f"vlambda --v-mode {mode}" for mode in _V_MODES]
    + [f"chroma {source}" for source in _SOURCES]
    + [
        "per --gaussian 530 20 --km computed",
        "chroma --planck 6500 --km computed",
        "chroma --planck 6500 --cmf {golden}/cmf10.csv",
        "LUMEN_CMF_PATH={golden}/cmf10.csv chroma --planck 6500",
        "LUMEN_CMF_PATH={golden}/cmf10.csv per --planck 2856 --v-mode tabulated",
        "locus 2000 3000 250",
        "locus 2000 3000 250 --cmf {golden}/cmf10.csv",
        "maxper --x 0.33 --y 0.33",
        "maxper --x 0.4 --y 0.4 --delta-lambda 10",
        "maxper --x 0.3 --y 0.5 --km computed --cmf {golden}/cmf10.csv",
        "isoper --grid-step 0.05 --delta-lambda 10",
        "per --planck 2856 --output {out}",
    ]
    # The wavelength band: a Planck source under each eye response, the
    # truncated source it should match, bad bounds, and disjoint bands.
    + [f"per --planck 5800 --lmin 400 --lmax 700 --v-mode {mode}" for mode in _V_MODES]
    + [
        "per --truncated-planck 5800 400 700 --v-mode tabulated",
        "chroma --planck 5800 --lmin 400 --lmax 700",
        "per --planck 3000 --lmin 400",
        "per --planck 3000 --lmin -5 --lmax 700",
        "per --planck 3000 --lmin nan --lmax inf",
        "per --gaussian 550 20 --lmin -5",
        "per --line 555 --lmin -5",
        "chroma --gaussian 550 20 --lmin 0",
        "chroma --line 555 --lmin 600 --lmax 700",
        "per --line 555 --lmin 600 --lmax 700",
        "chroma --line 800",
        "per --flat 400 700 --lmin 450",
        "per --flat 450 700",
        "per --flat 400 700 --lmin 600 --lmax 500",
        "chroma --flat 400 700 --lmin 600 --lmax 500",
        "per --flat 400 500 --lmin 600 --lmax 700",
        "chroma --flat 400 500 --lmin 600 --lmax 700",
    ]
    # The packaged CMF table with row 30's xbar set to NaN.
    + [
        "maxper --x 0.3 --y 0.3 --cmf {golden}/cmf_nan.csv",
        "chroma --planck 4000 --cmf {golden}/cmf_nan.csv",
        "per --planck 4000 --v-mode tabulated --cmf {golden}/cmf_nan.csv",
    ]
    # A flat sampled spectrum at 1e308 overflows a double; at 1e300 it does not.
    + [f"{command} --file {{golden}}/flat_{level}.csv"
       for level in ("1e308", "1e300") for command in ("per", "chroma")]
)


def write_inputs():
    """Write the input files that the invocations read."""
    from lumenkit import default_cmf

    wl = np.arange(400.0, 701.0, 25.0)
    _write_csv("spectrum.csv", "wavelength_nm,power", wl, 1.0 + 0.5 * np.sin(wl / 40.0))
    cmf = default_cmf()
    columns = (cmf.wavelengths_nm, cmf.xbar, cmf.ybar, cmf.zbar)
    _write_csv("cmf10.csv", "wavelength_nm,xbar,ybar,zbar", *(c[::2] for c in columns))
    xbar = cmf.xbar.copy()
    xbar[29] = np.nan
    _write_csv("cmf_nan.csv", "wavelength_nm,xbar,ybar,zbar",
               cmf.wavelengths_nm, xbar, cmf.ybar, cmf.zbar)
    wl = np.arange(380.0, 781.0, 5.0)
    for level in ("1e308", "1e300"):
        _write_csv(f"flat_{level}.csv", "wavelength_nm,power", wl, np.full(len(wl), float(level)))


def _write_csv(name, header, *columns):
    rows = zip(*(c.tolist() for c in columns))
    text = header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    (GOLDEN_DIR / name).write_text(text, encoding="utf-8")


def run(invocation: str, scratch: Path) -> tuple[int, list[str], str | None]:
    """Exit code, output lines and first stderr line of one invocation.

    Sets ``LUMEN_CMF_PATH`` only for an invocation that names it, and
    restores the environment afterwards.
    """
    from lumenkit.cli import main

    words = shlex.split(invocation.format(golden=GOLDEN_DIR, out=scratch / "out.csv"))
    env = {}
    while words and "=" in words[0]:
        name, value = words.pop(0).split("=", 1)
        env[name] = value
    saved = os.environ.pop(ENV_VAR, None)
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(words)
    finally:
        for name in env:
            del os.environ[name]
        if saved is not None:
            os.environ[ENV_VAR] = saved
    text = out.getvalue()
    if "--output" in words:
        output = scratch / "out.csv"
        text = output.read_text(encoding="utf-8") if output.exists() else ""
    errors = err.getvalue().splitlines()
    return code, text.splitlines(), errors[0] if errors else None


def format_entry(invocation: str, code: int, lines: list[str], error: str | None) -> str:
    text = [f"$ {invocation}", f"= {code}"] + [f"> {line}" for line in lines]
    if error is not None:
        text.append(f"! {error}")
    return "\n".join(text) + "\n"


def parse(text: str) -> list[tuple[str, int, list[str], str | None]]:
    """The entries of a corpus, as ``(invocation, code, lines, error)``."""
    entries = []
    for block in text.split("\n\n"):
        rows = block.strip("\n").split("\n")
        if not rows[0].startswith("$ "):
            continue  # the header
        lines = [row[2:] for row in rows if row.startswith("> ")]
        errors = [row[2:] for row in rows if row.startswith("! ")]
        entries.append((rows[0][2:], int(rows[1][2:]), lines, errors[0] if errors else None))
    return entries


HEADER = """\
# Golden stdout of lumen; rewrite with: PYTHONPATH=src python tests/golden/regen.py
# Format: see tests/golden/regen.py.
"""


def main():
    write_inputs()
    entries = []
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        for invocation in INVOCATIONS:
            scratch = Path(tmp) / str(len(entries))
            scratch.mkdir()
            entries.append(format_entry(invocation, *run(invocation, scratch)))
    CORPUS.write_text(HEADER + "\n" + "\n".join(entries), encoding="utf-8")
    print(f"wrote {len(entries)} entries to {CORPUS}")


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN_DIR.parent.parent / "src"))
    main()
