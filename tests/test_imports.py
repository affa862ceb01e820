"""What importing lumenkit and running `lumen` load.

Each `lumen` run is a new process, so a module it loads for nothing is
paid on every run.  Each case runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lumenkit

SRC = str(Path(lumenkit.__file__).resolve().parents[1])


def _modules_after(code: str) -> set[str]:
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True, timeout=60)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_submodule():
    loaded = _modules_after("import lumenkit")
    assert sorted(m for m in loaded if m.startswith("lumenkit.")) == []


@pytest.mark.parametrize("argv", [["km"], ["per", "--planck", "2856"]])
def test_analytic_subcommands_load_neither_colorimetry_nor_maxper(argv):
    loaded = _modules_after(f"from lumenkit.cli import main\nmain({argv!r})")
    assert "lumenkit.photometry" in loaded
    assert not {"lumenkit.colorimetry", "lumenkit.maxper", "dataclasses"} & loaded


@pytest.mark.parametrize("argv", [["chroma", "--planck", "2856"],
                                  ["locus", "2000", "3000", "500"]])
def test_table_subcommands_load_neither_photometry_nor_maxper(argv):
    loaded = _modules_after(f"from lumenkit.cli import main\nmain({argv!r})")
    assert "lumenkit.colorimetry" in loaded
    assert not {"lumenkit.photometry", "lumenkit.maxper", "dataclasses"} & loaded


def test_every_exported_name_resolves():
    assert len(lumenkit.__all__) == 52
    for name in lumenkit.__all__:
        assert getattr(lumenkit, name) is not None
    assert lumenkit.KM_SI == 683.0
    assert lumenkit.Planck is lumenkit.spectral.Planck
    assert lumenkit.KM_SI is lumenkit.photometry.KM_SI


def test_dir_lists_the_exported_names():
    assert set(lumenkit.__all__) <= set(dir(lumenkit))
    assert "__version__" in dir(lumenkit)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lumenkit.no_such_name  # noqa: B018
    assert not hasattr(lumenkit, "read_csv")


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lumenkit import *", namespace)
    assert set(lumenkit.__all__) <= set(namespace)
    assert namespace["max_per"] is lumenkit.maxper.max_per
