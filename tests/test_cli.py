import numpy as np
import pytest

from lumenkit import PHOTOPIC, Sampled, SampledSpectrum, per
from lumenkit.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_PARSE, main


@pytest.mark.parametrize("argv", [
    ["per", "--planck", "inf"],
    ["maxper", "--x", "nan", "--y", "0.3"],
    ["per", "--planck", "--sweep", "nan", "6000", "100"],
    ["locus", "nan", "6000", "100"],
])
def test_non_finite_arguments_exit_with_config_error(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_maxper_just_outside_the_gamut_exits_infeasible(capsys):
    # 1.75e-6 outside the purple edge, where in_gamut says no.
    assert main(["maxper", "--x", "0.65", "--y", "0.2225"]) == EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("infeasible")


# --- --planck ---


def test_planck_nan_is_not_finite(capsys):
    assert main(["per", "--planck", "nan"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert "finite" in err


def test_planck_temperature_with_sweep_is_a_config_error(capsys):
    assert main(["per", "--planck", "5000", "--sweep", "1000", "1200", "100"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_bare_planck_with_sweep_prints_the_ladder(capsys):
    assert main(["per", "--planck", "--sweep", "1000", "1200", "100"]) == EXIT_OK
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "T_K,per_lm_per_w"
    assert [line.split(",")[0] for line in lines[1:]] == ["1000", "1100", "1200"]


# --- --file ---


def test_file_spectrum_matches_the_library(tmp_path, capsys):
    wl = np.arange(400.0, 701.0, 25.0)
    power = 1.0 + 0.5 * np.sin(wl / 40.0)
    rows = [f"{lam!r},{p!r}" for lam, p in zip(wl.tolist(), power.tolist())]
    path = tmp_path / "spectrum.csv"
    lines = ["wavelength_nm,power", rows[0], ""] + rows[1:] + [""]  # a blank line, CRLF
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    assert main(["per", "--file", str(path)]) == EXIT_OK
    out, _ = capsys.readouterr()
    result = per(Sampled(SampledSpectrum(wl, power)), PHOTOPIC, 683.0)
    assert out == f"per_lm_per_w,efficiency\n{result.per:.9g},{result.efficiency:.9g}\n"


@pytest.mark.parametrize("text, message", [
    ("lambda,power\n500,1\n510,1\n520,1\n530,1\n", "line 1"),
    ("wavelength_nm,power\n500,1\n510,1\n", "4 points"),
    ("wavelength_nm,power\n500,1\n510,zap\n520,1\n530,1\n", "line 3"),
    ("", "line 1"),
    ("wavelength_nm,power\n", "4 points"),
])
def test_bad_file_exits_with_parse_error(tmp_path, capsys, text, message):
    path = tmp_path / "spectrum.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["per", "--file", str(path)]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
