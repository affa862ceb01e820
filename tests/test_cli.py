import numpy as np
import pytest

from lumenkit import (
    PHOTOPIC,
    SCOTOPIC,
    Chromaticity,
    Flat,
    Gaussian,
    Line,
    Planck,
    Sampled,
    SampledSpectrum,
    Tabulated,
    TruncatedPlanck,
    chromaticity,
    compute_km,
    iso_per_scan,
    load_cmf,
    luminosity,
    max_per,
    per,
    per_sweep_planck,
    planckian_locus,
    tristimulus,
)
from lumenkit.cli import CMF_PATH_ENV, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_PARSE, main


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


# --- non-UTF-8 input ---


@pytest.mark.parametrize("flag", ["--file", "--cmf"])
def test_non_utf8_file_exits_with_parse_error(tmp_path, capsys, flag):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"wavelength_nm,power\n500,1\n510,\xff\n")
    argv = {"--file": ["per", "--file", str(path)],
            "--cmf": ["chroma", "--planck", "4000", "--cmf", str(path)]}[flag]
    assert main(argv) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: line 3: not UTF-8")


# --- every subcommand against the library ---


FILE_WL = np.arange(400.0, 701.0, 25.0)
FILE_POWER = 1.0 + 0.5 * np.sin(FILE_WL / 40.0)
BAND = (380.0, 780.0)

# (flags, model, bounds the CLI passes)
SOURCES = {
    "planck": (["--planck", "2856"], lambda: Planck(2856.0), (None, None)),
    "truncated": (["--truncated-planck", "3000", "420", "680"],
                  lambda: TruncatedPlanck(3000.0, 420.0, 680.0), (None, None)),
    "flat": (["--flat", "450", "650"], lambda: Flat(450.0, 650.0), (None, None)),
    "gaussian": (["--gaussian", "530", "20"], lambda: Gaussian(530.0, 20.0), BAND),
    "line": (["--line", "555"], lambda: Line(555.0), BAND),
    "file": (["--file", "{file}"], lambda: Sampled(SampledSpectrum(FILE_WL, FILE_POWER)),
             (None, None)),
    "bounds": (["--flat", "400", "700", "--lmin", "450", "--lmax", "600"],
               lambda: Flat(400.0, 700.0), (450.0, 600.0)),
}

V_MODES = {
    "photopic_analytic": lambda cmf: PHOTOPIC,
    "scotopic_analytic": lambda cmf: SCOTOPIC,
    "tabulated": Tabulated.from_cmf,
}


def _f(value):
    return f"{value:.9g}"


def _per_lines(model, v, km, bounds):
    result = per(model, v, km, *bounds)
    return ["per_lm_per_w,efficiency", f"{_f(result.per)},{_f(result.efficiency)}"]


def _chroma_lines(model, cmf, km, bounds):
    point = chromaticity(tristimulus(model, cmf, km, *bounds))
    return ["x,y", f"{_f(point.x)},{_f(point.y)}"]


def _maxper_lines(x, y, cmf, km, delta_lambda):
    solution = max_per(Chromaticity(x, y), cmf, km, delta_lambda)
    return ([f"max_per_lm_per_w,{_f(solution.objective_value)}", "lambda_nm,weight"]
            + [f"{_f(lam)},{_f(w)}" for lam, w in solution.support])


def _golden_cases():
    """(id, argv, expected lines from (table, K_m computed)), where the table
    is the one the invocation should read."""
    cases = [
        ("km", ["km"], lambda cmf, kc: [f"km_lm_per_w,{_f(kc)}"]),
        ("km-computed", ["km", "--km", "computed"], lambda cmf, kc: [f"km_lm_per_w,{_f(kc)}"]),
    ]
    for mode, make_v in V_MODES.items():
        for name, (flags, model, bounds) in SOURCES.items():
            cases.append((f"per-{name}-{mode}", ["per", *flags, "--v-mode", mode],
                          lambda cmf, kc, model=model, make_v=make_v, bounds=bounds:
                          _per_lines(model(), make_v(cmf), 683.0, bounds)))
        cases.append((f"per-sweep-{mode}",
                      ["per", "--planck", "--sweep", "1000", "2000", "500", "--v-mode", mode],
                      lambda cmf, kc, make_v=make_v: ["T_K,per_lm_per_w"] + [
                          f"{_f(t)},{_f(p)}" for t, p in
                          per_sweep_planck(1000.0, 2000.0, 500.0, make_v(cmf), 683.0).rows]))
        cases.append((f"vlambda-{mode}", ["vlambda", "--v-mode", mode],
                      lambda cmf, kc, make_v=make_v: ["lambda_nm,v"] + [
                          f"{_f(float(lam))},{_f(luminosity(make_v(cmf), float(lam)))}"
                          for lam in range(380, 781)]))
    for name, (flags, model, bounds) in SOURCES.items():
        cases.append((f"chroma-{name}", ["chroma", *flags],
                      lambda cmf, kc, model=model, bounds=bounds:
                      _chroma_lines(model(), cmf, 683.0, bounds)))
    cases += [
        ("per-km-computed", ["per", "--gaussian", "530", "20", "--km", "computed"],
         lambda cmf, kc: _per_lines(Gaussian(530.0, 20.0), PHOTOPIC, kc, BAND)),
        ("chroma-km-computed", ["chroma", "--planck", "6500", "--km", "computed"],
         lambda cmf, kc: _chroma_lines(Planck(6500.0), cmf, kc, (None, None))),
        ("chroma-cmf", ["chroma", "--planck", "6500", "--cmf", "{cmf}"],
         lambda cmf, kc: _chroma_lines(Planck(6500.0), cmf, 683.0, (None, None))),
        ("chroma-env", ["chroma", "--planck", "6500"],
         lambda cmf, kc: _chroma_lines(Planck(6500.0), cmf, 683.0, (None, None))),
        ("per-tabulated-env", ["per", "--planck", "2856", "--v-mode", "tabulated"],
         lambda cmf, kc: _per_lines(Planck(2856.0), Tabulated.from_cmf(cmf), 683.0,
                                    (None, None))),
        ("locus", ["locus", "2000", "3000", "250"],
         lambda cmf, kc: ["T_K,x,y"] + [f"{_f(t)},{_f(c.x)},{_f(c.y)}" for t, c in
                                        planckian_locus(2000.0, 3000.0, 250.0, cmf)]),
        ("locus-cmf", ["locus", "2000", "3000", "250", "--cmf", "{cmf}"],
         lambda cmf, kc: ["T_K,x,y"] + [f"{_f(t)},{_f(c.x)},{_f(c.y)}" for t, c in
                                        planckian_locus(2000.0, 3000.0, 250.0, cmf)]),
        ("maxper", ["maxper", "--x", "0.33", "--y", "0.33"],
         lambda cmf, kc: _maxper_lines(0.33, 0.33, cmf, 683.0, None)),
        ("maxper-delta-lambda", ["maxper", "--x", "0.4", "--y", "0.4", "--delta-lambda", "10"],
         lambda cmf, kc: _maxper_lines(0.4, 0.4, cmf, 683.0, 10.0)),
        ("maxper-km-computed-cmf",
         ["maxper", "--x", "0.3", "--y", "0.5", "--km", "computed", "--cmf", "{cmf}"],
         lambda cmf, kc: _maxper_lines(0.3, 0.5, cmf, kc, None)),
        ("isoper", ["isoper", "--grid-step", "0.05", "--delta-lambda", "10"],
         lambda cmf, kc: ["x,y,max_per"] + [
             f"{_f(x)},{_f(y)},{_f(v)}" for x, y, v in
             iso_per_scan(0.05, cmf, 683.0, 10.0).rows if v is not None]),
        ("output", ["per", "--planck", "2856", "--output", "{out}"],
         lambda cmf, kc: _per_lines(Planck(2856.0), PHOTOPIC, 683.0, (None, None))),
    ]
    return cases


GOLDEN = _golden_cases()


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory, cmf):
    """A spectrum file, and a 10 nm CMF table that differs from the packaged one."""
    root = tmp_path_factory.mktemp("golden")
    spectrum = root / "spectrum.csv"
    spectrum.write_text("wavelength_nm,power\n" + "".join(
        f"{lam!r},{p!r}\n" for lam, p in zip(FILE_WL.tolist(), FILE_POWER.tolist())),
        encoding="utf-8")
    table = root / "cmf10.csv"
    rows = zip(cmf.wavelengths_nm[::2].tolist(), cmf.xbar[::2].tolist(),
               cmf.ybar[::2].tolist(), cmf.zbar[::2].tolist())
    table.write_text("wavelength_nm,xbar,ybar,zbar\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in rows), encoding="utf-8")
    return {"file": str(spectrum), "cmf": str(table), "root": root}


@pytest.mark.parametrize("case_id, argv, expected", GOLDEN, ids=[c[0] for c in GOLDEN])
def test_cli_prints_the_library_values(case_id, argv, expected, golden_files, cmf,
                                       monkeypatch, capsys):
    out_path = golden_files["root"] / f"{case_id}.out"
    paths = {"file": golden_files["file"], "cmf": golden_files["cmf"], "out": str(out_path)}
    argv = [arg.format(**paths) for arg in argv]
    from_env = case_id.endswith("-env")
    if from_env:
        monkeypatch.setenv(CMF_PATH_ENV, golden_files["cmf"])
    else:
        monkeypatch.delenv(CMF_PATH_ENV, raising=False)
    table = load_cmf(golden_files["cmf"]) if from_env or golden_files["cmf"] in argv else cmf
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    text = "\n".join(expected(table, compute_km())) + "\n"
    if "--output" in argv:
        assert out == ""
        assert out_path.read_text(encoding="utf-8") == text
    else:
        assert out == text
    assert err == ""
