import pytest

from lumenkit.cli import EXIT_CONFIG, EXIT_INFEASIBLE, main


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
