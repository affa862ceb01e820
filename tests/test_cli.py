import pytest

from lumenkit.cli import EXIT_CONFIG, main


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
