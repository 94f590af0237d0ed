"""The ``python -m repro backends`` argument surface."""

import pytest

from repro.backends import cli


@pytest.mark.parametrize("argv", [
    ["conform", "--backend", "nope"],
    ["conform", "--backend", "bump", "--backend", "nope"],
])
def test_unknown_backend_is_a_usage_error(argv, capsys):
    # this used to end in an UnknownBackend traceback (exit 1)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --backend: unknown backend 'nope'" in err
    assert "Traceback" not in err


def test_conform_accepts_an_alias(capsys):
    assert cli.main(["conform", "--backend", "bump pointer"]) == 0
    assert "checks passed" in capsys.readouterr().out
