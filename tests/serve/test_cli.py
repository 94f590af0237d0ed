"""The ``python -m repro serve`` argument surface."""

import pytest

from repro.serve import cli


@pytest.fixture(autouse=True)
def no_server(monkeypatch):
    """A usage error must stop before any socket is opened."""
    def refuse(*args, **kwargs):
        raise AssertionError("a server was built for a rejected command")

    monkeypatch.setattr(cli, "ServeServer", refuse)


@pytest.mark.parametrize("command", ["bench", "run"])
@pytest.mark.parametrize("argv, message", [
    (["--pool", "0"], "argument --pool: must be >= 1 (got 0)"),
    (["--pool", "-5"], "argument --pool: must be >= 1 (got -5)"),
    (["--pool", "100"], "argument --pool: ours cannot use 100 bytes: "),
    (["--batch-max", "0"], "argument --batch-max: must be >= 1 (got 0)"),
    (["--quota", "-1"], "argument --quota: must be >= 0 (got -1)"),
    (["--batch-window", "-1"], "argument --batch-window: must be > 0"),
])
def test_hostile_options_are_usage_errors(command, argv, message, capsys):
    # these used to raise a ValueError traceback (exit 1)
    try:
        rc = cli.main([command, *argv])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("cps", ["0", "-5", "nan"])
def test_bench_pacing_rate_must_be_positive(cps, capsys):
    # these used to run unpaced without a word
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--cps", cps])
    assert exc.value.code == 2
    assert "argument --cps: must be > 0" in capsys.readouterr().err
