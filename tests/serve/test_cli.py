"""The ``python -m repro serve`` argument surface."""

import queue
import socket
import threading

import pytest

from repro.serve import cli, protocol
from repro.serve.engine import ServeEngine
from repro.serve.server import ServeServer


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


@pytest.mark.parametrize("command", ["bench", "run"])
def test_batch_window_option_is_gone(command, capsys):
    # batching is work-conserving: there is no window to set
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--batch-window", "0.005"])
    assert exc.value.code == 2
    assert ("unrecognized arguments: --batch-window"
            in capsys.readouterr().err)


# the loop thread's traceback is the expected report of its death
@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_run_exits_nonzero_when_the_event_loop_dies(monkeypatch, capsys):
    # `serve run` used to sleep on with its socket closed until killed
    def broken_submit(self, batch):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(ServeEngine, "submit", broken_submit)
    started = queue.Queue()

    class AnnouncingServer(ServeServer):
        def start(self):
            address = super().start()
            started.put(address)
            return address

    monkeypatch.setattr(cli, "ServeServer", AnnouncingServer)
    rc = []
    runner = threading.Thread(target=lambda: rc.append(cli.main(["run"])),
                              daemon=True)
    runner.start()
    host, port = started.get(timeout=10)
    with socket.create_connection((host, port), timeout=10) as conn:
        conn.sendall(protocol.encode({"op": "hello", "tenant": 0,
                                      "proto": protocol.PROTOCOL})
                     + protocol.encode({"op": "malloc", "req": 0,
                                        "size": 64}))
        runner.join(timeout=5)
    assert not runner.is_alive(), "serve run outlived its event loop"
    assert rc == [1]
    assert "engine fault" in capsys.readouterr().err


@pytest.mark.parametrize("cps", ["0", "-5", "nan"])
def test_bench_pacing_rate_must_be_positive(cps, capsys):
    # these used to run unpaced without a word
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--cps", cps])
    assert exc.value.code == 2
    assert "argument --cps: must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bench", "--backend", "nope"],
    ["bench", "--backend", "ours", "--backend", "nope"],
    ["run", "--backend", "nope"],
    ["record", "--backend", "nope"],
])
def test_unknown_backend_is_a_usage_error(argv, tmp_path, capsys):
    # these used to end in an UnknownBackend traceback (exit 1)
    out = tmp_path / "served.jsonl"
    if argv[0] == "record":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --backend: unknown backend 'nope'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bench", "record"])
@pytest.mark.parametrize("flag, value", [
    ("--events", "0"), ("--events", "-1"),
    ("--tenants", "0"), ("--tenants", "-2"),
])
def test_traffic_counts_must_be_positive(command, flag, value, tmp_path,
                                         capsys):
    # `record --events 0` used to write an empty trace and exit 0, and
    # a negative tenant count was caught only by the generator
    out = tmp_path / "served.jsonl"
    argv = [command, flag, value]
    if command == "record":
        argv += ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert (f"argument {flag}: must be >= 1 (got {value})"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("port, message", [
    ("70000", "argument --port: must be <= 65535 (got 70000)"),
    ("65536", "argument --port: must be <= 65535 (got 65536)"),
    ("-1", "argument --port: must be >= 0 (got -1)"),
])
def test_port_out_of_range_is_a_usage_error(port, message, capsys):
    # these used to reach bind() and end in an OverflowError traceback
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--port", port])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
