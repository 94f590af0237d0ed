"""The ``python -m repro workloads`` surface."""

import pytest

import repro.__main__ as repro_main
from repro.workloads import cli
from repro.workloads.trace import load


class TestList:
    def test_lists_families_and_params(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "multi_tenant_zipf" in out
        assert "diurnal_burst" in out
        assert "--param tenants=" in out


class TestGen:
    def test_writes_a_valid_trace(self, tmp_path, capsys):
        out_path = tmp_path / "t.jsonl"
        rc = cli.main(["gen", "--family", "multi_tenant_zipf", "--seed", "3",
                       "--out", str(out_path), "--param", "events=60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "events" in out and str(out_path) in out
        t = load(out_path)
        assert t.seed == 3
        assert t.params["events"] == 60

    def test_param_type_coercion(self, tmp_path):
        out_path = tmp_path / "t.jsonl"
        rc = cli.main(["gen", "--family", "diurnal_burst", "--seed", "1",
                       "--out", str(out_path),
                       "--param", "events=40",
                       "--param", "burst=2.5",
                       "--param", "size_classes=64,256"])
        assert rc == 0
        t = load(out_path)
        assert t.params["burst"] == 2.5
        assert t.params["size_classes"] == [64, 256]

    def test_unknown_family_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "--family", "nope", "--out",
                      str(tmp_path / "t.jsonl")])
        assert exc.value.code == 2

    def test_bad_param_reports_not_crashes(self, tmp_path, capsys):
        rc = cli.main(["gen", "--family", "multi_tenant_zipf",
                       "--out", str(tmp_path / "t.jsonl"),
                       "--param", "warp_size=32"])
        assert rc == 2
        assert "warp_size" in capsys.readouterr().err

    def test_malformed_param_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "--family", "multi_tenant_zipf",
                      "--out", str(tmp_path / "t.jsonl"),
                      "--param", "events"])
        assert exc.value.code == 2


class TestReplay:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert cli.main(["gen", "--family", "multi_tenant_zipf",
                         "--seed", "2", "--out", str(path),
                         "--param", "events=60",
                         "--param", "mean_gap=40"]) == 0
        return path

    def test_replay_prints_qos_table(self, trace_path, capsys):
        assert cli.main(["replay", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "== ours" in out
        assert "tenant" in out and "share" in out

    def test_replay_multiple_backends_sharded(self, trace_path, capsys):
        rc = cli.main(["replay", str(trace_path), "--backend", "ours",
                       "--backend", "cuda", "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== ours ==" in out and "== cuda ==" in out

    def test_missing_trace_reports_not_crashes(self, tmp_path, capsys):
        rc = cli.main(["replay", str(tmp_path / "missing.jsonl")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--lanes", "0"], "argument --lanes: must be >= 1 (got 0)"),
        (["--lanes", "-3"], "argument --lanes: must be >= 1 (got -3)"),
        (["--pool", "0"], "argument --pool: must be >= 1 (got 0)"),
        (["--pool", "-5"], "argument --pool: must be >= 1 (got -5)"),
        (["--pool", "100"], "argument --pool: ours cannot use 100 bytes: "),
    ])
    def test_hostile_options_are_usage_errors(self, trace_path, argv,
                                              message, capsys):
        # these used to raise a ValueError traceback (exit 1) mid-replay
        try:
            rc = cli.main(["replay", str(trace_path), *argv])
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


class TestMainDispatch:
    def test_main_module_dispatches_workloads(self, capsys):
        assert repro_main.main(["workloads", "list"]) == 0
        assert "multi_tenant_zipf" in capsys.readouterr().out
