"""CLI smoke tests."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Lonestar" in out
        assert "30 OSTs" in out

    def test_bench_tcio(self, capsys):
        assert main(["bench", "--method", "tcio", "--procs", "4", "--len", "64"]) == 0
        out = capsys.readouterr().out
        assert "write:" in out and "read:" in out

    def test_bench_by_table_i_code(self, capsys):
        assert main(["bench", "--method", "0", "--procs", "4", "--len", "64"]) == 0
        assert "OCIO" in capsys.readouterr().out

    def test_faults_bench(self, capsys):
        assert main(
            ["faults", "bench", "--seed", "1", "--rate", "0.2",
             "--procs", "4", "--len", "64"]
        ) == 0
        out = capsys.readouterr().out
        assert "faulted TCIO" in out
        assert "verified OK" in out
        assert "injected=" in out

    def test_bench_node_aggregation(self, capsys):
        assert main(
            ["bench", "--method", "tcio", "--procs", "4", "--len", "64",
             "--aggregation", "node"]
        ) == 0
        assert "write:" in capsys.readouterr().out

    def test_bench_rejects_unknown_aggregation(self):
        with pytest.raises(SystemExit):
            main(["bench", "--aggregation", "tree"])

    def test_topo_ablation(self, capsys):
        assert main(
            ["topo", "--procs", "16", "--cores-per-node", "4", "--len", "512"]
        ) == 0
        out = capsys.readouterr().out
        assert "topo ablation" in out
        assert "node/flat reduction" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "statement ratio" in out

    def test_trace_bench_tiny(self, capsys, tmp_path):
        out_dir = tmp_path / "traced"
        assert main(["trace", "bench", "--tiny", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "span timeline" in out
        trace = json.loads((out_dir / "bench.trace.json").read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        metrics = json.loads((out_dir / "bench.metrics.json").read_text())
        assert "tcio" in metrics and "counters" in metrics

    @pytest.mark.parametrize(
        "argv, steps",
        [
            (["faults", "--crash-at", "bogus"], "pre-deposit"),
            (["faults", "--crash-at", "bogus", "--ft"], "pre-deposit"),
            (["faults", "--crash-at", "srv-admit", "--ft"], "pre-deposit"),
            (["ioserver", "--crash-step", "bogus"], "srv-admit"),
            (["ioserver", "--crash-step", "bogus", "--failover"], "srv-admit"),
            (["ioserver", "--crash-step", "mid-flush"], "srv-admit"),
        ],
    )
    def test_unknown_crash_step_exits_2_before_simulating(
        self, argv, steps, capsys, monkeypatch
    ):
        import repro.crash.harness as harness

        def no_simulation(*args, **kwargs):
            raise AssertionError("a crash cell ran for an invalid step")

        monkeypatch.setattr(harness, "aim", no_simulation)
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"unknown crash step {argv[2]!r} (choose from ")
        assert f"'{steps}'" in out

    def test_trace_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["trace", "fig999"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
