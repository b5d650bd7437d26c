"""``python -m repro campaign ...`` end-to-end through the CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

SPEC = """\
experiment: fig5
base:
  method: TCIO
  nprocs: 4
axes:
  len_array: [64, 256]
"""


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "lenscan.yaml"
    path.write_text(SPEC)
    return path


class TestCampaignCli:
    def test_run_then_query(self, tmp_path, spec_file, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", str(spec_file), "--store", store]) == 0
        out = capsys.readouterr().out
        assert "sweep 'lenscan': ran 2 fig5 point(s)" in out

        assert main([
            "campaign", "query", "--store", store,
            "--experiment", "fig5", "--where", "len_array=64",
        ]) == 0
        out = capsys.readouterr().out
        assert "len_array=64" in out
        assert "-- 1 record(s) of 2" in out

    def test_query_distinct_and_json(self, tmp_path, spec_file, capsys):
        store = str(tmp_path / "store")
        main(["campaign", "run", str(spec_file), "--store", store])
        capsys.readouterr()
        assert main([
            "campaign", "query", "--store", store, "--distinct", "len_array",
        ]) == 0
        assert capsys.readouterr().out.split() == ["64", "256"]
        assert main(["campaign", "query", "--store", store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2

    def test_report_chart_and_svg(self, tmp_path, spec_file, capsys):
        store = str(tmp_path / "store")
        svg_path = tmp_path / "chart.svg"
        main(["campaign", "run", str(spec_file), "--store", store])
        capsys.readouterr()
        assert main([
            "campaign", "report", "--store", store,
            "--experiment", "fig5", "-x", "len_array",
            "-y", "write_throughput", "--svg", str(svg_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "write_throughput vs len_array" in out
        assert svg_path.read_text().startswith("<svg ")

    def test_report_smoke_is_bit_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        store = str(tmp_path / "store")
        for out in (out1, out2):
            assert main([
                "campaign", "report", "--smoke",
                "--store", store, "--out", str(out),
            ]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        body = out1.read_text()
        assert "campaign smoke report" in body
        assert "<svg " in body

    def test_report_section_replay(self, tmp_path, capsys):
        from repro.experiments.common import SMOKE
        from repro.experiments.report import build_section
        from repro.perf.points import points_for

        from repro.campaign.store import CampaignStore
        from repro.perf.campaign import CampaignRunner

        # fill a store with the fig5 SMOKE grid, then replay from it
        store = str(tmp_path / "store")
        CampaignRunner(1, store=CampaignStore(store)).run(
            points_for("fig5", SMOKE)
        )
        assert main([
            "campaign", "report", "--store", store,
            "--section", "fig5", "--scale", "smoke",
        ]) == 0
        out = capsys.readouterr().out
        assert out.rstrip("\n") == build_section(
            "fig5", SMOKE, verbose=False
        ).rstrip("\n")

    def test_explore_bisect(self, tmp_path, capsys):
        assert main([
            "campaign", "explore", "--search", "bisect",
            "--candidates", "8,12,16,24",
        ]) == 0
        out = capsys.readouterr().out
        assert "crossover search" in out
        assert "frontier: between nprocs=12 and nprocs=16" in out
        assert "skipped vs the exhaustive grid" in out

    def test_ingest_bench_baseline(self, tmp_path, capsys):
        from pathlib import Path

        bench = Path(__file__).resolve().parents[2] / "BENCH_8.json"
        store = str(tmp_path / "store")
        assert main([
            "campaign", "ingest", "--store", store, "--bench", str(bench),
        ]) == 0
        out = capsys.readouterr().out
        assert "hostbench point(s)" in out

    def test_ingest_nothing_fails(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "ingest", "--store", store]) == 1
        assert "nothing to ingest" in capsys.readouterr().err

    def test_report_without_mode_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "report", "--store", str(tmp_path)])

    def test_expected_errors_exit_cleanly(self, tmp_path, capsys):
        # ReproError subclasses become exit 1 + a message, not a traceback
        assert main(["campaign", "run", str(tmp_path / "missing.yaml")]) == 1
        assert "error: cannot read sweep spec" in capsys.readouterr().err
        assert main([
            "campaign", "report", "--store", str(tmp_path / "empty"),
            "--section", "fig5", "--scale", "smoke",
        ]) == 1
        assert "store is missing results" in capsys.readouterr().err
