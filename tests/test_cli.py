"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign", "--model", "pulse"])
        assert args.tool == "fades"
        assert args.pool == "ffs"
        assert args.band == 1

    def test_values_parsing(self):
        args = build_parser().parse_args(
            ["--values", "1,0x20,300", "info"])
        assert args.values == (1, 0x20, 300 & 0xFF)

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--model", "gremlin"])

    def test_campaign_runtime_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--model", "bitflip", "--workers", "4",
             "--journal", "out.jsonl"])
        assert args.workers == 4
        assert args.journal == "out.jsonl"

    def test_resume_defaults(self):
        args = build_parser().parse_args(["resume", "out.jsonl"])
        assert args.journal == "out.jsonl"
        assert args.workers == 0

    def test_report_workers(self):
        args = build_parser().parse_args(["report", "--workers", "2"])
        assert args.workers == 2


class TestCommands:
    def test_info(self, capsys):
        assert main(["--values", "7,2,5", "info"]) == 0
        out = capsys.readouterr().out
        assert "workload" in out
        assert "virtex1000-like" in out
        assert "unit ALU" in out

    def test_campaign_fades(self, capsys):
        code = main(["--values", "7,2,5", "campaign", "--model", "bitflip",
                     "--pool", "ffs", "--count", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FADES | bitflip @ ffs" in out
        assert "n=3" in out
        assert "s/fault" in out

    def test_pruned_campaign_prints_the_unpruned_tally(self, capsys):
        args = ["--values", "7,2,5", "campaign", "--model", "bitflip",
                "--count", "12", "--backend", "compiled"]
        assert main(args) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(args + ["--prune-silent"]) == 0
        pruned = capsys.readouterr().out.splitlines()
        assert pruned[:2] == plain[:2]
        summary = re.fullmatch(r"statically resolved: (\d+) pruned "
                               r"\(proven Silent\); (\d+) emulated",
                               pruned[3])
        assert summary is not None, pruned[3]
        assert int(summary[1]) > 0
        assert int(summary[1]) + int(summary[2]) == 12

    def test_progress_prints_each_count_once(self, capsys, tmp_path):
        # The final snapshot repeats the last record's count: one line.
        journal = str(tmp_path / "campaign.jsonl")
        code = main(["--values", "7,2,5", "campaign", "--model", "bitflip",
                     "--count", "3", "--journal", journal])
        assert code == 0
        assert capsys.readouterr().err.count("[3/3]") == 1
        # A resume with nothing left to run still reports where it is.
        assert main(["resume", journal]) == 0
        assert capsys.readouterr().err.count("[3/3]") == 1

    def test_campaign_vfit(self, capsys):
        code = main(["--values", "7,2,5", "campaign", "--tool", "vfit",
                     "--model", "indetermination", "--count", "3"])
        assert code == 0
        assert "VFIT" in capsys.readouterr().out

    def test_campaign_vfit_delay_fails_cleanly(self, capsys):
        code = main(["--values", "7,2,5", "campaign", "--tool", "vfit",
                     "--model", "delay", "--pool", "nets:seq",
                     "--count", "2"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_seu(self, capsys):
        code = main(["--values", "7,2,5", "seu", "--count", "5",
                     "--occupied"])
        assert code == 0
        out = capsys.readouterr().out
        assert "essential" in out

    @pytest.mark.parametrize("flags", [
        ["--model", "pulse", "--pool", "nonsense"],
        ["--model", "bitflip", "--pool", "memory"],
        ["--model", "delay", "--pool", "nets"],
        ["--tool", "vfit", "--model", "bitflip", "--pool", "memory"],
        ["--tool", "vfit", "--model", "pulse", "--pool", "ffs"],
    ], ids=["nonsense", "bare-memory", "bare-nets", "vfit-bare-memory",
            "vfit-pulse-ffs"])
    def test_bad_pool_reports_error(self, capsys, flags):
        code = main(["--values", "7,2,5", "campaign", *flags,
                     "--count", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error" in err
        assert "Traceback" not in err

    def test_campaign_workers_journal_then_resume(self, capsys, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        code = main(["--values", "7,2,5", "campaign", "--model", "bitflip",
                     "--count", "4", "--workers", "2",
                     "--journal", journal])
        assert code == 0
        out = capsys.readouterr().out
        assert "n=4" in out
        code = main(["resume", journal])
        assert code == 0
        captured = capsys.readouterr()
        # The resume banner is diagnostic: it logs to stderr, keeping
        # stdout to the result tally alone.
        assert "4 journaled, 0 pending" in captured.err
        assert "failure" in captured.out

    def test_campaign_vfit_workers_prints_the_in_process_run(self, capsys):
        vfit = ["--values", "7,2,5", "campaign", "--tool", "vfit",
                "--model", "bitflip", "--count", "2"]
        assert main(vfit) == 0
        in_process = capsys.readouterr().out
        assert main(vfit + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == in_process

    @pytest.mark.parametrize("flags,reason", [
        (["--prune-silent"], "static pruning"),
        (["--backend", "compiled"], "compiled backend"),
        (["--strategy", "stratified"], "stratified strategy"),
    ], ids=["prune-silent", "compiled", "stratified"])
    def test_campaign_vfit_refuses_fades_settings(self, capsys, flags,
                                                  reason):
        code = main(["--values", "7,2,5", "campaign", "--tool", "vfit",
                     "--model", "bitflip", "--count", "2", *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert reason in captured.err
        assert "FADES setting" in captured.err
        assert captured.out == ""

    def test_resume_missing_journal_fails_cleanly(self, capsys, tmp_path):
        code = main(["resume", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_screen_threads_the_cli_seed(self, capsys, monkeypatch):
        from repro.core.campaign import FadesCampaign
        seen = {}

        def fake_screen(self, cycles, samples_per_ff=2, seed=None):
            seen["seed"] = seed
            return []

        monkeypatch.setattr(FadesCampaign, "screen_sensitive_ffs",
                            fake_screen)
        code = main(["--values", "7,2,5", "--seed", "99", "screen"])
        assert code == 0
        assert seen["seed"] == 99
