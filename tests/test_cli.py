"""Unit tests for the command-line interface."""

import json
import re

import pytest

import repro
from repro.cli import (
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_USER_ERROR,
    EXPERIMENTS,
    build_parser,
    main,
)


COMMON = [
    "--roads", "70", "--queried", "10", "--train-days", "8",
    "--test-days", "2", "--slots", "4", "--seed", "3",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_defaults(self):
        args = build_parser().parse_args(["dataset"])
        assert args.name == "semisyn"
        assert args.roads == 150

    def test_query_selector_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--selector", "genie"])

    def test_experiment_choices(self):
        assert "figure3" in EXPERIMENTS
        assert "daily_refresh" in EXPERIMENTS
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure99"])

    def test_refresh_defaults(self):
        args = build_parser().parse_args(["refresh"])
        assert args.learning_rate == pytest.approx(0.05)
        assert args.days is None
        assert args.roads == 60

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.workers == 2
        assert args.queue_depth == 64
        assert args.requests is None
        assert args.deadline_ms is None
        # serve reuses the shared dataset argument group
        assert args.name == "semisyn"
        assert args.seed == 2018


class TestDatasetCommand:
    def test_prints_summary(self, capsys):
        assert main(["dataset", *COMMON]) == 0
        out = capsys.readouterr().out
        assert "|R|=70" in out
        assert "train: 8 days" in out

    def test_saves_artifacts(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        hist_path = tmp_path / "hist.npz"
        code = main(
            [
                "dataset", *COMMON,
                "--save-network", str(net_path),
                "--save-history", str(hist_path),
            ]
        )
        assert code == 0
        network = repro.network_from_json(net_path)
        assert network.n_roads == 70
        history = repro.SpeedHistory.load(hist_path)
        assert history.n_roads == 70

    def test_gmission_dataset(self, capsys):
        assert main(["dataset", "--name", "gmission", "--train-days", "8",
                     "--test-days", "2", "--slots", "4"]) == 0
        assert "gmission" in capsys.readouterr().out


class TestFitCommand:
    def test_fit_and_save(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        code = main(["fit", *COMMON, "--output", str(model_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        assert model_path.exists()


class TestQueryCommand:
    def test_query_outputs_quality(self, capsys):
        code = main(["query", *COMMON, "--budget", "15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MAPE" in out
        assert "selected" in out

    def test_query_verbose_lists_roads(self, capsys):
        code = main(["query", *COMMON, "--budget", "15", "--verbose"])
        assert code == 0
        assert "estimate" in capsys.readouterr().out

    @pytest.mark.parametrize("selector", ["ratio", "objective", "random"])
    def test_query_selectors(self, capsys, selector):
        code = main(["query", *COMMON, "--budget", "10", "--selector", selector])
        assert code == 0


class TestRefreshCommand:
    def test_replays_days_and_reports_versions(self, capsys):
        code = main(["refresh", *COMMON, "--days", "2", "--budget", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "store version 1" in out
        assert "refreshed -> version 2" in out
        assert "refreshed -> version 3" in out
        assert "Γ_R derivations" in out


class TestExperimentCommand:
    def test_table2_quick(self, capsys):
        assert main(["experiment", "table2", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "semisyn" in out and "gmission" in out

    def test_figure2_quick(self, capsys):
        assert main(["experiment", "figure2", "--scale", "quick"]) == 0
        assert "Hybrid" in capsys.readouterr().out

    def test_table3_quick(self, capsys):
        assert main(["experiment", "table3", "--scale", "quick"]) == 0
        assert "/" in capsys.readouterr().out

    def test_scalability_quick(self, capsys):
        assert main(["experiment", "scalability", "--scale", "quick"]) == 0
        assert "GSP sweeps" in capsys.readouterr().out

    def test_query_patterns_quick(self, capsys):
        assert main(["experiment", "query_patterns", "--scale", "quick"]) == 0
        assert "hotspot" in capsys.readouterr().out


SERVE_COMMON = [
    "--roads", "60", "--queried", "12", "--train-days", "8",
    "--test-days", "2", "--slots", "5", "--seed", "3",
]


class TestServeCommand:
    def test_synthesized_workload_reports_percentiles(self, capsys):
        code = main(["serve", *SERVE_COMMON, "--n-requests", "16",
                     "--duplication", "4", "--workers", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "requests: 16" in out
        assert "p50" in out and "p99" in out
        assert "coalesced" in out

    def test_replays_jsonl_trace(self, tmp_path, capsys):
        # Slots fitted by `serve` start at the dataset's query slot; for
        # --slots 5 --train-days 8 the semisyn window starts at slot 86.
        trace = tmp_path / "trace.jsonl"
        lines = [
            json.dumps({"slot": 86, "queried": [1, 2, 3], "budget": 8}),
            json.dumps({"slot": 87, "queried": [4, 5], "budget": 8}),
            json.dumps({"slot": 86, "queried": [1, 2, 3], "budget": 8}),
        ]
        trace.write_text("\n".join(lines) + "\n")
        code = main(["serve", *SERVE_COMMON, "--requests", str(trace)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "requests: 3" in out

    def test_shadow_scores_the_built_in_backend(self, capsys):
        code = main(["serve", *SERVE_COMMON, "--n-requests", "6",
                     "--backend", "per", "--shadow", "rtf_gsp"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        match = re.search(r"shadow\[rtf_gsp\]: (\d+) scored, (\d+) errors", out)
        assert match is not None, out
        assert int(match.group(1)) > 0
        assert int(match.group(2)) == 0

    def test_deadline_degrades_requests(self, capsys):
        code = main(["serve", *SERVE_COMMON, "--n-requests", "8",
                     "--deadline-ms", "0.0001"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "degraded 8" in out
        assert "deadline=8" in out


class TestExitCodes:
    def test_user_error_trace_slot_out_of_window(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"slot": 999, "queried": [1], "budget": 5}\n')
        code = main(["serve", *SERVE_COMMON, "--requests", str(trace)])
        assert code == EXIT_USER_ERROR
        assert "error:" in capsys.readouterr().err

    def test_user_error_malformed_trace(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text("not json\n")
        code = main(["serve", *SERVE_COMMON, "--requests", str(trace)])
        assert code == EXIT_USER_ERROR
        assert "invalid JSON" in capsys.readouterr().err

    def test_internal_error_is_distinct(self, monkeypatch, capsys):
        def explode(args):
            raise RuntimeError("simulated bug")

        import repro.cli as cli_mod

        monkeypatch.setattr(cli_mod, "cmd_dataset", explode)
        # Rebind: set_defaults captured the old function, so go through
        # a fresh parser with the patched module function.
        monkeypatch.setattr(
            cli_mod, "build_parser", _patched_parser_factory(explode)
        )
        code = main(["dataset"])
        assert code == EXIT_INTERNAL_ERROR
        assert "internal error" in capsys.readouterr().err

    def test_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_USER_ERROR, EXIT_INTERNAL_ERROR}) == 3


def _patched_parser_factory(func):
    import argparse

    def factory():
        parser = argparse.ArgumentParser(prog="repro")
        sub = parser.add_subparsers(dest="command", required=True)
        p = sub.add_parser("dataset")
        p.set_defaults(func=func)
        return parser

    return factory
