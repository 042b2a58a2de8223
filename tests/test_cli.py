"""CLI subcommands (exercised in-process through main())."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFootprint:
    def test_basic_platform(self, capsys):
        code, out, _ = run_cli(
            capsys, "footprint", "--node", "7", "--area", "98.5",
            "--dram", "4", "--ssd", "64",
        )
        assert code == 0
        assert "TOTAL" in out
        assert "SoC" in out and "DRAM" in out and "SSD" in out

    def test_soc_only(self, capsys):
        code, out, _ = run_cli(capsys, "footprint", "--node", "28", "--area", "50")
        assert code == 0
        assert "DRAM" not in out

    def test_mix_changes_total(self, capsys):
        _, default_out, _ = run_cli(capsys, "footprint", "--area", "100")
        _, solar_out, _ = run_cli(
            capsys, "footprint", "--area", "100", "--mix", "solar"
        )
        def total(text):
            return float(
                [line for line in text.splitlines() if "TOTAL" in line][0].split()[-1]
            )
        assert total(solar_out) < total(default_out)


class TestCpa:
    def test_lists_all_nodes(self, capsys):
        code, out, _ = run_cli(capsys, "cpa")
        assert code == 0
        for node in ("28", "7-euv", "3"):
            assert node in out

    def test_abatement_flag(self, capsys):
        _, strict, _ = run_cli(capsys, "cpa", "--abatement", "0.99")
        _, lax, _ = run_cli(capsys, "cpa", "--abatement", "0.95")
        assert strict != lax


class TestExperiment:
    def test_single_experiment(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "fig14")
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_all_experiments(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "all")
        assert code == 0
        assert "fig8" in out and "tab12" in out


class TestSocs:
    def test_catalog_listing(self, capsys):
        code, out, _ = run_cli(capsys, "socs")
        assert code == 0
        assert "Kirin 990" in out and "Snapdragon 835" in out


class TestExport:
    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "export", "fig14", "--panel", "1")
        assert code == 0
        assert out.startswith("x,")

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "export", "fig6", "--format", "json", "--panel", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["title"].startswith("Figure 6")

    def test_panel_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "export", "fig14", "--panel", "9")
        assert code == 2
        assert "out of range" in err

    def test_table_only_experiment_has_no_panels(self, capsys):
        code, _, err = run_cli(capsys, "export", "tab7")
        assert code == 2
        assert "no figure panels" in err


class TestConfigAndReport:
    CONFIG = (
        '{"name": "cli phone", "components": ['
        '{"type": "logic", "name": "SoC", "area_mm2": 98.5, "node": "7"},'
        '{"type": "dram", "name": "DRAM", "capacity_gb": 4}]}'
    )

    def test_footprint_from_config(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(self.CONFIG)
        code, out, _ = run_cli(capsys, "footprint", "--config", str(path))
        assert code == 0
        assert "SoC" in out and "TOTAL" in out

    def test_report_from_config(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(self.CONFIG)
        code, out, _ = run_cli(capsys, "report", "--config", str(path))
        assert code == 0
        assert "Product environmental report — cli phone" in out
        assert "Assumptions" in out


class TestSensitivity:
    def test_tornado_and_mc(self, capsys):
        code, out, _ = run_cli(capsys, "sensitivity", "--top", "4",
                               "--draws", "100")
        assert code == 0
        assert "Tornado" in out
        assert "Monte Carlo (100 draws)" in out
        # Four parameter rows plus headers.
        assert out.count("\n") > 6


class TestMonteCarlo:
    def test_batched_distribution(self, capsys):
        code, out, _ = run_cli(
            capsys, "montecarlo", "--draws", "500", "--seed", "7",
            "--percentiles", "10,90",
        )
        assert code == 0
        assert "batched engine, 500 draws, seed 7" in out
        assert "p10" in out and "p90" in out
        assert "points/sec" in out

    def test_reproducible_with_seed(self, capsys):
        _, first, _ = run_cli(capsys, "montecarlo", "--draws", "300")
        _, second, _ = run_cli(capsys, "montecarlo", "--draws", "300")
        mean = lambda text: [  # noqa: E731
            line for line in text.splitlines() if line.startswith("mean")
        ][0]
        assert mean(first) == mean(second)

    def test_uniform_distribution_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "montecarlo", "--draws", "200", "--distribution", "uniform"
        )
        assert code == 0
        assert "uniform" in out

    def test_bad_percentiles_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "montecarlo", "--draws", "100", "--percentiles", "5,banana"
        )
        assert code == 2
        assert "invalid percentile list" in err

    def test_out_of_range_percentiles_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "montecarlo", "--draws", "100", "--percentiles", "5,101"
        )
        assert code == 2
        assert "must be numbers in [0, 100]" in err


class TestWorkers:
    def test_invalid_worker_count_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "montecarlo", "--draws", "100", "--workers", "0"
        )
        assert code == 2
        assert "workers must be" in err

    def test_experiment_invalid_worker_count_exits_2(self, capsys):
        # Experiments run in-process and take no --workers at all, so
        # every worker count is invalid there.
        for workers in ("-3", "1", "2"):
            with pytest.raises(SystemExit) as excinfo:
                run_cli(capsys, "experiment", "fig14", "--workers", workers)
            assert excinfo.value.code == 2
            assert "--workers" in capsys.readouterr().err

    def test_montecarlo_invariant_across_worker_counts(self, capsys):
        # The sharded sample stream is a function of (seed, shard size),
        # never of worker count, so the statistics must agree to the digit.
        _, two, _ = run_cli(
            capsys, "montecarlo", "--draws", "400", "--workers", "2"
        )
        code, four, _ = run_cli(
            capsys, "montecarlo", "--draws", "400", "--workers", "4"
        )
        assert code == 0
        stats = lambda text: [  # noqa: E731
            line
            for line in text.splitlines()
            if line.startswith(("mean", "std", "p"))
        ]
        assert stats(two) == stats(four)

    def test_sensitivity_invariant_across_worker_counts(self, capsys):
        _, two, _ = run_cli(capsys, "sensitivity", "--draws", "300", "--workers", "2")
        code, four, _ = run_cli(
            capsys, "sensitivity", "--draws", "300", "--workers", "4"
        )
        assert code == 0
        assert two == four


class TestBaselines:
    def test_comparison_output(self, capsys):
        code, out, _ = run_cli(capsys, "baselines")
        assert code == 0
        assert "GreenChip" in out
        assert "Exergy blind spot" in out
        assert "identically" in out


class TestValidate:
    def test_shipped_data_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out


class TestExtensions:
    def test_extension_summary(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "extensions")
        assert code == 0
        assert "ext-chiplets" in out and "ext-server" in out

    def test_single_extension(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "ext-baselines")
        assert code == 0
        assert "PASS" in out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestErrorHandling:
    def test_repro_error_becomes_one_line_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "experiment", "fig999")
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_debug_flag_reraises(self):
        from repro.core.errors import ReproError

        with pytest.raises(ReproError):
            main(["--debug", "experiment", "fig999"])


class TestMonteCarloGuarded:
    def test_strict_policy_runs_and_is_labelled(self, capsys):
        code, out, _ = run_cli(
            capsys, "montecarlo", "--draws", "300", "--policy", "strict"
        )
        assert code == 0
        assert "policy=strict" in out

    def test_guarded_mean_matches_unguarded(self, capsys):
        _, plain, _ = run_cli(capsys, "montecarlo", "--draws", "300")
        _, guarded, _ = run_cli(
            capsys, "montecarlo", "--draws", "300", "--policy", "strict"
        )
        mean = lambda text: [  # noqa: E731
            line for line in text.splitlines() if line.startswith("mean")
        ][0]
        assert mean(plain) == mean(guarded)


class TestMonteCarloCheckpoint:
    def test_interrupted_run_exits_3_with_resume_hint(self, capsys, tmp_path):
        path = tmp_path / "mc.npz"
        code, _, err = run_cli(
            capsys, "montecarlo", "--draws", "5000", "--chunk-rows", "512",
            "--checkpoint", str(path), "--max-seconds", "0",
        )
        assert code == 3
        assert "interrupted" in err
        assert "--resume" in err
        assert path.exists()

    def test_resume_completes_with_same_output_as_uninterrupted(
        self, capsys, tmp_path
    ):
        path = tmp_path / "mc.npz"
        run_cli(
            capsys, "montecarlo", "--draws", "2000", "--chunk-rows", "256",
            "--checkpoint", str(path), "--max-seconds", "0",
        )
        code, resumed, _ = run_cli(
            capsys, "montecarlo", "--draws", "2000", "--chunk-rows", "256",
            "--checkpoint", str(path), "--resume",
        )
        assert code == 0
        _, uninterrupted, _ = run_cli(
            capsys, "montecarlo", "--draws", "2000", "--chunk-rows", "256"
        )
        stats = lambda text: [  # noqa: E731
            line for line in text.splitlines()
            if line.startswith(("mean", "| p"))
        ]
        assert stats(resumed) == stats(uninterrupted)

    def test_resume_with_wrong_seed_is_a_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "mc.npz"
        run_cli(
            capsys, "montecarlo", "--draws", "2000", "--chunk-rows", "256",
            "--checkpoint", str(path), "--max-seconds", "0",
        )
        code, _, err = run_cli(
            capsys, "montecarlo", "--draws", "2000", "--seed", "99",
            "--checkpoint", str(path), "--resume",
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "different run configuration" in err

    def test_resume_without_checkpoint_file_errors_cleanly(
        self, capsys, tmp_path
    ):
        code, _, err = run_cli(
            capsys, "montecarlo", "--draws", "100",
            "--checkpoint", str(tmp_path / "missing.npz"), "--resume",
        )
        assert code == 2
        assert "does not exist" in err


class TestObservabilityFlags:
    def test_profile_prints_a_deep_span_tree(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "fig10")
        assert code == 0
        assert "span tree:" in out
        assert "experiment.fig10" in out
        assert "engine.kernels" in out
        # Three nesting levels: experiment -> provisioning -> kernels.
        assert "      - engine.kernels" in out
        assert "cache:" in out

    def test_profile_all_prints_per_experiment_costs(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "all")
        assert code == 0
        assert "per-experiment cost:" in out
        assert "fig10" in out

    def test_trace_flag_writes_valid_jsonl(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _, err = run_cli(
            capsys, "profile", "fig10", "--trace", str(path)
        )
        assert code == 0
        assert "trace:" in err
        events = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {event["event"] for event in events}
        assert {"run_start", "span_start", "span_end",
                "cache_stats", "run_end"} <= kinds
        assert events[0]["event"] == "run_start"
        assert events[0]["manifest"]["argv"] is not None
        stats = [e for e in events if e["event"] == "cache_stats"][0]
        assert {"hits", "misses", "evictions"} <= set(stats)

    def test_trace_works_on_ordinary_subcommands(self, capsys, tmp_path):
        path = tmp_path / "mc.jsonl"
        code, out, _ = run_cli(
            capsys, "montecarlo", "--draws", "500", "--trace", str(path)
        )
        assert code == 0
        events = [json.loads(line) for line in path.read_text().splitlines()]
        names = [e.get("name") for e in events if e["event"] == "span_start"]
        assert "analysis.montecarlo" in names
        end = [e for e in events if e["event"] == "run_end"][0]
        assert end["metrics"]["counters"]["engine.cache.misses"] >= 1

    def test_metrics_flag_prints_summary_to_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "montecarlo", "--draws", "500", "--metrics"
        )
        assert code == 0
        assert "== metrics ==" in err
        assert "engine.rows_evaluated" in err
        assert "== metrics ==" not in out

    def test_without_flags_the_null_context_stays_active(self, capsys):
        from repro.obs.context import NULL_CONTEXT, current_context

        code, _, err = run_cli(capsys, "experiment", "fig14")
        assert code == 0
        assert current_context() is NULL_CONTEXT
        assert "metrics" not in err


class TestExperimentJson:
    def test_single_experiment_json(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "fig14", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["experiments"][0]["experiment_id"] == "fig14"
        checks = payload["experiments"][0]["checks"]
        assert checks and all("passed" in check for check in checks)

    def test_all_experiments_json(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "all", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["experiments"]) == 19
        assert payload["all_passed"] is True


class TestMonteCarloCacheStats:
    def test_cache_line_reports_hits_and_misses(self, capsys):
        code, out, _ = run_cli(capsys, "montecarlo", "--draws", "500")
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("cache:")][0]
        assert "misses" in line and "hit rate" in line

    def test_guarded_run_also_reports_cache_stats(self, capsys):
        code, out, _ = run_cli(
            capsys, "montecarlo", "--draws", "500", "--policy", "strict"
        )
        assert code == 0
        assert any(l.startswith("cache:") for l in out.splitlines())

    @pytest.mark.parametrize("policy", ["repair", "skip"])
    def test_only_off_and_strict_policies_exist(self, capsys, policy):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "montecarlo", "--draws", "50", "--policy", policy)
        assert excinfo.value.code == 2


class TestSchedule:
    def test_sweep_prints_policy_table_and_pareto(self, capsys):
        code, out, _ = run_cli(
            capsys, "schedule", "--windows", "40", "--seed", "11",
        )
        assert code == 0
        assert "Carbon-aware scheduling sweep" in out
        for name in ("fifo", "edf", "carbon_waiting", "carbon_lowest"):
            assert name in out
        assert "Pareto front (emissions vs waiting):" in out
        assert "emissions vs fifo" in out

    def test_single_policy_on_flat_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "schedule", "--windows", "20",
            "--policy", "carbon_lowest", "--grid", "flat",
        )
        assert code == 0
        assert "carbon_lowest" in out
        assert "fifo" not in out.split("Pareto front")[1]

    def test_unknown_policy_is_one_line_error(self, capsys):
        code, _, err = run_cli(
            capsys, "schedule", "--windows", "5", "--policy", "greedy",
        )
        assert code == 2
        assert "greedy" in err

    def test_workers_match_serial_output(self, capsys):
        _, serial, _ = run_cli(
            capsys, "schedule", "--windows", "30", "--seed", "4",
            "--verify-sample", "4",
        )
        code, parallel, _ = run_cli(
            capsys, "schedule", "--windows", "30", "--seed", "4",
            "--workers", "2", "--chunk-rows", "32", "--verify-sample", "4",
        )
        assert code == 0
        # Everything but the timing line: the policy table and the front.
        table = lambda text: [  # noqa: E731
            line for line in text.splitlines()
            if not line.startswith("throughput")
        ]
        assert len(table(serial)) > 4
        assert table(parallel) == table(serial)

    @pytest.mark.parametrize("command", ["schedule", "montecarlo"])
    def test_zero_chunk_rows_exits_2(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--chunk-rows", "0")
        assert code == 2
        assert "chunk_rows" in err

    def test_shard_rows_is_not_a_schedule_flag(self, capsys):
        # The schedule pool shards by --chunk-rows; a shard size it would
        # ignore is refused like any unknown flag.
        with pytest.raises(SystemExit) as info:
            run_cli(capsys, "schedule", "--windows", "30", "--shard-rows", "7")
        assert info.value.code == 2

    def test_interrupted_run_exits_3_with_resume_hint(self, capsys, tmp_path):
        path = tmp_path / "schedule.npz"
        code, _, err = run_cli(
            capsys, "schedule", "--windows", "400", "--chunk-rows", "64",
            "--checkpoint", str(path), "--max-seconds", "0",
        )
        assert code == 3
        assert "--resume" in err
        assert path.exists()

    def test_resume_completes_with_same_output(self, capsys, tmp_path):
        path = tmp_path / "schedule.npz"
        run_cli(
            capsys, "schedule", "--windows", "200", "--chunk-rows", "128",
            "--checkpoint", str(path), "--max-seconds", "0",
        )
        code, resumed, _ = run_cli(
            capsys, "schedule", "--windows", "200", "--chunk-rows", "128",
            "--checkpoint", str(path), "--resume",
        )
        assert code == 0
        _, uninterrupted, _ = run_cli(capsys, "schedule", "--windows", "200")
        table = lambda text: [  # noqa: E731
            line for line in text.splitlines() if line.startswith("|")
        ]
        assert table(resumed) == table(uninterrupted)
