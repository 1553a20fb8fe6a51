"""Harness: system factories, report formatting, figure plumbing."""

import pytest

from repro.errors import ConfigurationError
from repro.harness import figures, report, systems
from repro.harness.experiment import measure_query, run_sql_suite
from repro.workloads.queries import QUERIES


class TestSystems:
    def test_build_all(self):
        for name in systems.SYSTEM_NAMES:
            memory = systems.build_system(name, small=True)
            assert memory.name == name

    def test_unknown_system(self):
        with pytest.raises(ConfigurationError):
            systems.build_system("HBM", small=True)

    def test_table1_rows_mention_all_components(self):
        rows = dict(systems.table1_rows())
        for component in ("Processor", "L1 cache", "L3 cache", "DRAM", "RRAM", "RC-NVM"):
            assert component in rows


class TestReport:
    def test_format_table_aligns(self):
        text = report.format_table(("a", "long header"), [(1, 2.5), (333, 4.0)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_normalize(self):
        assert report.normalize([2, 4], 2) == [1.0, 2.0]

    def test_normalize_distinguishes_missing_from_zero_baseline(self):
        """A missing baseline is a caller bug; a measured-zero baseline
        makes the ratios NaN (they used to collapse to silent 0.0)."""
        import math

        with pytest.raises(ValueError):
            report.normalize([2], None)
        assert all(math.isnan(v) for v in report.normalize([2, 4], 0))

    def test_speedup(self):
        assert report.speedup(100, 50) == 2.0
        assert report.speedup(1, 0) == float("inf")

    def test_speedup_zero_over_zero_is_unity(self):
        """Regression: speedup(0, 0) returned inf (0/0 guarded wrong);
        two zero-cycle runs are equal, not infinitely faster."""
        assert report.speedup(0, 0) == 1.0

    def test_geometric_mean(self):
        assert report.geometric_mean([2, 8]) == pytest.approx(4.0)

    def test_geometric_mean_zero_propagates(self):
        """Figure 18-style regression: one system scoring 0 must drag the
        geomean to exactly 0.0.  The old version dropped zeros from both
        the product and the count, so (0, 2, 8) reported 4.0 — a wildly
        inflated suite-level speedup."""
        assert report.geometric_mean([0.0, 2.0, 8.0]) == 0.0
        assert report.geometric_mean([1.4, 0.0, 2.3, 1.1]) == 0.0

    def test_geometric_mean_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            report.geometric_mean([])
        with pytest.raises(ValueError):
            report.geometric_mean([2.0, -1.0])


class TestCheckRegression:
    """check_regression must fail loudly, never raise, on bad baselines."""

    @staticmethod
    def _report(rate=1000, mismatches=0):
        return {
            "equivalence": {"mismatches": mismatches, "mismatched": []},
            "replay_after_batched": {"accesses_per_sec": rate},
        }

    def test_missing_baseline_file_is_a_failure_not_an_exception(self, tmp_path):
        from repro.harness.perfbench import check_regression

        failures = check_regression(self._report(), tmp_path / "absent.json")
        assert len(failures) == 1
        assert "could not be read" in failures[0]
        assert "regenerate" in failures[0]

    def test_invalid_json_baseline(self, tmp_path):
        from repro.harness.perfbench import check_regression

        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        failures = check_regression(self._report(), path)
        assert failures and "not valid JSON" in failures[0]

    def test_baseline_missing_keys(self, tmp_path):
        import json

        from repro.harness.perfbench import check_regression

        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"meta": {}}))
        failures = check_regression(self._report(), path)
        assert failures and "replay_after_batched.accesses_per_sec" in failures[0]

    def test_baseline_unusable_rate(self, tmp_path):
        import json

        from repro.harness.perfbench import check_regression

        path = tmp_path / "zero.json"
        path.write_text(
            json.dumps({"replay_after_batched": {"accesses_per_sec": 0}})
        )
        failures = check_regression(self._report(), path)
        assert failures and "unusable" in failures[0]

    def test_good_baseline_passes_and_gates(self, tmp_path):
        import json

        from repro.harness.perfbench import check_regression

        path = tmp_path / "base.json"
        path.write_text(
            json.dumps({"replay_after_batched": {"accesses_per_sec": 1000}})
        )
        assert check_regression(self._report(rate=990), path) == []
        failures = check_regression(self._report(rate=100), path)
        assert failures and "regressed" in failures[0]

    def test_kernel_serving_and_rebind_gates(self, tmp_path):
        import json

        from repro.harness.perfbench import check_regression

        path = tmp_path / "base.json"
        path.write_text(json.dumps({
            "replay_after_batched": {"accesses_per_sec": 1000},
            "replay_after_kernel": {"accesses_per_sec": 4000},
            "rebind_microbench": {"max_avg_us_per_rebind": 100},
        }))
        good = {
            **self._report(),
            "replay_after_kernel": {"accesses_per_sec": 3900},
            "template_serving": {"hit_rate": 0.95},
            "rebind_microbench": {"avg_us_per_rebind": 60.0},
        }
        assert check_regression(good, path) == []
        bad = {
            **self._report(),
            "replay_after_kernel": {"accesses_per_sec": 1000},
            "template_serving": {"hit_rate": 0.5},
            "rebind_microbench": {"avg_us_per_rebind": 250.0},
        }
        failures = check_regression(bad, path)
        assert len(failures) == 3
        assert any("kernel replay regressed" in f for f in failures)
        assert any("hit rate" in f for f in failures)
        assert any("rebind regressed" in f for f in failures)

    def test_generation_floor(self, tmp_path):
        """A baseline recording a generation floor gates trace-generation
        accesses/sec; a baseline without the section skips that gate."""
        import json

        from repro.harness.perfbench import check_regression

        gated = tmp_path / "gated.json"
        gated.write_text(json.dumps({
            "replay_after_batched": {"accesses_per_sec": 1000},
            "generation": {"accesses_per_sec": 2000},
        }))
        fast = {**self._report(), "generation": {"accesses_per_sec": 1600}}
        slow = {**self._report(), "generation": {"accesses_per_sec": 1400}}
        assert check_regression(fast, gated) == []
        failures = check_regression(slow, gated)
        assert len(failures) == 1
        assert "trace generation regressed" in failures[0]

        ungated = tmp_path / "ungated.json"
        ungated.write_text(json.dumps({
            "replay_after_batched": {"accesses_per_sec": 1000},
        }))
        assert check_regression(slow, ungated) == []

    def test_serving_fences(self, tmp_path):
        """A baseline that records serving fences gates fairness, the
        hit-rate delta vs global FIFO, and unexpected shedding."""
        import json

        from repro.harness.perfbench import check_regression

        path = tmp_path / "base.json"
        path.write_text(json.dumps({
            "replay_after_batched": {"accesses_per_sec": 1000},
            "serving": {"max_fairness": 3.0, "min_hit_rate_delta": -0.005},
        }))
        good = {
            **self._report(),
            "serving": {"fairness": 1.2, "hit_rate_delta": 0.01, "shed": 0},
        }
        assert check_regression(good, path) == []
        bad = {
            **self._report(),
            "serving": {"fairness": 9.0, "hit_rate_delta": -0.2, "shed": 4},
        }
        failures = check_regression(bad, path)
        assert len(failures) == 3
        assert any("fairness regressed" in f for f in failures)
        assert any("locality regressed" in f for f in failures)
        assert any("shed" in f for f in failures)

    def test_baseline_without_serving_fences_skips_serving_gate(self, tmp_path):
        import json

        from repro.harness.perfbench import check_regression

        path = tmp_path / "old.json"
        path.write_text(
            json.dumps({"replay_after_batched": {"accesses_per_sec": 1000}})
        )
        report = {
            **self._report(),
            "serving": {"fairness": 9.0, "hit_rate_delta": -0.2, "shed": 4},
        }
        assert check_regression(report, path) == []

    def test_pre_kernel_baseline_still_gates_batched_only(self, tmp_path):
        """Baselines committed before the kernel path existed must keep
        working — only the sections they record are gated."""
        import json

        from repro.harness.perfbench import check_regression

        path = tmp_path / "old.json"
        path.write_text(
            json.dumps({"replay_after_batched": {"accesses_per_sec": 1000}})
        )
        new_report = {
            **self._report(),
            "replay_after_kernel": {"accesses_per_sec": 1},
        }
        assert check_regression(new_report, path) == []


class TestStaticFigures:
    def test_table2_lists_all_queries(self):
        result = figures.table2()
        assert len(result.rows) == len(QUERIES)

    def test_figure4_columns(self):
        result = figures.figure4()
        rcdram = result.column("RC-DRAM over DRAM")
        rcnvm = result.column("RC-NVM over RRAM")
        assert all(d > n for d, n in zip(rcdram, rcnvm))

    def test_figure5_monotone(self):
        values = figures.figure5().column("Latency overhead")
        assert values == sorted(values)

    def test_render_contains_title(self):
        assert "Area overhead" in figures.figure4().render()


class TestSuitePlumbing:
    @pytest.fixture(scope="class")
    def tiny_suite(self):
        return run_sql_suite(
            systems=("RC-NVM", "DRAM"),
            qids=("Q1", "Q4"),
            scale=0.02,
            small=True,
            cache_config=dict(l1_kib=4, l2_kib=16, l3_kib=64),
            verify=True,
        )

    def test_measurements_shape(self, tiny_suite):
        assert set(tiny_suite) == {"Q1", "Q4"}
        assert set(tiny_suite["Q1"]) == {"RC-NVM", "DRAM"}

    def test_measurement_fields(self, tiny_suite):
        m = tiny_suite["Q1"]["RC-NVM"]
        assert m.cycles > 0 and m.llc_misses > 0
        assert 0 <= m.buffer_miss_rate <= 1
        assert m.row()[0] == "Q1"

    def test_figure18_from_measurements(self, tiny_suite):
        result = figures.figure18(tiny_suite, systems=("RC-NVM", "DRAM"))
        assert result.headers == ("query", "RC-NVM", "DRAM")
        assert len(result.rows) == 2

    def test_figure19_20_21(self, tiny_suite):
        f19 = figures.figure19(tiny_suite, systems=("RC-NVM", "DRAM"))
        f20 = figures.figure20(tiny_suite, systems=("RC-NVM", "DRAM"))
        f21 = figures.figure21(tiny_suite)
        assert len(f19.rows) == len(f20.rows) == len(f21.rows) == 2


class TestCli:
    def test_list(self, capsys):
        from repro.harness.cli import main

        assert main(["--list"]) == 0
        assert "fig18" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        from repro.harness.cli import main

        assert main(["nope"]) == 2

    def test_static_experiments(self, capsys):
        from repro.harness.cli import main

        assert main(["fig4", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Table 2" in out

    def test_energy_populates_shared_measurement_cache(self, capsys, monkeypatch):
        """Regression: 'energy' used to leave ``_SQL_MEASUREMENTS`` empty,
        so a later SQL figure re-simulated the whole suite."""
        from repro.harness import cli

        monkeypatch.setattr(cli, "_SQL_MEASUREMENTS", [None])
        calls = []
        original = figures.run_figures_18_21

        def counting(**kwargs):
            calls.append(kwargs)
            kwargs["qids"] = ("Q1",)  # keep the test cheap
            return original(**kwargs)

        monkeypatch.setattr(figures, "run_figures_18_21", counting)
        assert cli.main(["energy", "fig18", "--small", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Energy" in out and "Figure 18" in out
        assert len(calls) == 1  # fig18 reused the energy run's measurements
        # A separate invocation still reuses the in-process cache.
        assert cli.main(["fig19", "--small", "--scale", "0.02"]) == 0
        assert len(calls) == 1

    def test_faults_cli_renders_table(self, capsys, monkeypatch):
        from repro.harness import cli, reliability

        outcome = reliability.FaultsOutcome(
            system="RC-NVM", injected=4, singles=3, doubles=1, corrected=3,
            detected=1, recovered=1, scrub_reads=100, scrub_cycles=5000,
            resweep_corrected=0, resweep_detected=0, retired_cells=64,
            wear_imbalance=1.2, queries_verified=4,
        )
        seen = {}

        def fake_run_faults(**kwargs):
            seen.update(kwargs)
            return [outcome]

        monkeypatch.setattr(reliability, "run_faults", fake_run_faults)
        assert cli.main(
            ["faults", "--fault-rate", "0.01", "--seed", "11",
             "--fault-mode", "hotline"]
        ) == 0
        out = capsys.readouterr().out
        assert "Fault injection" in out and "RC-NVM" in out
        assert seen["seed"] == 11 and seen["mode"] == "hotline"
        assert seen["fault_rate"] == 0.01


class TestWritePathFences:
    @staticmethod
    def _report(**write_path):
        return {
            "equivalence": {"mismatches": 0, "mismatched": []},
            "replay_after_batched": {"accesses_per_sec": 1000},
            "write_path": write_path,
        }

    @staticmethod
    def _baseline(tmp_path, fences):
        import json

        path = tmp_path / "base.json"
        path.write_text(json.dumps({
            "replay_after_batched": {"accesses_per_sec": 1000},
            "write_path": fences,
        }))
        return path

    def test_write_path_fences_gate_both_directions(self, tmp_path):
        from repro.harness.perfbench import check_regression

        path = self._baseline(tmp_path, {
            "min_write_pulse_reduction": 1, "max_read_p99_ratio": 1.05,
        })
        good = self._report(write_pulse_reduction=15, read_p99_ratio=1.0)
        assert check_regression(good, path) == []
        bad = self._report(write_pulse_reduction=0, read_p99_ratio=1.4)
        failures = check_regression(bad, path)
        assert len(failures) == 2
        assert any("write coalescing regressed" in f for f in failures)
        assert any("hurt reads" in f for f in failures)

    def test_unmeasurable_p99_ratio_is_not_gated(self, tmp_path):
        # A workload with no reads reports ratio None; that is a workload
        # problem, not a latency regression.
        from repro.harness.perfbench import check_regression

        path = self._baseline(tmp_path, {"max_read_p99_ratio": 1.05})
        report = self._report(write_pulse_reduction=3, read_p99_ratio=None)
        assert check_regression(report, path) == []

    def test_baseline_without_write_path_fences_skips_the_gate(self, tmp_path):
        import json

        from repro.harness.perfbench import check_regression

        path = tmp_path / "old.json"
        path.write_text(
            json.dumps({"replay_after_batched": {"accesses_per_sec": 1000}})
        )
        report = self._report(write_pulse_reduction=-5, read_p99_ratio=9.0)
        assert check_regression(report, path) == []


class TestWearHarness:
    def test_workload_is_update_skewed_and_deterministic(self):
        from repro.harness.wear import build_workload

        statements = build_workload(rounds=4)
        updates = [s for s in statements if s[0].startswith("UPDATE")]
        assert len(updates) == len(statements) / 2  # one read per update
        assert statements == build_workload(rounds=4)
        # The sliding windows overlap round to round (coalescing needs
        # re-dirtied rows, not disjoint ranges).
        lows = sorted(params["z"] for sql, params, _hint in updates)
        assert any(b - a < 120 for a, b in zip(lows, lows[1:]))

    def test_hist_percentile_first_crossing(self):
        from repro.harness.wear import _hist_percentile

        hist = {7: 50, 63: 49, 1023: 1}
        assert _hist_percentile(hist, 50) == 7
        assert _hist_percentile(hist, 99) == 63
        assert _hist_percentile(hist, 100) == 1023
        assert _hist_percentile({}, 99) == 0

    def test_cli_dispatches_wear(self, monkeypatch):
        from repro.harness import cli, wear

        seen = {}

        def fake_main(argv):
            seen["argv"] = argv
            return 0

        monkeypatch.setattr(wear, "main", fake_main)
        assert cli.main(["wear", "--smoke"]) == 0
        assert seen["argv"] == ["--smoke"]

    def test_sched_flags_reach_sched_kwargs(self, monkeypatch):
        from repro.harness import cli

        seen = {}

        class FakeResult:
            def render(self):
                return "fake"

        def fake_fig22(**kwargs):
            seen.update(kwargs)
            return FakeResult()

        monkeypatch.setattr(cli.figures, "figure22", fake_fig22)
        argv = ["fig22", "--write-coalescing", "--read-around-write"]
        assert cli.main(argv) == 0
        assert seen["sched_kwargs"] == {
            "write_coalescing": True, "read_around_write": True,
        }
        seen.clear()
        # Without the flags the kwargs stay absent (not False), so the
        # controller defaults are untouched.
        assert cli.main(["fig22"]) == 0
        assert seen["sched_kwargs"] == {}
