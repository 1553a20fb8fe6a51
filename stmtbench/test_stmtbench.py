"""Tests of the served-statement benchmark, on shrunken workloads.

Run from the repository root::

    PYTHONPATH=src python -m pytest stmtbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from ledger import LAYERS, measure_traced  # noqa: E402
from repro.imdb.executor import QueryResult  # noqa: E402

#: The benchmark's workloads at a size a test can afford.
TINY = {
    "suite-cold": dataclasses.replace(
        workloads.WORKLOADS["suite-cold"], scale=0.02, min_units=1,
        setup_repeats=1,
    ),
    "suite-warm": dataclasses.replace(
        workloads.WORKLOADS["suite-warm"], scale=0.02, setup_repeats=1
    ),
    "olxp-tenants": dataclasses.replace(
        workloads.WORKLOADS["olxp-tenants"], scale=0.02,
        statements_per_tenant=4, min_units=2, setup_repeats=1,
    ),
}


def _digest(name, seed):
    return workloads.measure(TINY[name], seed, 0).sim["digest"]


def test_planted_wrong_expected_value_raises_error_rate(monkeypatch):
    expected = workloads.Checker.expected

    def planted(self, db, sql, params):
        result = expected(self, db, sql, params)
        if result.kind == "scalar":
            return QueryResult(kind="scalar", value=result.value + 1)
        return result

    monkeypatch.setattr(workloads.Checker, "expected", planted)
    measurement = workloads.measure(TINY["suite-cold"], 0, 0)
    # Q4-Q7 are the suite's scalar aggregates, on each of the two systems.
    assert measurement.checker.mismatches == 8
    assert measurement.failed / measurement.attempted > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_gives_same_digest(name):
    assert _digest(name, 3) == _digest(name, 3)


def test_other_seed_changes_suite_cold_digest():
    assert _digest("suite-cold", 3) != _digest("suite-cold", 4)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_conserves_counts(name):
    traced, untraced, metrics, _missing = measure_traced(TINY[name], 1, 0)
    assert traced.failed == 0 and untraced.failed == 0
    busy = sum(metrics[f"{layer}.busy_s"] for layer in LAYERS)
    assert busy <= metrics["trace.wall_s"]
    statements = traced.completed
    if name == "suite-cold":
        assert metrics["replay.accesses"] == metrics["execute.accesses"] > 0
    elif name == "suite-warm":
        lookups = sum(
            metrics[f"template.{kind}"] for kind in ("hits", "misses", "rebinds")
        )
        assert lookups == statements
        assert metrics["template.hit_rate"] == 1.0
        assert metrics["execute.accesses"] == 0
    else:
        assert statements + traced.shed == traced.attempted
        assert metrics["reset.calls"] == 0
        assert metrics["coherence.busy_s"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_output_follows_benchmark_json(monkeypatch, capsys, trace):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    assert run.main(["--workload", "suite-warm", "--seed", "2",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_exits_nonzero_without_sources(tmp_path):
    copy = tmp_path / "stmtbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "suite-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
