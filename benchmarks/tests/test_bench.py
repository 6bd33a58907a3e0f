"""The benchmark's own tests, at the tiny size of tests/conftest.py's mini_models.

Run from the repository root::

    python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from xmpc import hub  # noqa: E402

COUNTERS = [name for name, unit, *_ in PER_LAYER if unit in ("count", "bytes")]


def tiny(name: str, tmp_path: Path, trace: bool = False, seed: int = 0) -> workloads.Result:
    return workloads.run_workload(name, seed, 0.0, tmp_path / name, trace=trace, size=workloads.TINY)


def test_default_seed_reproduces_the_test_fixtures():
    assert workloads.Seeds.derive(0) == workloads.Seeds(excitation=42, run=7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    result = tiny(name, tmp_path)
    assert result.correct, [c for c in result.checks if not c.ok]
    assert result.passes == 1 and result.failed == 0
    assert [m[0] for m in workloads.END_TO_END] == list(result.end_to_end)
    assert all(value > 0 for value, _, _ in result.end_to_end.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_exactly(name, tmp_path):
    first = tiny(name, tmp_path / "a", trace=True)
    second = tiny(name, tmp_path / "b", trace=True)
    assert first.correct and second.correct
    assert [m[0] for m in PER_LAYER] == list(first.per_layer)
    for counter in COUNTERS:
        assert first.per_layer[counter][0] == second.per_layer[counter][0], counter
    layers = {k: v[0] for k, v in first.per_layer.items()}
    if name == "month_explained":
        n = 24 * workloads.TINY.episode_days
        assert layers["shapley.calls"] == 4 * n
        assert layers["mpc.model_calls_per_decision"] == 100
        assert layers["explain.write_documents.files"] == 2 * 5 * n
    else:
        assert layers["shapley.calls"] == 0
    if name == "control_only":
        assert layers["mpc.model_calls_per_decision"] == 100
        assert layers["surrogate.predict_batch.rows_per_call"] == 1


@pytest.fixture(scope="module")
def month(tmp_path_factory):
    """A tiny month_explained run; its episode stays in the work directory."""
    workdir = tmp_path_factory.mktemp("month")
    result = workloads.run_workload("month_explained", 0, 0.0, workdir, size=workloads.TINY)
    assert result.correct
    return workdir


def test_gate_rejects_a_tampered_attribution(month):
    episode = hub.load_episode(month / "episode.jsonl")
    assert checks.additivity(episode).ok
    episode.records[5].attributions["fy_t1"].shapley_values[2] += 1e-3
    verdict = checks.additivity(episode)
    assert not verdict.ok and verdict.bad == 1


def test_gate_rejects_a_tampered_trajectory(month, tmp_path):
    run = workloads.Run(0, workloads.TINY, tmp_path)
    tmp_path.mkdir(exist_ok=True)
    plant = workloads.setup_models(run)["plant"]
    control = workloads.control_month(plant).setpoints
    episode = [r.setpoint_c for r in hub.load_episode(month / "episode.jsonl").records]
    assert checks.same_trajectory("t", control, episode).ok
    episode[7] = 26.0 if episode[7] != 26.0 else 25.0
    assert not checks.same_trajectory("t", control, episode).ok


def test_run_fails_without_the_package(tmp_path):
    """A checkout holding only the benchmark exits non-zero and prints no result."""
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("tests"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"), "--workload", "sysid_train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_tables():
    import json

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == [
        tuple(m) for m in workloads.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(m[:3]) for m in PER_LAYER
    ]
