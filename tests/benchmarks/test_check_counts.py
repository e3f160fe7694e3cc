"""The CI work-count gate (``benchmarks/check_counts.py``), on parsed
perfbench results: no perfbench run happens here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def check_counts():
    spec = importlib.util.spec_from_file_location(
        "check_counts", ROOT / "benchmarks" / "check_counts.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASELINE = {
    "grid-cold": {"seed": 1, "counts": {"models.bow_fit_calls": 6, "store.puts": 98}},
    "serve-warm": {"seed": 1, "counts": {"models.bow_fit_calls": 0, "store.puts": 0}},
}


def result(counts, *, correct=True, failed=0):
    """A perfbench result line carrying ``counts`` and one timing."""
    metrics = {name: {"value": value, "unit": "count"} for name, value in counts.items()}
    metrics["store.put_s"] = {"value": 0.123, "unit": "s"}   # timings are not gated
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


def results(**overrides):
    """Results equal to ``BASELINE``, with some workloads' results replaced."""
    fresh = {name: result(entry["counts"]) for name, entry in BASELINE.items()}
    fresh.update({name.replace("_", "-"): value for name, value in overrides.items()})
    return fresh


def test_equal_counts_pass(check_counts, capsys):
    assert check_counts.gate(BASELINE, results()) == 0
    assert "counts match" in capsys.readouterr().out


def test_a_rise_fails_and_names_workload_metric_and_values(check_counts, capsys):
    rose = results(grid_cold=result({"models.bow_fit_calls": 60, "store.puts": 98}))
    assert check_counts.gate(BASELINE, rose) == 1
    assert "grid-cold models.bow_fit_calls: rose 6 -> 60" in capsys.readouterr().out


def test_a_fall_fails_and_prints_the_fresh_baseline(check_counts, capsys):
    fell = results(grid_cold=result({"models.bow_fit_calls": 6, "store.puts": 74}))
    assert check_counts.gate(BASELINE, fell) == 1
    out = capsys.readouterr().out
    assert "grid-cold store.puts: fell 98 -> 74" in out
    fresh = json.loads(out[out.index("{"):])
    assert fresh["grid-cold"] == {
        "seed": 1, "counts": {"models.bow_fit_calls": 6, "store.puts": 74}
    }
    assert fresh["serve-warm"] == BASELINE["serve-warm"]


@pytest.mark.parametrize("verdict", [{"correct": False}, {"failed": 1}])
def test_an_incorrect_or_failed_run_fails(check_counts, capsys, verdict):
    bad = results(serve_warm=result(BASELINE["serve-warm"]["counts"], **verdict))
    assert check_counts.gate(BASELINE, bad) == 1
    out = capsys.readouterr().out
    assert "serve-warm: perfbench reports" in out
    assert "commit this" not in out


@pytest.mark.parametrize("side", ["baseline", "result"])
def test_a_metric_missing_on_either_side_fails(check_counts, capsys, side):
    baseline = json.loads(json.dumps(BASELINE))
    fresh = results()
    if side == "baseline":
        del baseline["grid-cold"]["counts"]["store.puts"]
    else:
        del fresh["grid-cold"]["metrics"]["store.puts"]
    assert check_counts.gate(baseline, fresh) == 1
    assert "grid-cold store.puts: 98" in capsys.readouterr().out


def test_a_workload_missing_on_either_side_fails(check_counts, capsys):
    no_result = results(serve_warm=None)
    assert check_counts.gate(BASELINE, no_result) == 1
    assert "serve-warm: perfbench printed no result" in capsys.readouterr().out

    extra = results(select_cold=result({}))
    assert check_counts.gate(BASELINE, extra) == 1
    assert "select-cold: reported, but not in the baseline" in capsys.readouterr().out


def test_the_result_is_perfbench_s_last_line(check_counts):
    line = json.dumps(result({"store.puts": 3}))
    assert check_counts.parse_result(f"table\n  rows\n{line}\n") == json.loads(line)
    assert check_counts.parse_result("Traceback (most recent call last):\n") is None
    assert check_counts.parse_result("") is None


def test_the_committed_baseline_gates_every_count_of_every_workload(check_counts):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {metric["name"] for metric in spec["per_layer"] if metric["unit"] == "count"}
    baseline = json.loads(check_counts.BASELINE.read_text())
    assert set(baseline) == {workload["name"] for workload in spec["workloads"]}
    for entry in baseline.values():
        assert set(entry["counts"]) == names
        assert isinstance(entry["seed"], int)
