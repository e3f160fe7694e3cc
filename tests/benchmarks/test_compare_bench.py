"""The benchmark envelope contract (``benchmarks/conftest.py``): every CLI
benchmark writes its results through ``write_benchmark_results``."""

import datetime
import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture(scope="module")
def bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", BENCHMARKS / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestEnvelopeContract:
    """Pins the envelope fields of the results CI uploads."""

    def test_written_at_is_tz_aware_utc_iso8601(self, bench_conftest, tmp_path):
        out = tmp_path / "BENCH_probe.json"
        bench_conftest.write_benchmark_results(
            "probe", summary={"mean_ms": 1.0}, output=str(out)
        )
        payload = json.loads(out.read_text())
        written_at = datetime.datetime.fromisoformat(payload["written_at"])
        assert written_at.tzinfo is not None
        assert written_at.utcoffset() == datetime.timedelta(0)

    def test_envelope_carries_gate_fields(self, bench_conftest, tmp_path):
        out = tmp_path / "BENCH_probe.json"
        bench_conftest.write_benchmark_results(
            "probe", summary={"mean_ms": 2.0}, rows=[{"mean_ms": 2.0}],
            output=str(out),
        )
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "probe"
        assert set(payload) >= {"benchmark", "git_rev", "written_at", "summary", "rows"}
        assert payload["summary"] == {"mean_ms": 2.0}
