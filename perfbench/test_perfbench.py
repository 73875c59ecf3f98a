"""Self-tests of the benchmark's own arithmetic and output check.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

import spans
from checks import check_study, digest, same_digests

# the fixtures format their CSV and JSON with the package's own report type
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


@pytest.fixture
def fake_clock(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(spans, "_CLOCK", lambda: now[0])
    return now


def test_self_time_of_nested_spans(fake_clock):
    tracer = spans.Tracer()

    def leaf():
        fake_clock[0] += 2.0

    def middle():
        fake_clock[0] += 1.0
        leaf()
        leaf()

    def root():
        fake_clock[0] += 0.5
        middle()
        fake_clock[0] += 0.25

    leaf = tracer.wrap("leaf", leaf)
    middle = tracer.wrap("middle", middle)
    tracer.wrap("root", root)()
    assert tracer.stats["leaf"] == [2, 4.0, 4.0]
    assert tracer.stats["middle"] == [1, 5.0, 1.0]
    assert tracer.stats["root"] == [1, 5.75, 0.75]
    total_self = sum(entry[2] for entry in tracer.stats.values())
    assert total_self == tracer.stats["root"][1]


def test_recursive_span_counts_time_once(fake_clock):
    tracer = spans.Tracer()

    def recurse(depth):
        fake_clock[0] += 1.0
        if depth:
            recurse(depth - 1)

    recurse = tracer.wrap("r", recurse)
    recurse(2)
    calls, total, self_s = tracer.stats["r"]
    assert (calls, self_s) == (3, 3.0)


def test_pool_spans_partition_study_time():
    """Worker self time per pool slot plus pool wait fills the map span."""
    snapshot = {
        "stats": {"cli.main": [1, 10.0, 0.5],
                  "noise.factor": [1, 1.5, 1.5],
                  "experiments.map": [1, 8.0, 8.0]},
        "worker": {"experiments.batch": [4, 14.0, 2.0],
                   "noise.draw": [8, 12.0, 12.0]},
        "counts": {},
        "pool_slots": 2,
    }
    metrics = spans.layer_metrics(snapshot, study_s=11.0)
    assert metrics["noise.draw_s"] == 6.0
    assert metrics["experiments.batch_self_s"] == 1.0
    assert metrics["experiments.map_self_s"] == 1.0
    assert metrics["trace.unattributed_s"] == 1.0
    partition = [metrics[m] for m in spans.PARTITION.values()]
    assert sum(partition) + metrics["trace.unattributed_s"] == \
        pytest.approx(11.0)
    assert spans.pool_metrics(snapshot, 11.0) == {
        "experiments.pool_wall_s": 8.0, "experiments.worker_busy_s": 14.0,
        "experiments.pool_wait_s": 1.0}


def _rate_outputs():
    from spdefem.experiments import LevelResult, RateReport

    levels = [LevelResult(index=i, resolution=2.0 ** -(3 + i),
                          error=0.1 * 2.0 ** (-1.5 * i), stderr=1e-4,
                          usable=True) for i in range(4)]
    report = RateReport(kind="strong", levels=levels, slope=1.5,
                        ci_lo=1.45, ci_hi=1.55, noise_floor=False,
                        monotonic=True, config_hash="abc", seed=7)
    return report.to_csv(), json.loads(report.to_json())


def test_check_accepts_consistent_outputs():
    csv_text, summary = _rate_outputs()
    assert check_study("strong", 0, csv_text, summary) == []


def test_check_rejects_tampered_csv():
    csv_text, summary = _rate_outputs()
    row = csv_text.splitlines()[5]
    fields = row.split(",")
    fields[2] = repr(float(fields[2]) * (1.0 + 1e-12))
    tampered = csv_text.replace(row, ",".join(fields))
    assert check_study("strong", 0, tampered, summary) != []
    assert same_digests([digest(csv_text), digest(tampered)]) != []


def test_check_rejects_off_order_slope_and_aborts():
    csv_text, summary = _rate_outputs()
    assert check_study("splitting_dt", 0, csv_text, summary) != []
    summary["aborted_total"] = 3
    assert check_study("strong", 0, csv_text, summary) != []
    assert check_study("strong", 1, csv_text, summary) == ["exit status 1"]


class _FakeRunner:
    """Stands in for run.Runner: every study is 2 s with 1 s in cli.main;
    the study tagged `odd` makes `odd_calls` draws."""

    def __init__(self, pool_workers=2, odd=None, odd_calls=1):
        self.pool_workers = pool_workers
        self.odd, self.odd_calls = odd, odd_calls
        self.studies = []

    def spawn(self, tag, trace=False, workers=1):
        draws = self.odd_calls if tag == self.odd else 1
        snapshot = {"stats": {"cli.main": [1, 1.0, 0.5],
                              "noise.draw": [draws, 0.5, 0.5]},
                    "counts": {}, "worker": {}, "pool_slots": workers - 1}
        return {"tag": tag, "wall_s": 2.0, "cpu_s": 2.0, "peak_rss_mb": 1.0,
                "exit_code": 0, "setup_s": 0.5,
                "spans": snapshot if trace else None,
                "summary": {"runtime_seconds": 1.5}}


def test_metric_names_and_units_match_benchmark_json():
    import run

    spec = json.loads((Path(run.__file__).resolve().parents[1]
                       / "BENCHMARK.json").read_text())
    measured, problems = run.measure(_FakeRunner(), seconds=0)
    assert problems == [] and measured["setup_s"] == 0.5
    measured["passed_share"] = 1.0
    traced, problems = run.trace(_FakeRunner())
    assert problems == []
    for section, metrics in (("end_to_end", measured),
                             ("per_layer", traced)):
        assert {m["name"]: m["unit"] for m in spec[section]} == \
            {name: run._unit(name) for name in metrics}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("pool_workers", [0, 2])
def test_exact_counts_must_repeat_in_the_twin_study(pool_workers):
    import run

    runner = _FakeRunner(pool_workers, odd="traced_twin", odd_calls=2)
    _, problems = run.trace(runner)
    assert problems and "noise.draw_calls 1 -> 2" in problems[0]
