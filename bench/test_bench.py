"""Tests of the benchmark itself: span arithmetic, the tail-percentile rule,
seeded inputs, failure accounting, tracing of imported names, and agreement
between the metrics emitted and those declared in BENCHMARK.json."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402


def test_self_time_on_nested_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),      # child of a
        ("b", 3.5, 3.75, 1),     # second child of a
        ("a", 5.0, 9.0, 0),
        ("c", 6.0, 8.0, 4),      # child of the second a
        ("d", 7.0, 7.5, 5),      # grandchild: charged to c, not to a
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own["a"] == pytest.approx((3.0 - 1.25) + (4.0 - 2.0))
    assert own["b"] == pytest.approx(1.25)
    assert own["c"] == pytest.approx(1.5)
    assert own["d"] == pytest.approx(0.5)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 4.0, -1), ("x", 1.0, 3.0, 0), ("y", 2.0, 5.0, 0)]
    assert self_times(spans)["p"] == pytest.approx(1.0)


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None),
    (20, (50.0, 10)),        # ranks 11..20 lie above the median
    (99, (50.0, 50)),        # p90 would leave only 9 above
    (100, (90.0, 90)),
    (1000, (99.0, 990)),
    (10_000, (99.9, 9990)),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n, 0, -1)]       # n..1, order must not matter
    got = run.tail_percentile(samples)
    assert got == (None if expected is None else (expected[0], float(expected[1])))
    if got is not None:
        assert sum(s > got[1] for s in samples) >= 10


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["logits", "models"])
def test_inputs_are_a_function_of_the_seed(tmp_path, workload):
    workloads.generate(workload, 7, tmp_path / "first")
    workloads.generate(workload, 7, tmp_path / "again")
    workloads.generate(workload, 8, tmp_path / "other")
    first = _files(tmp_path / "first")
    assert first and first == _files(tmp_path / "again")
    other = _files(tmp_path / "other")
    assert other.keys() == first.keys() and other != first


def test_failing_operations_are_counted_and_the_pass_goes_on(tmp_path):
    ran = []

    def job(name):
        return lambda out: ran.append(name)

    def checked(values):
        return lambda out, v: ran.append("check") or values

    def broken(out):
        raise workloads.JobError("exit code 4")

    ops = [
        workloads.Op("good", job("good"), checked({"x": 1.0})),
        workloads.Op("bad_check", job("bad_check"),
                     lambda out, v: workloads.check(False, "deliberately wrong")),
        workloads.Op("bad_job", broken, checked({})),
        workloads.Op("off_reference", job("off_reference"), checked({"y": 2.5})),
        workloads.Op("last", job("last"), checked({})),
    ]
    result = child.run_pass(ops, tmp_path / "out", reference={"x": 1.0, "y": 2.0},
                            between=lambda: ran.append("between"))
    # Every job runs before any check; the failed job's check is skipped.
    assert ran == ["good", "bad_check", "off_reference", "last", "between",
                   "check", "check", "check"]
    assert (result["attempted"], result["failed"]) == (5, 3)
    assert result["values"] == {"x": 1.0}
    assert result["wall_s"] > 0


def test_tracer_wraps_names_imported_into_other_modules():
    import logitlab.forge as forge
    import logitlab.rng as rng
    from logitlab.store import LogitMatrix

    tracer = Tracer()
    tracer.install()
    try:
        assert forge.substream is rng.substream and forge.substream.__wrapped__
        tracer.active = True
        forge.fix_k_permute(LogitMatrix(np.arange(12.0).reshape(3, 4)), 1, seed=0)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert not hasattr(forge.substream, "__wrapped__")
    assert not hasattr(forge.fix_k_permute, "__wrapped__")
    metrics = layer_metrics(tracer.spans, tracer.counts)
    assert metrics["forge.fix_k_permute.calls"] == 1
    assert metrics["rng.substream.calls"] == 3
    names = [s[0] for s in tracer.spans]
    parents = {s[0]: s[3] for s in tracer.spans}
    assert names[parents["rng.substream"]] == "forge.fix_k_permute"


def test_benchmark_json_declares_exactly_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    emitted = run.result_line([{
        "workload": "x", "failed": 0, "attempted": 1, "end_to_end": {},
        "layers": {m: 0 for m in run.LAYER_UNITS},
    }], trace=True)["metrics"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, v["unit"]) for k, v in emitted.items()]
