"""One run of one workload, in a fresh interpreter started by ``run.py``.

    python3 child.py <workload> <inputs> <work> <seed> <seconds> <trace> <result.json>

The process repeats passes over the workload's operations until ``seconds``
have elapsed (one client, jobs one after another) and writes per-pass wall
time, CPU time, failures and checked values to ``result.json``. With
``trace`` set, every second pass runs with the layers' functions wrapped by
:class:`tracer.Tracer`.

A pass runs every job, then checks every output. The first pass is a
warm-up: it is checked like every other but its times are not used, and
the ``seconds`` of timed passes start after it. The peak resident set size
is read once, after the jobs of the warm-up and before the checks'
expectations are built, so it is the program's, not the harness's.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import logitlab.cli
import numpy as np
import scipy

import workloads
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
# Relative tolerance of the seed-0 comparison against reference.json.
REFERENCE_RTOL = 1e-6


def compare(values: dict, reference: dict) -> None:
    """Raise CheckError unless every value matches its recorded reference."""
    for key, value in values.items():
        ref = reference.get(key)
        workloads.check(ref is not None, f"no reference value for {key}")
        workloads.check(value == ref or math.isclose(value, ref, rel_tol=REFERENCE_RTOL,
                                                     abs_tol=1e-12),
                        f"{key} = {value!r}, reference {ref!r}")


def _run_job(op: workloads.Op, out: Path, tracer: Tracer | None):
    """``(value, None)`` from the job, or ``(None, exception)`` if it raised."""
    if tracer is not None:
        tracer.active = True
    try:
        return op.run(out), None
    except Exception as e:  # the pass goes on; the failure is counted at the checks
        return None, e
    finally:
        if tracer is not None:
            tracer.active = False


def _clock() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def run_pass(ops, out: Path, tracer: Tracer | None = None,
             reference: dict | None = None, between=None) -> dict:
    """Run every operation, then check each; a failure is counted, not raised.

    Wall and CPU time cover the jobs and the checks; ``between``, if given,
    runs untimed after the jobs and before the checks. Checks run with the
    tracer inactive so they add no spans.
    """
    out.mkdir(parents=True, exist_ok=True)
    wall0, cpu0 = _clock()
    outcomes = [_run_job(op, out, tracer) for op in ops]
    wall1, cpu1 = _clock()
    if between is not None:
        between()
    wall2, cpu2 = _clock()
    failed, values = 0, {}
    for op, (value, error) in zip(ops, outcomes):
        try:
            if error is not None:
                raise error
            got = op.check(out, value)
            if reference is not None:
                compare(got, reference)
            values.update(got)
        except Exception:  # the run goes on; the failure is counted and shown
            failed += 1
            print(f"operation {op.name} failed:", file=sys.stderr)
            traceback.print_exc()
    wall3, cpu3 = _clock()
    return {
        "wall_s": (wall1 - wall0) + (wall3 - wall2),
        "cpu_s": (cpu1 - cpu0) + (cpu3 - cpu2),
        "attempted": len(ops),
        "failed": failed,
        "values": values,
        "traced": tracer is not None,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(ops, prepare, work: Path, seconds: float, trace: bool,
               reference: dict | None) -> tuple[list[dict], float]:
    """A warm-up pass, then passes while the next one, as long as the last,
    would end within ``seconds`` plus half its length, so runs average
    ``seconds`` of timed passes. Returns the passes, the warm-up first, and
    the peak RSS (MiB) after the warm-up's jobs; ``prepare`` then builds the
    checks' expectations, untimed.

    At least one timed pass runs; with ``trace``, every second timed pass is
    traced and at least one timed pass of each kind runs.
    """
    tracer = Tracer() if trace else None
    passes, rss = [], []

    def after_first_jobs() -> None:
        rss.append(peak_rss_mib())
        prepare()

    start = None
    while (len(passes) < (3 if trace else 2)
           or time.perf_counter() - start + passes[-1]["wall_s"] / 2 < seconds):
        if len(passes) == 1:
            start = time.perf_counter()
        traced = trace and len(passes) >= 2 and len(passes) % 2 == 0
        out = work / f"pass{len(passes)}"
        if traced:
            tracer.reset()
            tracer.install()
        try:
            result = run_pass(ops, out, tracer if traced else None, reference,
                              None if passes else after_first_jobs)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            result["layers"] = layer_metrics(tracer.spans, tracer.counts)
        result["warmup"] = not passes
        passes.append(result)
        shutil.rmtree(out, ignore_errors=True)
    return passes, rss[0]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list[str]) -> int:
    workload, inputs, work, seed, seconds, trace, result_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    ops, prepare = workloads.build_ops(workload, Path(inputs), seed, logitlab)
    reference = None
    if seed == 0:
        reference = json.loads((HERE / "reference.json").read_text())[workload]
    passes, rss = run_passes(ops, prepare, Path(work), seconds, trace, reference)
    result = {
        "logitlab_file": logitlab.cli.__file__,
        "passes": passes,
        "peak_rss_mib": rss,
        "env": environment(),
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
