"""logitlab benchmark: one run of one workload, or of every workload.

    python3 bench/run.py --workload logits --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all                 # every workload, one table

Run from the root of a checkout. The run writes the workload's inputs from
``--seed`` under ``.bench_work/`` in the checkout, starts one fresh child
process (``child.py``) that repeats the workload's jobs for ``--seconds``
and checks every output, then times ``import logitlab.cli`` in fresh
interpreters (``setup_s``). Lines before the last describe the
run and its environment; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer metrics and the tracing overhead. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from tracer import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Fresh interpreters that time ``import logitlab.cli``. They run after the
# child, whose own import has byte-compiled the sources and warmed the page
# cache, so every probe sees the state a user's second invocation sees.
# Five probes (~0.9 s each) keep the median's own noise under the
# run-to-run drift of the machine and leave the run's time to the passes.
SETUP_PROBES = 5
PROBE = ("import time\nt = time.perf_counter()\nimport logitlab.cli\n"
         "print(time.perf_counter() - t)\nprint(logitlab.cli.__file__)")
PROBE_TIMEOUT_S = 30


def child_timeout(seconds: float) -> float:
    """A healthy child ends within ``seconds`` plus one pass and its start-up."""
    return 2 * seconds + 120

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
LAYER_UNITS = dict(metric_units()) | {"trace.overhead_s": "s"}


class RunError(Exception):
    """The run could not produce a result."""


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest of the 50th, 90th, 99th and 99.9th percentiles with at least
    ten samples above it, as (percentile, value) by nearest rank; None when
    fewer than 20 samples leave no such percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    for per_mille in (999, 990, 900, 500):
        rank = -(-per_mille * n // 1000)        # ceil, in exact integer arithmetic
        if n - rank >= 10:
            return per_mille / 10, ordered[rank - 1]
    return None


def child_env(work: Path) -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return env | {
        "PYTHONPATH": str(SRC),
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(work),
    }


def source_identity() -> dict:
    """The commit when the checkout is a git repository, and always a hash of
    the program's sources, so results of different code never read as one."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "logitlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def setup_samples(env: dict) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RunError(f"import logitlab.cli failed:\n{proc.stderr}")
        seconds, where = proc.stdout.split("\n")[:2]
        if Path(where).resolve().parent != (SRC / "logitlab").resolve():
            raise RunError(f"imported logitlab from {where}, not from {SRC}")
        samples.append(float(seconds))
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate inputs, run the child, time setup, and summarise the passes."""
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workloads.generate(name, seed, work / "inputs")
        env = child_env(work)
        result_path = work / "result.json"
        argv = [sys.executable, str(HERE / "child.py"), name, str(work / "inputs"),
                str(work), str(seed), str(seconds), "1" if trace else "0", str(result_path)]
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                              timeout=child_timeout(seconds))
        if proc.returncode != 0 or not result_path.exists():
            raise RunError(f"workload {name}: child exited with code {proc.returncode}")
        child = json.loads(result_path.read_text())
        setup = setup_samples(env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:     # not empty: another run is using it
            pass
    return summarise(name, seed, setup, child, env)


def summarise(name: str, seed: int, setup: list[float], child: dict, env: dict) -> dict:
    passes = child["passes"]
    plain = [p for p in passes if not p["traced"] and not p["warmup"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wall = [p["wall_s"] for p in plain]
    end_to_end = {
        "wall_s": statistics.median(wall),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": child["peak_rss_mib"],
    }
    layers = {}
    if traced:
        for metric in traced[0]["layers"]:
            layers[metric] = statistics.median(p["layers"][metric] for p in traced)
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - end_to_end["wall_s"])
    return {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "wall_samples": wall,
        "setup_samples": setup,
        "end_to_end": end_to_end,
        "layers": layers,
        "values": passes[-1]["values"],
        "env": child["env"] | source_identity() | {
            "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
            "seed": seed,
        },
    }


def describe(s: dict) -> list[str]:
    """Human-readable lines: environment, samples, every metric with its unit."""
    wall = s["wall_samples"]
    tail = tail_percentile(wall)
    tail_text = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail
                 else "no tail percentile (needs 20 samples)")
    e = s["end_to_end"]
    lines = [
        f"[{s['workload']}] env {json.dumps(s['env'], sort_keys=True)}",
        f"[{s['workload']}] wall_s {e['wall_s']:.4f} s  (median of n={len(wall)} timed passes; "
        f"{tail_text}; samples {' '.join(f'{w:.3f}' for w in wall)})",
        f"[{s['workload']}] cpu_s {e['cpu_s']:.4f} s",
        f"[{s['workload']}] setup_s {e['setup_s']:.4f} s  "
        f"(median of n={len(s['setup_samples'])} fresh imports)",
        f"[{s['workload']}] peak_rss_mib {e['peak_rss_mib']:.1f} MiB",
        f"[{s['workload']}] fail_frac {s['failed'] / s['attempted']:.4f} ratio  "
        f"({s['failed']} of {s['attempted']} operations failed)",
        f"[{s['workload']}] values {json.dumps(s['values'], sort_keys=True)}",
    ]
    for metric, value in s["layers"].items():
        if value:
            lines.append(f"[{s['workload']}] {metric} {value:.6g} {LAYER_UNITS[metric]}")
    return lines


def result_line(summaries: list[dict], trace: bool) -> dict:
    """The final JSON object; metric names carry the workload when several ran."""
    units = dict(END_TO_END) | LAYER_UNITS
    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        for metric, value in (s["layers"] if trace else s["end_to_end"]).items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    failed = sum(s["failed"] for s in summaries)
    return {"correct": failed == 0, "attempted": sum(s["attempted"] for s in summaries),
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind like an exception, so subprocess.run kills and reaps
    # the child or probe it is waiting on and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "logitlab" / "cli.py").is_file():
        print(f"error: no logitlab sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(describe(summary)), flush=True)
            summaries.append(summary)
    except (RunError, subprocess.TimeoutExpired, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result_line(summaries, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
