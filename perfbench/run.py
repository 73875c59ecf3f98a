"""spdefem benchmark: shipped studies end to end, and their layers traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is one shipped config
entered through ``spdefem.cli.main(["study", ...])`` exactly as
``spdefem study`` does, one study at a time from this one benchmark process
(closed loop, one client), each in a fresh process because users pay the
import cost on every run.  ``--seed`` overrides the config's seed, so it
picks the Monte-Carlo draws; the operator study is deterministic and
ignores it.

Workloads (why each was chosen):
  strong_smooth  configs/strong_smooth.yaml, serial: six meshes coupled
                 through one 754-dim dense joint factor; the joint draw
                 and the eigen transforms do most of the work.  Its traced
                 run adds the same study with --workers 2, the only one
                 through the fork pool, whose CSV must be byte-identical
                 to the serial one.  That study is not a workload of its
                 own: while each forked worker runs two BLAS threads on two
                 cores its wall time is bimodal (11.7-19.6 s over five
                 runs), so no bound holds; its figures are per-layer.
  operators      configs/operators.yaml: deterministic power-iteration
                 operator norms; no sampling, noise or pool, so changes to
                 those layers predict no change here.
  splitting_dt   configs/splitting_dt.yaml: one 63-node mesh and 32,768
                 substeps, so per-call overhead dominates, not flops.  Run
                 by hand only: the run budget fits two workloads at 50 s
                 a run, and at the 25 s a run that three would allow its
                 run medians spread 21% (IQR over median, five seeds).

--trace 0 reports, as medians:
  study_s        wall seconds of one study process, spawn to exit (config
                 path to CSV and JSON written, imports included); another
                 study starts while the last one's time still fits in
                 --seconds;
  setup_s        seconds from cli.main entry to the first sample batch or
                 operator norm, in each of those studies;
  cpu_s          user + system CPU seconds of the study process and its
                 pool workers;
  peak_rss_mb    the largest peak resident set of the study process and
                 its workers;
  passed_share   studies that passed the output check (checks.py) over
                 studies attempted.
--trace 1 runs one untraced and two traced studies and reports
per-layer self times and counts (spans.py), the tracing overhead, the
pool's figures and the study JSON's own runtime_seconds as a diagnostic.
On strong_smooth the second traced study is the two-worker one.  The
exact counts (EXACT_COUNTS) of the two traced studies must be equal.
The self times plus trace.unattributed_s add up to the traced study_s by
construction (see spans.layer_metrics), so that sum is not checked.

The last line of standard output is the result object; the lines before
it record the environment and every study.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check_study, digest, same_digests
from envinfo import collect
from spans import layer_metrics, pool_metrics

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"

# name: (config, study kind, worker count of the traced pool twin or 0)
WORKLOADS = {
    "strong_smooth": ("configs/strong_smooth.yaml", "strong", 2),
    "splitting_dt": ("configs/splitting_dt.yaml", "splitting_dt", 0),
    "operators": ("configs/operators.yaml", "operators", 0),
}

# Counts that must repeat exactly from one traced study to the next, and
# between a serial and a pooled study.
EXACT_COUNTS = ("fem.banded_solves", "fem.operator_norm_capped",
                "noise.joint_dim", "noise.factor_nnz", "rng.substream_calls",
                "dynamics.flow_calls", "noise.draw_calls")

# Figures of the traced pool twin; zero on workloads that have none.
# pool_study_s and pool_cpu_s are the two-worker study's wall and CPU
# seconds, which show pool oversubscription.
POOL_METRICS = ("experiments.pool_wall_s", "experiments.worker_busy_s",
                "experiments.pool_wait_s", "experiments.pool_study_s",
                "experiments.pool_cpu_s")

UNITS = {"peak_rss_mb": "MB", "passed_share": "share",
         "noise.draw_flops": "flop", "noise.draw_rate": "Gflop/s"}

# Every child is killed at this many seconds after the benchmark started.
DEADLINE_S = 170.0


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def _median(values):
    return statistics.median(values) if values else float("nan")


class Runner:
    """Starts study processes for one workload and keeps their results."""

    def __init__(self, workload, seed, work):
        self.config, self.kind, self.pool_workers = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.started = time.perf_counter()
        self.studies = []

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, tag, trace=False, workers=1):
        """Run one study process to its end; return timings and outputs."""
        out_dir = self.work / tag
        result_path = self.work / f"{tag}.json"
        log_path = self.work / f"{tag}.log"
        cmd = [sys.executable, str(CHILD), "1" if trace else "0",
               str(result_path), "--", "study", self.config,
               "--seed", str(self.seed), "--workers", str(workers),
               "--out", str(out_dir)]
        with open(log_path, "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            result = {}
        if proc.returncode != 0:
            print(f"{tag}: exit {proc.returncode}\n"
                  f"{log_path.read_text()[-2000:]}", file=sys.stderr)
        run = {
            "tag": tag,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode,
            "setup_s": result.get("setup_s"),
            "spans": result.get("trace"),
        }
        csvs = sorted(out_dir.glob("*.csv"))
        jsons = sorted(out_dir.glob("*.json"))
        csv_text = csvs[0].read_text() if len(csvs) == 1 else None
        run["summary"] = (json.loads(jsons[0].read_text())
                          if len(jsons) == 1 else None)
        run["digest"] = digest(csv_text) if csv_text else None
        run["problems"] = check_study(self.kind, proc.returncode,
                                      csv_text, run["summary"])
        self.studies.append(run)
        return run


def measure(runner, seconds):
    """--trace 0: studies until `seconds` pass; medians over them."""
    start = time.perf_counter()
    timed = []
    while not timed or (
            time.perf_counter() - start + timed[-1]["wall_s"] <= seconds
            and timed[-1]["exit_code"] == 0
            and runner.remaining() > 2 * timed[-1]["wall_s"] + 10.0):
        timed.append(runner.spawn(f"study{len(timed)}"))
    setup_s = [r["setup_s"] for r in timed if r["setup_s"] is not None]
    print(f"samples: study_s, cpu_s and peak_rss_mb are medians of "
          f"{len(timed)} studies, setup_s of {len(setup_s)}")
    return {
        "study_s": _median([r["wall_s"] for r in timed]),
        "setup_s": _median(setup_s),
        "cpu_s": _median([r["cpu_s"] for r in timed]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in timed]),
    }, []


def _count_problems(what, expected, counts):
    changed = [f"{k} {expected[k]} -> {counts[k]}" for k in EXACT_COUNTS
               if expected[k] != counts[k]]
    print(f"exact counts: {'differ from' if changed else 'repeat'} {what}")
    return [f"counts differ from {what}: {', '.join(changed)}"] \
        if changed else []


def trace(runner):
    """--trace 1: an untraced study, a traced one, and a traced twin."""
    plain = runner.spawn("plain")
    traced = runner.spawn("traced", trace=True)
    twin = runner.spawn("traced_twin", trace=True,
                        workers=runner.pool_workers or 1)
    if traced["spans"] is None or twin["spans"] is None \
            or plain["summary"] is None:
        return {}, ["a study process failed"]
    metrics = layer_metrics(traced["spans"], traced["wall_s"])
    twin_metrics = layer_metrics(twin["spans"], twin["wall_s"])
    problems = _count_problems(
        "the pooled study" if runner.pool_workers else "the second study",
        metrics, twin_metrics)
    metrics.update(dict.fromkeys(POOL_METRICS, 0.0))
    if runner.pool_workers:
        metrics.update(pool_metrics(twin["spans"], twin["wall_s"]))
        metrics["experiments.pool_study_s"] = twin["wall_s"]
        metrics["experiments.pool_cpu_s"] = twin["cpu_s"]
    metrics["trace.study_s"] = traced["wall_s"]
    metrics["trace.untraced_study_s"] = plain["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["cli.reported_runtime_s"] = plain["summary"]["runtime_seconds"]
    return metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/spdefem/cli.py", WORKLOADS[args.workload][0])
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a spdefem checkout (missing {', '.join(missing)}); "
              "run from the repository root", file=sys.stderr)
        return 2

    env = collect(ROOT)
    print("env: " + json.dumps(env, sort_keys=True))
    work = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work)
    try:
        metrics, problems = (trace(runner) if args.trace
                             else measure(runner, args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in runner.studies:
        print(f"study {r['tag']}: study_s={r['wall_s']:.3f} "
              f"setup_s={r['setup_s']} cpu_s={r['cpu_s']:.2f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} json runtime_seconds="
              f"{(r['summary'] or {}).get('runtime_seconds')} "
              f"csv sha256={(r['digest'] or '-')[:16]} "
              f"check={'; '.join(r['problems']) or 'ok'}")
    problems += same_digests([r["digest"] for r in runner.studies])
    if not all(math.isfinite(v) for v in metrics.values()):
        problems.append("a metric is not finite")
    for problem in problems:
        print(f"problem: {problem}")
    # a problem of the whole run (determinism, exact counts)
    # fails every study in it
    attempted = max(len(runner.studies), 1)
    failed = attempted if problems else sum(bool(r["problems"])
                                            for r in runner.studies)
    if not args.trace:
        metrics["passed_share"] = (attempted - failed) / attempted
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {_unit(name)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
