"""Command-line front end.

Three commands:

    spdefem study <config.yaml>       run the configured study
    spdefem trajectory <config.yaml>  checkpoint one sample path
    spdefem selftest                  run the built-in verification battery

Shared flags: ``--seed`` overrides the document's seed, ``--workers``
sets the process count for Monte-Carlo batches, ``--out`` picks the
output directory (the SPDEFEM_OUT environment variable is the fallback,
then the current directory).

Artifacts are named after the study kind and config hash, so a rerun of
the same document lands on the same files.  Rate-study CSVs carry no
wall-clock metadata and are byte-identical across reruns and worker
counts; the JSON summaries carry runtime and the number of worker
processes that ran batches (1 for serial runs and operator studies).

Exit status: 0 on success, 1 when a rate fit failed (every level under
the Monte-Carlo noise floor), 2 for configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError, load_config
from .experiments import (MomentReport, RateReport, run_study,
                          simulate_trajectory)
from .selftest import run_selftest

__all__ = ["main"]


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(
            f"must lie in [0, 2^64), got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdefem",
        description="Finite element rate studies for semilinear "
                    "stochastic heat equations.")
    parser.add_argument("--version", action="version",
                        version=f"spdefem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p, needs_config):
        if needs_config:
            p.add_argument("config", help="YAML study document")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the document's seed")
        p.add_argument("--workers", type=_worker_count, default=1,
                       help="worker processes for sample batches")
        p.add_argument("--out", default=None,
                       help="output directory (default: $SPDEFEM_OUT or .)")

    add_shared(sub.add_parser(
        "study", help="run the configured convergence or moment study"),
        needs_config=True)
    add_shared(sub.add_parser(
        "trajectory", help="simulate one path and checkpoint every step"),
        needs_config=True)
    add_shared(sub.add_parser(
        "selftest", help="run the built-in verification battery"),
        needs_config=False)
    return parser


def _out_dir(args) -> str:
    directory = args.out or os.environ.get("SPDEFEM_OUT") or "."
    os.makedirs(directory, exist_ok=True)
    return directory


def _load(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _stem(cfg) -> str:
    return f"{cfg.kind}_{cfg.config_hash}_s{cfg.seed}"


def _operator_csv(cfg, fits) -> str:
    lines = [
        f"# config_hash={cfg.config_hash}",
        f"# seed={cfg.seed}",
        f"# version={__version__}",
        "s,r,which,slope,ci_lo,ci_hi",
    ]
    for (s, r, which), fit in fits.items():
        lines.append(f"{s:.17g},{r:.17g},{which},{fit.slope:.17g},"
                     f"{fit.ci_lo:.17g},{fit.ci_hi:.17g}")
    return "\n".join(lines) + "\n"


def _operator_json(cfg, fits, runtime: float) -> str:
    payload = {
        "kind": cfg.kind,
        "fits": [
            {"s": s, "r": r, "which": which, "slope": fit.slope,
             "ci_lo": fit.ci_lo, "ci_hi": fit.ci_hi}
            for (s, r, which), fit in fits.items()
        ],
        "seed": cfg.seed,
        "config_hash": cfg.config_hash,
        "provenance": cfg.provenance,
        "runtime_seconds": runtime,
        "workers": 1,              # operator studies never start a pool
        "version": __version__,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _moment_csv(cfg, report: MomentReport) -> str:
    lines = [
        f"# config_hash={cfg.config_hash}",
        f"# seed={cfg.seed}",
        f"# version={__version__}",
        "level,h,z_sup,z_sup_stderr,z_l2,z_l2_stderr,x_sup,x_sup_stderr",
    ]
    rows = zip(report.resolutions, report.z_sup_moment, report.z_sup_stderr,
               report.z_l2_moment, report.z_l2_stderr,
               report.x_sup_moment, report.x_sup_stderr)
    for index, row in enumerate(rows):
        lines.append(f"{index}," + ",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _run_study(args) -> int:
    cfg = _load(args)
    directory = _out_dir(args)
    start = time.perf_counter()
    report = run_study(cfg, workers=args.workers)
    stem = os.path.join(directory, _stem(cfg))
    if isinstance(report, RateReport):
        _write(stem + ".csv", report.to_csv())
        _write(stem + ".json", report.to_json())
        slope = report.slope
        print(f"{cfg.kind} study {cfg.config_hash}: slope={slope:.4f} "
              f"ci=[{report.ci_lo:.4f}, {report.ci_hi:.4f}] "
              f"levels={len(report.levels)} "
              f"runtime={report.runtime_seconds:.1f}s")
        for note in report.notes:
            print(f"  note: {note}")
        print(f"wrote {stem}.csv and {stem}.json")
        return 1 if report.fit_failed else 0
    if isinstance(report, MomentReport):
        _write(stem + ".csv", _moment_csv(cfg, report))
        _write(stem + ".json", report.to_json())
        summary = ", ".join(f"{k}={v:.3f}"
                            for k, v in sorted(report.exponents.items())
                            if not k.endswith("_envelope"))
        print(f"moments study {cfg.config_hash}: {summary} "
              f"runtime={report.runtime_seconds:.1f}s")
        for note in report.notes:
            print(f"  note: {note}")
        print(f"wrote {stem}.csv and {stem}.json")
        return 0
    # operator study: a mapping of (s, r, which) -> fit
    runtime = time.perf_counter() - start
    _write(stem + ".csv", _operator_csv(cfg, report))
    _write(stem + ".json", _operator_json(cfg, report, runtime))
    for (s, r, which), fit in report.items():
        print(f"operator ({s:g}, {r:g}, {which}): slope={fit.slope:.4f}")
    print(f"wrote {stem}.csv and {stem}.json")
    return 0


def _run_trajectory(args) -> int:
    cfg = _load(args)
    directory = _out_dir(args)
    start = time.perf_counter()
    space, times, states = simulate_trajectory(cfg)
    runtime = time.perf_counter() - start
    stem = os.path.join(directory, f"trajectory_{cfg.config_hash}_s{cfg.seed}")

    # nodal values per step, boundary nodes included for plotting
    nodes = space.mesh.nodes
    lines = [
        f"# config_hash={cfg.config_hash}",
        f"# seed={cfg.seed}",
        f"# version={__version__}",
        "# columns: t then nodal values at x=" +
        ",".join(f"{x:.17g}" for x in nodes),
        "t," + ",".join(f"x{i}" for i in range(nodes.size)),
    ]
    padded = np.zeros((states.shape[0], nodes.size))
    padded[:, 1:-1] = states
    for t, row in zip(times, padded):
        lines.append(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row))
    _write(stem + ".csv", "\n".join(lines) + "\n")

    summary = {
        "kind": "trajectory",
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "provenance": cfg.provenance,
        "n_steps": int(states.shape[0] - 1),
        "n_nodes": int(nodes.size),
        "final_sup_norm": float(np.abs(states[-1]).max()),
        "runtime_seconds": runtime,
        "workers": 1,
        "version": __version__,
    }
    _write(stem + ".json", json.dumps(summary, indent=2, sort_keys=True)
           + "\n")
    print(f"trajectory {cfg.config_hash}: {states.shape[0] - 1} steps on "
          f"{space.n} interior nodes, runtime={runtime:.1f}s")
    print(f"wrote {stem}.csv and {stem}.json")
    return 0


def _run_selftest(args) -> int:
    start = time.perf_counter()
    results = run_selftest(seed=args.seed if args.seed is not None else 0,
                           workers=max(args.workers, 2))
    failures = [r for r in results if not r.passed]
    for r in results:
        mark = "ok  " if r.passed else "FAIL"
        line = f"{mark} {r.name} ({r.seconds:.2f}s)"
        print(line if r.passed else f"{line}: {r.detail}")
    total = time.perf_counter() - start
    print(f"{len(results) - len(failures)}/{len(results)} checks passed "
          f"in {total:.1f}s")
    if args.out is not None or os.environ.get("SPDEFEM_OUT"):
        directory = _out_dir(args)
        payload = {
            "passed": not failures,
            "checks": [dataclasses.asdict(r) for r in results],
            "runtime_seconds": total,
            "version": __version__,
        }
        path = os.path.join(directory, "selftest.json")
        _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"study": _run_study, "trajectory": _run_trajectory,
               "selftest": _run_selftest}[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
