"""Command-line front end.

Three commands:

    spdefem study <config.yaml>       run the configured study
    spdefem trajectory <config.yaml>  checkpoint one sample path
    spdefem selftest                  run the built-in verification battery

Shared flags: ``--seed`` overrides the document's seed, ``--out`` picks
the output directory (the SPDEFEM_OUT environment variable is the
fallback, then the current directory).  Only ``study`` takes
``--workers``, the process count for Monte-Carlo batches; the selftest
always checks determinism across 2 workers.

Artifacts are named after the report kind and config hash, so a rerun of
the same document lands on the same files.  The CLI formats no artifact:
one function writes the CSV and JSON of a study's or trajectory's report,
and prints its summary and notes.  CSVs carry no wall-clock metadata and
are byte-identical across reruns and worker counts; the JSON summaries
carry runtime and the number of worker processes that ran batches (1 for
serial runs and operator studies).  The trajectory command rejects
operator studies, which have no sample path.

Importing this module pins OpenBLAS to one thread: it sets
OPENBLAS_NUM_THREADS=1, overriding any user value, before numpy is first
imported.  (``import spdefem`` loads its modules only when a public name
is first used, so it imports no numpy ahead of this, and pins nothing
for library use.)  No CLI path makes a BLAS call large enough to gain
from threads (the largest is a 2 x 2 solve), while an idle OpenBLAS
pool spins on the CPU at start-up.  A study process therefore runs on
one OS thread, and ``--workers`` forks a single-threaded process.

Importing this module loads no scipy, whose import costs more than a
whole operator study: operator studies and ``--help`` run on numpy and
pyyaml alone.  A Monte-Carlo study loads two of scipy's compiled
kernels, the DST and the CSR product with the joint factor, as its batch
map starts, in this process before any fork, so that the workers inherit
them; it imports no scipy package.  Whatever the set-up between `main`'s
entry and the first batch reaches is imported with this module, and the
objects the imports made are then frozen out of the cyclic collector
(`gc.freeze`).

Exit status: 0 on success, 1 when a rate fit failed (every level under
the Monte-Carlo noise floor) or a trajectory overflowed (no artifacts
written), 2 for configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
# argparse's gettext imports locale when the first parser is built:
# import it with this module, so that a study's set-up imports nothing
import locale  # noqa: F401
import os
import sys
import time

# before the first numpy import, and unconditionally: a user value would
# bring back the idle threads (see the module docstring)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__  # noqa: E402
from .config import ConfigError, load_config
from .dynamics import IntegrationError
from .experiments import (TrajectoryReport, _artifact_json, run_study,
                          simulate_trajectory)

# the imports made most of the objects a study process holds: keep the
# cyclic collector from scanning them again, and forked workers from
# copying their pages by touching their collector links
gc.freeze()

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

    def add_shared(p, needs_config, takes_workers=False):
        if needs_config:
            p.add_argument("config", help="YAML study document")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the document's seed")
        if takes_workers:
            p.add_argument("--workers", type=_worker_count, default=1,
                           help="worker processes for sample batches")
        p.add_argument("--out", default=None,
                       help="output directory (default: $SPDEFEM_OUT or .)")

    add_shared(sub.add_parser(
        "study", help="run the configured convergence or moment study"),
        needs_config=True, takes_workers=True)
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


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _run_report(args) -> int:
    """Write the CSV and JSON of the study's or trajectory's report, and
    print its summary and notes."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.command == "study":
        report = run_study(cfg, workers=args.workers)
    else:
        start = time.perf_counter()
        try:
            path = simulate_trajectory(cfg)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        report = TrajectoryReport(
            *path, kind="trajectory", config_hash=cfg.config_hash,
            seed=cfg.seed, provenance=cfg.provenance,
            runtime_seconds=time.perf_counter() - start)
    stem = os.path.join(_out_dir(args),
                        f"{report.kind}_{cfg.config_hash}_s{cfg.seed}")
    _write(stem + ".csv", report.to_csv())
    _write(stem + ".json", report.to_json())
    print(report.summary())
    for note in report.notes:
        print(f"  note: {note}")
    print(f"wrote {stem}.csv and {stem}.json")
    return 1 if report.fit_failed else 0


def _run_selftest(args) -> int:
    from .selftest import run_selftest  # here: a study never loads it
    start = time.perf_counter()
    results = run_selftest(seed=args.seed if args.seed is not None else 0)
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
        path = os.path.join(directory, "selftest.json")
        _write(path, _artifact_json({
            "passed": not failures,
            "checks": [dataclasses.asdict(r) for r in results],
            "runtime_seconds": total,
        }))
        print(f"wrote {path}")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _run_selftest if args.command == "selftest" else _run_report
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
