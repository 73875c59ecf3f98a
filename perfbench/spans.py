"""Layer spans and counters, attached to spdefem from outside the package.

`Tracer.wrap` times one callable as a named span.  Spans nest through a
stack: when a span ends, its duration is added to the enclosing span's
child time, so a span's *self* time is its duration minus the time its
child spans cover.  Per name the tracer keeps calls, total and self
seconds; counters are plain integers bumped from wrapper code.

`instrument` patches every binding of the package callables that the
shipped studies run (module globals that `from ... import` copied, and
class attributes), so nothing under ``src/`` changes.  Pool workers are
forked from the traced process and inherit the wrappers; each worker
batch ships its own span totals back inside the batch result, and the
wrapped batch map moves them into `Tracer.worker` before the program
reads the results.
"""

from __future__ import annotations

import functools
import inspect
import time

_CLOCK = time.perf_counter
_WORKER_KEY = "_perfbench_spans"
_NNZ_ATTR = "_perfbench_nnz"


class Tracer:
    """Span totals for one process: ``stats[name] = [calls, total, self]``."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.worker: dict[str, list] = {}
        self.pool_slots = 0
        self._stack: list[list[float]] = []

    def wrap(self, name, fn):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = _CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _CLOCK() - start
                stack.pop()
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed

        return span

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def reset(self):
        """Zero every total in place (the wrappers hold the entry lists)."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self._stack.clear()

    def snapshot(self):
        return {"stats": {k: list(v) for k, v in self.stats.items() if v[0]},
                "counts": dict(self.counts),
                "worker": {k: list(v) for k, v in self.worker.items()},
                "pool_slots": self.pool_slots}

    def merge_worker(self, payload):
        for name, (calls, total, self_s) in payload["stats"].items():
            entry = self.worker.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, amount in payload["counts"].items():
            self.count(name, amount)


def _patch(owner, attr, wrapper):
    setattr(owner, attr, wrapper(getattr(owner, attr)))


def instrument(tracer: Tracer):
    """Wrap the spdefem callables the shipped studies reach; see module doc."""
    from spdefem import cli, dynamics, experiments, fem, rng

    def span(name):
        return lambda fn: tracer.wrap(name, fn)

    _patch(cli, "load_config", span("config.load"))
    _patch(cli, "_write", span("cli.write"))
    _patch(cli, "run_study", span("experiments.study"))

    for engine in (experiments._CoupledEngine, experiments._SplittingDtEngine):
        _patch(engine, "__init__", span("experiments.engine_init"))
        _patch(engine, "run_batch", span("experiments.batch"))
    _patch(experiments, "_reduce_rate_study", span("experiments.reduce"))

    substream = tracer.wrap("rng.substream", rng.substream)
    for module in (rng, fem, experiments):
        module.substream = substream

    _patch(fem.FemSpace, "__init__", span("fem.space_init"))
    _patch(fem.FemSpace, "coupling", span("fem.coupling"))
    _patch(fem.FemSpace, "mode_overlap", span("fem.coupling"))
    _patch(fem.FemSpace, "to_eigen", span("fem.transform"))
    _patch(fem.FemSpace, "from_eigen", span("fem.transform"))
    _patch(fem.L2Comparer, "distance", span("fem.l2_compare"))
    _patch(experiments, "operator_error_norm", span("fem.operator_norm"))
    for attr in ("solve_mass", "solve_stiffness"):
        _patch(fem.FemSpace, attr, _counter(tracer, "fem.banded_solves"))
    _patch(fem, "_power_iteration_norm", _iteration_counter(tracer))

    _patch(dynamics.Integrator, "step_with_eigen_noise", span("dynamics.step"))
    _patch(dynamics.PolynomialDrift, "flow", span("dynamics.flow"))

    _patch(experiments._JointNoise, "__init__", _factor_probe(tracer))
    _patch(experiments._JointNoise, "sample", _draw_probe(tracer))

    _patch(experiments, "_engine_batch", _worker_batch(tracer))
    _patch(experiments, "_map_batches", _batch_map(tracer))


def _counter(tracer, name):
    def wrapper(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return counted
    return wrapper


def _iteration_counter(tracer):
    """Count the power iterations that stop at their iteration cap."""
    def wrapper(fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def power_iteration(matvec, *args, **kwargs):
            bound = signature.bind(matvec, *args, **kwargs)
            bound.apply_defaults()
            calls = [0]

            def counted_matvec(x):
                calls[0] += 1
                return matvec(x)

            try:
                return fn(counted_matvec, *args, **kwargs)
            finally:
                tracer.count("fem.operator_norm_capped",
                             int(calls[0] >= bound.arguments["max_iter"]))
        return power_iteration
    return wrapper


def _factor_probe(tracer):
    def wrapper(fn):
        timed = tracer.wrap("noise.factor", fn)

        @functools.wraps(fn)
        def init(noise, *args, **kwargs):
            timed(noise, *args, **kwargs)
            nnz = int((noise._chol != 0.0).sum())
            setattr(noise, _NNZ_ATTR, nnz)
            tracer.count("noise.joint_dim", noise.dim)
            tracer.count("noise.factor_nnz", nnz)
        return init
    return wrapper


def _draw_probe(tracer):
    """Time each joint draw and add its computed flops, 2 * nnz * batch."""
    def wrapper(fn):
        timed = tracer.wrap("noise.draw", fn)

        @functools.wraps(fn)
        def sample(noise, seed, batch_index, substep_index, batch):
            tracer.count("noise.draw_flops",
                         2 * getattr(noise, _NNZ_ATTR) * batch)
            return timed(noise, seed, batch_index, substep_index, batch)
        return sample
    return wrapper


def _worker_batch(tracer):
    """Pool task wrapper: runs in a forked worker, returns its spans."""
    def wrapper(fn):
        @functools.wraps(fn)
        def engine_batch(index):
            tracer.reset()
            out = fn(index)
            out[_WORKER_KEY] = tracer.snapshot()
            return out
        return engine_batch
    return wrapper


def _batch_map(tracer):
    def wrapper(fn):
        timed = tracer.wrap("experiments.map", fn)

        @functools.wraps(fn)
        def map_batches(engine, map_fn, workers):
            results = timed(engine, map_fn, workers)
            for result in results:
                payload = result.pop(_WORKER_KEY, None)
                if payload is not None:
                    tracer.merge_worker(payload)
                    tracer.pool_slots = min(workers, engine.n_batches)
                tracer.count("experiments.batches")
                tracer.count("experiments.aborted_samples",
                             int(result["aborted"].sum()))
            return results
        return map_batches
    return wrapper


# Spans whose self times partition the traced study's wall time.  In a
# pooled study the batch map's self time is its wall time; the worker
# layer time per pool slot is moved out of it into the layers, which
# leaves the map's share as the slots' wait; see `layer_metrics`.
PARTITION = {
    "cli.main": "cli.main_self_s",
    "config.load": "config.load_s",
    "cli.write": "cli.write_s",
    "experiments.study": "experiments.study_self_s",
    "experiments.engine_init": "experiments.engine_init_s",
    "fem.space_init": "fem.space_init_s",
    "fem.coupling": "fem.coupling_s",
    "noise.factor": "noise.factor_s",
    "experiments.map": "experiments.map_self_s",
    "experiments.batch": "experiments.batch_self_s",
    "noise.draw": "noise.draw_s",
    "rng.substream": "rng.substream_s",
    "dynamics.step": "dynamics.step_s",
    "dynamics.flow": "dynamics.flow_s",
    "fem.transform": "fem.transform_s",
    "fem.l2_compare": "fem.l2_compare_s",
    "experiments.reduce": "experiments.reduce_s",
    "fem.operator_norm": "fem.operator_norm_s",
}

# Call counts read off the spans (study process and workers together).
CALLS = {
    "noise.draw_calls": "noise.draw",
    "fem.transform_calls": "fem.transform",
    "fem.operator_norm_calls": "fem.operator_norm",
    "rng.substream_calls": "rng.substream",
    "dynamics.flow_calls": "dynamics.flow",
}

COUNTERS = ("noise.draw_flops", "noise.joint_dim", "noise.factor_nnz",
            "fem.banded_solves", "fem.operator_norm_capped",
            "experiments.batches",
            "experiments.aborted_samples")

_NONE = (0, 0.0, 0.0)


def layer_metrics(snapshot, study_s):
    """Per-layer self times and counts from one traced study.

    ``snapshot`` is `Tracer.snapshot()` of the study process and
    ``study_s`` its wall time.  Worker self time enters each layer
    divided by the pool size (seconds of study wall time per pool slot),
    so that

        sum(PARTITION self times) + trace.unattributed_s == study_s

    where ``trace.unattributed_s`` is the study process's wall time
    outside the root span (interpreter start, imports, exit).  The sum
    holds by construction: every span of the study process nests under
    ``cli.main``, every worker span under ``experiments.batch``, whose
    total per slot is taken out of the batch map's self time.  In a
    pooled study ``experiments.map_self_s`` is the time pool slots spent
    outside batches: start-up, result transfer and waiting for the last
    batch; serially it is the batch loop's own overhead.
    """
    main, worker = snapshot["stats"], snapshot["worker"]
    slots = snapshot["pool_slots"] or 1
    out = {}
    for name, metric in PARTITION.items():
        out[metric] = (main.get(name, _NONE)[2]
                       + worker.get(name, _NONE)[2] / slots)
    busy = worker.get("experiments.batch", _NONE)[1]
    out["experiments.map_self_s"] -= busy / slots
    out["trace.unattributed_s"] = study_s - main.get("cli.main", _NONE)[1]
    for metric, name in CALLS.items():
        out[metric] = main.get(name, _NONE)[0] + worker.get(name, _NONE)[0]
    for name in COUNTERS:
        out[name] = snapshot["counts"].get(name, 0)
    draw_s = (main.get("noise.draw", _NONE)[2]
              + worker.get("noise.draw", _NONE)[2])
    out["noise.draw_rate"] = (out["noise.draw_flops"] / draw_s / 1e9
                              if draw_s > 0 else 0.0)
    return out


def pool_metrics(snapshot, study_s):
    """Wall time of the pooled batch map, worker busy time, slot wait."""
    return {
        "experiments.pool_wall_s":
            snapshot["stats"].get("experiments.map", _NONE)[1],
        "experiments.worker_busy_s":
            snapshot["worker"].get("experiments.batch", _NONE)[1],
        "experiments.pool_wait_s":
            layer_metrics(snapshot, study_s)["experiments.map_self_s"],
    }

