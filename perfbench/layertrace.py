"""Span tracing of the logassign layers, installed from outside the package.

``install`` replaces the public functions of ``logassign.gains``,
``matching``, ``quantile``, ``experiment`` and ``cli`` (and the module-level
names that other modules imported from them) with wrappers that record one
span per call.  A span holds its name, start, end, parent span, the
replicate it ran for, and a few attributes (matrix size, bisection steps,
bytes written).  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer figures when the run ends.

Pool workers are forked from the traced process, so they inherit the
wrappers.  ``TracedPool`` ships each worker's spans back with the task
result, which keeps the report bytes untouched because the experiment code
only ever sees the plain value.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import pickle
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

# A span: [name, start, end, parent index or -1, replicate id or None, attrs]
NAME, START, END, PARENT, REPLICATE, ATTRS = range(6)

# The tracer of this process.  Pool workers reach it through
# ``_traced_call``, which is pickled by reference and so cannot carry it.
_active = None


class Tracer:
    """In-memory span recorder for one process; spans nest on one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.replicate = None
        # One record per pool; workers send back (pid, spans) batches whose
        # parent indices are local to the batch.
        self.pools: list[dict] = []

    def current_name(self):
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def open(self, name: str, **attrs) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.replicate, attrs])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def call(self, name, fn, args, kwargs, attrs=None):
        index = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(index)
        if attrs is not None:
            self.spans[index][ATTRS].update(attrs(args, kwargs, result))
        return result


def _wrap(tracer: Tracer, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs)

    return wrapper


def _traced_call(fn, task):
    """Pool task body: run ``fn`` in a worker and return its spans with it."""
    tracer = _active
    saved_stack, saved_replicate = tracer.stack, tracer.replicate
    mark = len(tracer.spans)
    tracer.stack, tracer.replicate = [], None
    try:
        value = fn(task)
    finally:
        tracer.stack, tracer.replicate = saved_stack, saved_replicate
    spans = tracer.spans[mark:]
    del tracer.spans[mark:]
    for span in spans:
        if span[PARENT] >= 0:
            span[PARENT] -= mark
    return value, (os.getpid(), spans)


def _entries(size) -> int:
    if size is None:
        return 1
    return size if isinstance(size, int) else math.prod(size)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported ``logassign`` package."""
    global _active
    import logassign.cli as cli
    import logassign.experiment as experiment
    import logassign.gains as gains
    import logassign.matching as matching
    import logassign.quantile as quantile

    _active = tracer

    def patch(modules, attr, name, attrs=None):
        wrapped = _wrap(tracer, name, getattr(modules[0], attr), attrs)
        for module in modules:
            if hasattr(module, attr):
                setattr(module, attr, wrapped)

    # gains: drawing matrices and the reciprocal-gain transform.
    patch([gains, experiment], "generate_cost_matrix", "gains.draw",
          lambda a, k, r: {"entries": int(r.size)})
    for cls in (gains.ConstantGain, gains.ExponentialGain, gains.UniformGain,
                gains.ParetoGain, gains.DensityGain):
        cls.sample = _sample_wrapper(tracer, cls.sample)
    gains.GainModel.log_laplace = _wrap(tracer, "gains.log_laplace",
                                        gains.GainModel.log_laplace)
    # matching: the exact solver.
    patch([matching, experiment, cli], "solve_max_assignment", "matching.solve",
          lambda a, k, r: {"n": len(r.permutation)})
    # quantile: bisection over the transform, and the n * q(1/n) prediction.
    patch([quantile, cli], "tail_quantile", "quantile.tail_quantile",
          lambda a, k, r: {"iterations": r.iterations})
    patch([quantile, experiment], "predicted_max", "quantile.predicted_max")
    # experiment: streams, replicates, the pool, aggregation, serialization.
    patch([experiment], "replicate_stream", "experiment.stream")
    experiment._replicate_value = _replicate_wrapper(tracer, experiment._replicate_value)
    patch([experiment, cli], "run_experiment", "experiment.aggregate")
    patch([experiment, cli], "report_csv_text", "experiment.serialize",
          lambda a, k, r: {"bytes": len(r.encode())})
    experiment.ProcessPoolExecutor = _pool_class(tracer)
    # cli: the command bodies (argument parsing and output sit here).
    for command in (cli.predict, cli.simulate):
        command.callback = _wrap(tracer, "cli.command", command.callback)


def _sample_wrapper(tracer: Tracer, fn):
    # A draw inside generate_cost_matrix is already inside its gains.draw
    # span; only the frozen quenched gain matrix opens a span of its own.
    @functools.wraps(fn)
    def wrapper(self, rng, size=None):
        if tracer.current_name() == "gains.draw":
            return fn(self, rng, size)
        return tracer.call("gains.draw", fn, (self, rng, size), {},
                           lambda a, k, r: {"entries": _entries(size)})

    return wrapper


def _replicate_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(args):
        n, replicate = args[1], args[2]
        tracer.replicate = f"{n}:{replicate}"
        try:
            return tracer.call("experiment.replicate", fn, (args,), {})
        finally:
            tracer.replicate = None

    return wrapper


def _pool_class(tracer: Tracer):
    class TracedPool(ProcessPoolExecutor):
        """Process pool that times its own life and collects worker spans."""

        def __init__(self, max_workers=None, **kwargs):
            self._span = tracer.open("experiment.pool", jobs=max_workers)
            self._record = {"jobs": max_workers, "task_bytes": 0, "worker_batches": []}
            self._tasks = []
            tracer.pools.append(self._record)
            super().__init__(max_workers=max_workers, **kwargs)

        def map(self, fn, *iterables, timeout=None, chunksize=1):
            (tasks,) = iterables
            tasks = list(tasks)
            self._tasks += tasks
            results = super().map(_traced_call, itertools.repeat(fn, len(tasks)),
                                  tasks, timeout=timeout, chunksize=chunksize)
            return self._collect(results)

        def _collect(self, results):
            while True:
                wait = tracer.open("experiment.pool.wait")
                try:
                    value, batch = next(results)
                except StopIteration:
                    return
                finally:
                    tracer.close(wait)
                self._record["worker_batches"].append(batch)
                yield value

        def shutdown(self, wait=True, **kwargs):
            try:
                super().shutdown(wait=wait, **kwargs)
            finally:
                if tracer.stack and tracer.stack[-1] == self._span:
                    tracer.close(self._span)
            # Computed, not observed, and outside the pool's span: the
            # executor itself pickles tasks in chunks with the function.
            self._record["task_bytes"] += sum(
                len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL)) for task in self._tasks)
            self._tasks = []

    return TracedPool


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def _span_lists(tracer: Tracer):
    """(pid, spans) for this process, then for each batch a worker sent back."""
    yield os.getpid(), tracer.spans
    for pool in tracer.pools:
        yield from pool["worker_batches"]


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures for one traced round, keyed by metric name.

    A layer that did not run reads 0 on each of its metrics.
    """
    # (span, self time, parent span or None) over every process.
    rows = []
    for _, spans in _span_lists(tracer):
        for span, own in zip(spans, self_times(spans)):
            rows.append((span, own, spans[span[PARENT]] if span[PARENT] >= 0 else None))

    def named(name):
        return [(span, own, parent) for span, own, parent in rows if span[NAME] == name]

    def self_s(name):
        return sum(own for _, own, _ in named(name))

    out: dict[str, float] = {}
    draws = named("gains.draw")
    entries = sum(span[ATTRS]["entries"] for span, _, _ in draws)
    out["gains.draw.calls"] = len(draws)
    out["gains.draw.self_s"] = self_s("gains.draw")
    out["gains.draw.ns_per_entry"] = out["gains.draw.self_s"] / entries * 1e9 if entries else 0.0

    transforms = named("gains.log_laplace")
    out["gains.log_laplace.calls"] = len(transforms)
    out["gains.log_laplace.self_s"] = self_s("gains.log_laplace")
    out["gains.log_laplace.us_per_call"] = (
        out["gains.log_laplace.self_s"] / len(transforms) * 1e6 if transforms else 0.0
    )

    solves = named("matching.solve")
    solve_ms = [own * 1e3 for _, own, _ in solves]
    cubes = sum(span[ATTRS]["n"] ** 3 for span, _, _ in solves)
    out["matching.solve.calls"] = len(solves)
    out["matching.solve.self_s"] = sum(solve_ms) / 1e3
    out["matching.solve.ms_p50"] = statistics.median(solve_ms) if solve_ms else 0.0
    out["matching.solve.ms_p99"] = _quantile(solve_ms, 0.99)
    out["matching.solve.ns_per_n3"] = sum(solve_ms) * 1e6 / cubes if cubes else 0.0

    quantiles = named("quantile.tail_quantile")
    inside_quantile = sum(
        1 for _, _, parent in transforms
        if parent is not None and parent[NAME] == "quantile.tail_quantile"
    )
    out["quantile.tail_quantile.calls"] = len(quantiles)
    out["quantile.tail_quantile.self_s"] = self_s("quantile.tail_quantile")
    out["quantile.bisect.iterations"] = sum(span[ATTRS]["iterations"] for span, _, _ in quantiles)
    out["quantile.transform_calls_per_quantile"] = (
        inside_quantile / len(quantiles) if quantiles else 0.0
    )

    out["experiment.stream.calls"] = len(named("experiment.stream"))
    out["experiment.stream.self_s"] = self_s("experiment.stream")

    pools = named("experiment.pool")
    # Replicates without a parent span ran in a pool worker.
    busy = sum(span[END] - span[START] for span, _, parent in named("experiment.replicate")
               if parent is None)
    capacity = sum(span[ATTRS]["jobs"] * (span[END] - span[START]) for span, _, _ in pools)
    out["experiment.pool.starts"] = len(pools)
    out["experiment.pool.wait_s"] = self_s("experiment.pool.wait")
    out["experiment.pool.efficiency"] = busy / capacity if capacity else 0.0
    out["experiment.pool.task_bytes"] = sum(pool["task_bytes"] for pool in tracer.pools)

    out["experiment.aggregate.self_s"] = self_s("experiment.aggregate")
    serialized = named("experiment.serialize")
    out["experiment.serialize.self_s"] = self_s("experiment.serialize")
    out["experiment.serialize.bytes"] = sum(span[ATTRS]["bytes"] for span, _, _ in serialized)
    return out


def dump(tracer: Tracer) -> list[dict]:
    """Every span as a plain record; ``batch`` is None for this process."""
    records = []
    for batch, (pid, spans) in enumerate(_span_lists(tracer)):
        for index, span in enumerate(spans):
            records.append({
                "pid": pid, "batch": batch - 1 if batch else None, "index": index,
                "name": span[NAME], "start": span[START], "end": span[END],
                "parent": span[PARENT], "replicate": span[REPLICATE], **span[ATTRS],
            })
    return records
