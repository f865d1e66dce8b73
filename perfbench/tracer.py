"""Outside-in tracing: spans around the public calls of each layer.

The program carries no probes for this; instead :func:`install` replaces
each wrapped function or method *where its callers resolve it* — every
``repro`` module attribute bound to the original function (``from …
import`` copies included), and the class attribute for methods — with a
wrapper that records a span.  :meth:`Patcher.restore` puts every original
object back.

A span is ``(name, metric, start, end, parent, rep)``: ``metric`` is the
per-layer self-time metric the span's own time counts towards, ``parent``
the index of the enclosing span (``-1`` for a repetition root) and
``rep`` the repetition id.  Spans stay in memory; :meth:`Tracer.write`
dumps them once, at the end of a run.  A span's self time is its
duration minus the durations of its direct children, so per repetition
the self times of all spans sum to the root's duration exactly; the
root's own self time is the unattributed remainder.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

#: Self-time metric of a repetition root: time in no wrapped call.
UNATTRIBUTED = "trace.unattributed_s"


class Span(NamedTuple):
    name: str
    metric: str
    start: float
    end: float
    parent: int
    rep: int


class Tracer:
    """In-memory spans and counts of the wrapped calls of one run."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[int, Counter] = defaultdict(Counter)
        self.rep = -1
        self._stack: List[Tuple[int, str, str, float]] = []

    def open(self, name: str, metric: str) -> int:
        """Start a span; returns the index :meth:`close` takes."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append((index, name, metric, perf_counter()))
        return index

    def close(self, index: int) -> None:
        """End the innermost span, which must be ``index``."""
        end = perf_counter()
        opened, name, metric, start = self._stack.pop()
        if opened != index:
            raise RuntimeError(f"span {index} closed out of order")
        parent = self._stack[-1][0] if self._stack else -1
        self.spans[index] = Span(name, metric, start, end, parent, self.rep)

    def enclosing_metric(self) -> Optional[str]:
        """The metric of the innermost open span, if any."""
        return self._stack[-1][2] if self._stack else None

    def count(self, metric: str, amount: float = 1) -> None:
        """Add ``amount`` to ``metric`` for the current repetition."""
        self.counts[self.rep][metric] += amount

    @contextmanager
    def repetition(self, rep: int) -> Iterator[None]:
        """The root span of one repetition."""
        self.rep = rep
        index = self.open("repetition", UNATTRIBUTED)
        try:
            yield
        finally:
            self.close(index)

    def finished(self) -> List[Span]:
        """Every closed span, in opening order."""
        if self._stack:
            raise RuntimeError("spans still open")
        return [span for span in self.spans if span is not None]

    def write(self, path: Path, header: Dict[str, Any]) -> None:
        """Write ``header`` and then one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.finished():
                handle.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, Dict[str, float]]:
    """Per repetition, the summed self time of each metric's spans.

    ``spans[i].parent`` indexes into ``spans``.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, children in zip(spans, covered):
        out[span.rep][span.metric] += (span.end - span.start) - children
    return out


def root_walls(spans: Sequence[Span]) -> Dict[int, float]:
    """Per repetition, the duration of its root span."""
    return {
        span.rep: span.end - span.start for span in spans if span.parent < 0
    }


# ---------------------------------------------------------------------------
# Patching.
# ---------------------------------------------------------------------------


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Patcher:
    """Replaces attributes and remembers the originals for :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def function(self, original: Callable, replacement: Callable) -> None:
        """Rebind every ``repro`` module attribute that is ``original``."""
        found = False
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, replacement)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is bound in no repro module")

    def method(
        self, cls: type, name: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``cls.name`` (defined on ``cls`` itself) by ``make(it)``."""
        raw = vars(cls)[name]
        if isinstance(raw, staticmethod):
            self._set(cls, name, staticmethod(make(raw.__func__)))
        else:
            self._set(cls, name, make(raw))

    def restore(self) -> None:
        """Put back every replaced attribute, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _wrap(
    fn: Callable,
    tracer: Tracer,
    metric: Any,
    after: Optional[Callable[[Tracer, tuple, Any], None]] = None,
) -> Callable:
    """``fn`` recording one span per call.

    ``metric`` is the span's metric name, or a function of the call's
    ``(args, kwargs)`` returning it.  ``after(tracer, args, result)`` runs
    once the span is closed, to record counts.
    """
    name = fn.__qualname__
    pick = metric if callable(metric) else None

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        index = tracer.open(name, pick(args, kwargs) if pick else metric)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def _counting(fn: Callable, tracer: Tracer, metric: str) -> Callable:
    """``fn`` counting its calls without a span (hot inner callbacks)."""

    @functools.wraps(fn)
    def counted(*args: Any, **kwargs: Any) -> Any:
        tracer.counts[tracer.rep][metric] += 1
        return fn(*args, **kwargs)

    return counted


def _subclasses(base: type) -> Iterable[type]:
    seen = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        pending.extend(cls.__subclasses__())


def _own_functions(classes: Iterable[type], names: Sequence[str]):
    """``(cls, name)`` for each listed method a class defines itself."""
    for cls in classes:
        for name in names:
            raw = vars(cls).get(name)
            if raw is None or isinstance(raw, property):
                continue
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
            if getattr(func, "__isabstractmethod__", False):
                continue
            yield cls, name


def _draw_metric(args: tuple, kwargs: Dict[str, Any]) -> str:
    """Beep (and other) draws vs. fault draws, by the call's draw kind."""
    from repro.beeping.rng import DRAW_LOSS, DRAW_SPURIOUS

    if "draw_kind" in kwargs:
        kind = kwargs["draw_kind"]
    else:
        kind = args[2] if len(args) > 2 else None
    try:
        fault = int(kind) in (DRAW_LOSS, DRAW_SPURIOUS)
    except TypeError:
        fault = False
    return "beeping.rng.fault_draw_s" if fault else "beeping.rng.draw_s"


def _count_uniforms(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("beeping.rng.uniforms", int(np.size(result)))


def _count_edges(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("graphs.edges", args[0].num_edges)


def _count_verify(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("graphs.verify_calls")


def _count_runs(tracer: Tracer, args: tuple, result: Any) -> None:
    # An engine run nested in another (e.g. an application kernel's MIS
    # layers) is already counted by the outer one.
    if tracer.enclosing_metric() == "engine.loop_s":
        return
    for run in result if isinstance(result, list) else [result]:
        rounds = np.asarray(run.rounds)
        tracer.count("engine.trials", int(rounds.size))
        tracer.count("engine.rounds", int(rounds.sum()))


def _count_sweep(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("sweep.shards_executed", result.report.shards_executed)
    tracer.count("sweep.shards_cached", result.report.shards_cached)


def _count_get(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("sweep.store.gets")
    if result is not None:
        tracer.count("sweep.store.hits")


def _count_put(tracer: Tracer, args: tuple, result: Any) -> None:
    store, shard = args[0], args[1]
    written = store.rows_path(shard).stat().st_size
    written += store.manifest_path(shard).stat().st_size
    tracer.count("sweep.store.bytes_written", written)


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer's public calls; returns the patcher to restore."""
    from repro.algorithms.base import MISAlgorithm
    import repro.algorithms.registry  # noqa: F401  (imports every algorithm)
    from repro.beeping import rng
    from repro.beeping.faults import ChurnSchedule, CrashSchedule
    from repro.bio.notch_delta import NotchDeltaModel
    from repro.engine import applications, bitboard, fleet, messages, simulator
    from repro.engine import sparse
    from repro.engine.rules import ProbabilityRule
    from repro.experiments import html_report, paper, runner
    from repro.graphs import cliques, random_graphs, structured
    from repro.graphs.graph import Graph
    from repro.graphs.validation import verify_mis
    from repro.sweep import orchestrator
    from repro.sweep.rundb import RunDB
    from repro.sweep.store import ResultStore

    patcher = Patcher()

    def function(fn: Callable, metric: Any, after=None) -> None:
        patcher.function(fn, _wrap(fn, tracer, metric, after))

    def method(cls: type, name: str, metric: Any, after=None) -> None:
        patcher.method(cls, name, lambda fn: _wrap(fn, tracer, metric, after))

    try:
        # graphs: every public generator returning a Graph, and Graph itself.
        for module in (random_graphs, structured, cliques):
            for name, fn in vars(module).items():
                if (
                    callable(fn)
                    and not name.startswith("_")
                    and getattr(fn, "__module__", None) == module.__name__
                    and fn.__annotations__.get("return") in ("Graph", Graph)
                ):
                    function(fn, "graphs.build_s")
        method(Graph, "__init__", "graphs.build_s", _count_edges)
        # graphs.validation
        function(verify_mis, "graphs.verify_s", _count_verify)
        # engine operand build and round loops: every public simulator.
        simulators = [
            cls
            for module in (fleet, simulator, sparse, messages, applications)
            for name, cls in vars(module).items()
            if isinstance(cls, type)
            and name.endswith("Simulator")
            and cls.__module__ == module.__name__
        ]
        for cls, name in _own_functions(simulators, ["__init__"]):
            method(cls, name, "engine.operand_s")
        for cls, name in _own_functions(
            simulators, ["run", "run_fleet", "run_armada"]
        ):
            method(cls, name, "engine.loop_s", _count_runs)
        # The per-node reference engine's loop lives in each algorithm.
        for cls, name in _own_functions(_subclasses(MISAlgorithm), ["run"]):
            method(cls, name, "engine.loop_s", _count_runs)
        method(bitboard.BitboardKernel, "__init__", "engine.operand_s")
        function(sparse.build_csr, "engine.operand_s")
        function(bitboard.pack_adjacency, "engine.operand_s")
        # beeping.rng: split by draw kind.
        for fn in (rng.counter_uniforms, rng.counter_values):
            function(fn, _draw_metric, _count_uniforms)
        function(rng.counter_uniforms_at, "beeping.rng.draw_s", _count_uniforms)
        function(rng.counter_state, _draw_metric)
        function(rng.uniform_block, _draw_metric)
        # engine reduction.
        function(sparse.csr_row_counts, "engine.reduce_s")
        for name in ("neighbor_or", "neighbor_counts", "entry_or_test"):
            method(bitboard.BitboardKernel, name, "engine.reduce_s")
        # engine rule update.
        for cls, name in _own_functions(_subclasses(ProbabilityRule), ["update"]):
            method(cls, name, "engine.rule_s")
        # engine faults and churn.
        function(simulator.faulty_observation, "engine.faults_s")
        method(ChurnSchedule, "round_masks", "engine.faults_s")
        method(ChurnSchedule, "universe_graph", "engine.faults_s")
        method(CrashSchedule, "round_masks", "engine.faults_s")
        # experiments.runner
        function(runner.run_fleet_trials, "experiments.runner.emit_s")
        function(runner.run_trials, "experiments.runner.emit_s")
        # sweep.orchestrator
        function(orchestrator.execute_shard, "sweep.shard_s")
        function(orchestrator.run_sweep, "sweep.shard_s", _count_sweep)
        # sweep.store and sweep.rundb
        method(ResultStore, "get", "sweep.store.get_s", _count_get)
        method(ResultStore, "put", "sweep.store.put_s", _count_put)
        method(RunDB, "append", "sweep.rundb.append_s")
        # bio
        method(NotchDeltaModel, "run", "bio.integrate_s")
        patcher.method(
            NotchDeltaModel,
            "derivative",
            lambda fn: _counting(fn, tracer, "bio.rhs_calls"),
        )
        # experiments (paper pipeline and HTML report)
        function(paper.compare_golden, "experiments.golden_s")
        function(html_report.render_paper_report, "experiments.render_s")
    except BaseException:
        patcher.restore()
        raise
    return patcher


@contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Run the body with every layer wrapped; always restores."""
    patcher = install(tracer)
    try:
        yield
    finally:
        patcher.restore()
