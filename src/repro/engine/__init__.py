"""Vectorised numpy engines for large-scale beeping simulations.

The reference runtime in :mod:`repro.beeping` is per-node and fully
instrumented — ideal for correctness, traces and the proof instrumentation,
but too slow for the paper's Figure 3 sweep (graphs up to n = 1000 with 100
trials per size).  This package provides six fast engines, all
implementing the same two-exchange round semantics:

**Dense** (:class:`VectorizedSimulator`)
    One trial at a time; the one-bit OR observation is an n x n
    matrix-vector product.  Wins on small-to-medium graphs of any density
    and is the most direct translation of the reference semantics — the
    oracle the other engines are checked against.

**Sparse** (:class:`SparseSimulator`)
    The dense engine's round loop with the neighbour reductions taken over
    a CSR adjacency (``bitwise_or.reduceat`` for the OR, ``add.reduceat``
    for the counts; the only methods it overrides); a round costs
    O(n + m).  Wins on large sparse topologies (grids,
    geometric and sensor networks) where the dense engine's quadratic
    memory is waste — it comfortably reaches n = 50,000 at mean degree 8.

**Fleet** (:class:`FleetSimulator`)
    All ``trials`` independent runs of one graph in lockstep as
    ``(trials, n)`` tensors: one batched float32 GEMM (dense backend),
    one trial-bit-sliced CSR ``bitwise_or.reduceat`` pass (sparse
    backend, :func:`~repro.engine.sparse.csr_row_or`), or one packed
    ``uint64`` AND/OR pass (bitboard backend, :class:`BitboardKernel`) per round
    serves the whole batch, and finished trials drop out through an
    alive-mask (the bitboard backend compacts them away entirely).  Wins
    whenever many trials of one graph are needed — i.e. every figure
    benchmark; ``benchmarks/bench_fleet_speedup.py`` records the margin
    over the per-trial loop and ``benchmarks/bench_bitboard_fleet.py``
    the bitboard margin over the dense backend.

**Armada** (:class:`ArmadaSimulator`)
    The fleet lifted one dimension: every same-``n`` graph group of one
    experiment cell in a single ``(trials, graphs * n)`` block-diagonal
    batch — one batched GEMM or block-diagonal CSR ``reduceat`` pass per
    round for the *whole cell*, then an entry-level frontier tail
    (``run_counter_frontier``, which the fleet's bitboard backend shares).
    Counter rng mode only; ``benchmarks/bench_counter_rng.py`` records the
    margin over the per-graph stream path.

**Message fleet** (:class:`MessageFleetSimulator` /
:class:`MessageArmadaSimulator`)
    The same lockstep fabric for the *message-passing* baselines (Luby's
    two variants, Métivier et al., local-minimum-id): a
    :class:`MessageRule` expresses each round as a masked
    neighbour-minimum priority contest, run on the dense full-adjacency
    sweep or the CSR ``minimum.reduceat`` pass, counter rng mode only.
    ``benchmarks/bench_message_fleet.py`` records the margin over the
    per-node loop; see :mod:`repro.engine.messages` and
    ``docs/algorithms.md``.

**Application fleet** (:class:`ApplicationFleetSimulator` /
:class:`ApplicationArmadaSimulator`)
    The MIS *applications* — iterated-peeling colouring, maximal matching
    on the array-built line graph, independent dominating sets and
    (α, α−1)-ruling sets on vectorised graph powers — as
    :class:`ApplicationRule` reductions on the same lockstep fabric,
    counter rng mode only.  They are conformance-locked bit for bit
    against the per-node reductions in :mod:`repro.applications` through
    the :class:`EngineMIS` adapter;
    ``benchmarks/bench_application_fleet.py`` records the margin over the
    per-node peeling loop; see :mod:`repro.engine.applications`.

Seed-derivation contract
------------------------
Every batch derives trial seeds from one master seed with the splitmix64
chain in :mod:`repro.beeping.rng`: trial ``t`` on graph ``g`` runs with
``derive_seed(master_seed, g, t)``, and
``derive_seed_block(master_seed, g, count=trials)`` produces the same
seeds as one vectorised block.  How a seed expands into per-round
uniforms is the ``rng_mode``: in ``"stream"`` (the default) each trial
draws one ``Generator.random(n)`` row per round from ``numpy``'s default
PCG64; in ``"counter"`` every uniform is a stateless
:func:`repro.beeping.rng.counter_uniforms` value, computed blockwise with
no generator objects at all.  Because all engines consume randomness
identically within a mode, **engine choice never changes results**:
dense, sparse, fleet and armada agree bit for bit on round counts, MIS
membership and beep counts under a shared seed and mode
(``tests/engine/test_conformance.py`` enforces this), and the per-node
reference engine agrees distributionally.  :func:`run_batch` picks the
fleet engine automatically for trial-parallel rules and falls back to the
per-trial loop (:func:`run_batch_loop`) for stateful ones.
"""

from repro.engine.rules import (
    FeedbackRule,
    GlobalScheduleRule,
    ProbabilityRule,
    SweepRule,
)
from repro.engine.simulator import EngineRun, VectorizedSimulator
from repro.engine.sparse import SparseSimulator
from repro.engine.bitboard import BitboardKernel
from repro.engine.fleet import ArmadaSimulator, FleetRun, FleetSimulator
from repro.engine.messages import (
    LocalMinimumRule,
    LubyPermutationRule,
    LubyProbabilityRule,
    MessageArmadaSimulator,
    MessageFleetRun,
    MessageFleetSimulator,
    MessageRule,
    MetivierRule,
)
from repro.engine.applications import (
    APPLICATION_RULES,
    ApplicationArmadaSimulator,
    ApplicationFleetRun,
    ApplicationFleetSimulator,
    ApplicationRule,
    ColoringRule,
    DominatingSetRule,
    EngineMIS,
    MatchingRule,
    RulingSetRule,
)
from repro.engine.batch import (
    BatchResult,
    run_batch,
    run_batch_loop,
)

__all__ = [
    "APPLICATION_RULES",
    "ApplicationArmadaSimulator",
    "ApplicationFleetRun",
    "ApplicationFleetSimulator",
    "ApplicationRule",
    "ArmadaSimulator",
    "BatchResult",
    "BitboardKernel",
    "ColoringRule",
    "DominatingSetRule",
    "EngineMIS",
    "EngineRun",
    "FeedbackRule",
    "FleetRun",
    "FleetSimulator",
    "GlobalScheduleRule",
    "LocalMinimumRule",
    "MatchingRule",
    "LubyPermutationRule",
    "LubyProbabilityRule",
    "MessageArmadaSimulator",
    "MessageFleetRun",
    "MessageFleetSimulator",
    "MessageRule",
    "MetivierRule",
    "ProbabilityRule",
    "RulingSetRule",
    "SparseSimulator",
    "SweepRule",
    "VectorizedSimulator",
    "run_batch",
    "run_batch_loop",
]
