"""The vectorised round loop.

Same two-exchange semantics as :class:`repro.beeping.BeepingSimulation`,
expressed as boolean linear algebra:

- ``beep = active & (U < p)`` with ``U`` a fresh uniform vector;
- ``heard = A @ beep > 0`` (one sparse-ish matrix product per round);
- ``joined = beep & ~heard``; neighbours of joiners retire.

Fault injection (:mod:`repro.beeping.faults`) is vectorised too: beep loss
and spurious beeps become per-node Bernoulli draws perturbing the *heard*
vector fed back to the probability rule (the join/retire exchange stays
reliable, computed from the true beep vector), and a
:class:`~repro.beeping.faults.CrashSchedule` becomes per-round updates of
the active mask.

Randomness comes in two modes (``rng_mode``, see
:data:`repro.beeping.rng.RNG_MODES`), and the cross-engine
bit-reproducibility contract holds *within each mode*:

- ``"stream"`` (the default): one sequential ``numpy`` generator per
  seed.  The per-round draw order — beep uniforms, then loss uniforms,
  then spurious uniforms, each a full ``rng.random(n)`` and only when the
  corresponding probability is non-zero — is the shared contract that
  keeps this engine, the sparse engine and the fleet engine bit-for-bit
  identical under one seed (``docs/robustness.md``).
- ``"counter"``: every uniform is a pure function of ``(seed, round,
  draw kind, node)`` via :func:`repro.beeping.rng.counter_uniforms` — no
  stream state at all, so draw *order* is irrelevant by construction and
  the same four-way bit-equality holds trivially.

The per-node reference engine consumes randomness differently and agrees
in law only; use it when a robustness experiment needs traces or per-node
instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import numpy as np

from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.beeping.rng import (
    DRAW_BEEP,
    DRAW_LOSS,
    DRAW_SPURIOUS,
    RNG_MODES,
    counter_uniforms,
)
from repro.engine.rules import ProbabilityRule
from repro.graphs.graph import Graph
from repro.graphs.validation import verify_mis
from repro.telemetry import probes

DEFAULT_MAX_ROUNDS = 100_000


def check_rng_mode(rng_mode: str) -> None:
    """Raise unless ``rng_mode`` names a supported discipline."""
    if rng_mode not in RNG_MODES:
        raise ValueError(
            f"rng_mode must be one of {RNG_MODES}, got {rng_mode!r}"
        )


def faulty_observation(
    counts: np.ndarray,
    loss: float,
    spurious: float,
    loss_uniforms: Optional[np.ndarray],
    spurious_uniforms: Optional[np.ndarray],
) -> np.ndarray:
    """The noisy ``heard`` booleans from beeping-neighbour counts.

    Elementwise over any shape: the per-trial engines pass length-n
    vectors, the fleet engine ``(trials, n)`` matrices, and the bitboard
    engine (:mod:`repro.engine.bitboard`) its popcount-derived counts on
    the compacted live rows.  A listener with ``k`` beeping neighbours
    hears iff its loss uniform falls below ``1 - loss**k`` (at least one
    of ``k`` independent deliveries survives), then spurious uniforms
    add phantom beeps.  Every engine funnels through this one function
    so the collapsed-probability arithmetic — and therefore the
    bit-reproducibility contract — cannot drift between them.
    """
    counts = counts.astype(np.int64, copy=False)
    heard = counts > 0
    if loss > 0.0:
        heard = loss_uniforms < 1.0 - np.power(loss, counts)
    if spurious > 0.0:
        heard = heard | (spurious_uniforms < spurious)
    return heard


@dataclass
class EngineRun:
    """The outcome of one vectorised simulation.

    ``crashed`` is empty unless the run's fault model scheduled crashes;
    crashed vertices are never in ``mis`` and are exempt from maximality.

    Under churn, ``num_vertices`` counts the *universe* graph (base plus
    joiners), ``absent`` holds the universe vertices outside the final
    alive subgraph (departed, asleep at the end, or never joined),
    ``repair_rounds`` has one entry per distinct event round — executed
    rounds from that churn batch until the MIS invariant over alive nodes
    was restored (``-1`` if the round cap hit first) — and ``recovered``
    is ``False`` exactly when the cap interrupted an unfinished repair.
    """

    rule_name: str
    num_vertices: int
    rounds: int
    mis: Set[int]
    beeps_by_node: np.ndarray
    crashed: Set[int] = field(default_factory=set)
    absent: Set[int] = field(default_factory=set)
    repair_rounds: tuple = ()
    recovered: bool = True

    @property
    def mean_beeps_per_node(self) -> float:
        """Mean beeps per node (the Figure 5 quantity)."""
        if self.num_vertices == 0:
            return 0.0
        return float(self.beeps_by_node.sum()) / self.num_vertices


class ChurnState:
    """Shared churn bookkeeping for the vectorised engines.

    Holds the per-round event masks plus the ``present``/``asleep``
    population masks, applies each round's batch in the canonical order
    (leaves → sleeps → wakes → joins → one deterministic resolution
    pass), and tracks per-event repair times.  State arrays are shaped
    like the engine's ``active`` mask — ``(n,)`` for the per-trial
    engines, ``(trials, n)`` for the fleet — with the per-round event
    masks broadcasting over the trailing vertex axis.

    The resolution pass consumes **no randomness**: entrants listen
    first (``covered`` is the neighbour-OR of the updated membership),
    covered entrants retire on the spot, and every eligible uncovered
    survivor re-enters the competition with fresh rule state.  That
    keeps the one-draw-order contract intact — churn runs stay
    bit-identical across dense, sparse, fleet, armada and bitboard in
    both rng modes.
    """

    def __init__(self, schedule, num_vertices: int, shape=None) -> None:
        self.schedule = schedule
        self.num_vertices = num_vertices
        self.masks = schedule.round_masks(num_vertices)
        self.event_rounds = schedule.event_rounds()
        self.last_event_round = schedule.last_event_round
        full_shape = (num_vertices,) if shape is None else shape
        self.present = np.ones(full_shape, dtype=bool)
        for event in schedule.join_events():
            self.present[..., event.vertex] = False
        self.asleep = np.zeros(full_shape, dtype=bool)
        lead = full_shape[:-1]
        self.repair = np.full(lead + (len(self.event_rounds),), -1,
                              dtype=np.int64)

    def initial_active(self) -> np.ndarray:
        """The round-0 active mask (present, awake base vertices)."""
        return self.present.copy()

    def apply_events(
        self,
        round_index: int,
        active: np.ndarray,
        in_mis: np.ndarray,
        crashed: np.ndarray,
        neighbor_or,
        probabilities: np.ndarray,
        initial_row: np.ndarray,
    ) -> bool:
        """Apply one round's churn batch in place; True if it existed.

        ``neighbor_or`` maps a membership mask to its neighbour-OR (the
        engine's own reduction, so each backend keeps its kernel);
        ``initial_row`` is the rule's fresh length-n probability vector,
        copied onto revived entries of ``probabilities``.
        """
        events = self.masks.get(round_index)
        if events is None:
            return False
        leave, sleep = events["leave"], events["sleep"]
        wake, join = events["wake"], events["join"]
        gone = leave | sleep
        self.present &= ~leave
        self.asleep |= sleep
        self.asleep &= ~leave
        self.asleep &= ~wake
        self.present |= join
        in_mis &= ~gone
        active &= ~gone
        covered = neighbor_or(in_mis)
        revive = (
            self.present
            & ~self.asleep
            & ~active
            & ~in_mis
            & ~crashed
            & ~covered
        )
        active |= revive
        np.copyto(probabilities, initial_row, where=revive)
        return True

    def record_quiescence(
        self, executed_rounds: int, quiet, applied_rounds: int = -1
    ) -> None:
        """Resolve pending repairs at a checkpoint with no active nodes.

        ``executed_rounds`` counts rounds fully executed so far (equal to
        the round index right after a batch application, one more at the
        end of a round); ``quiet`` is a boolean (per-trial engines) or a
        per-trial boolean vector (fleet) marking rows whose active set is
        empty.  A pending event's repair time is the executed-rounds
        count at its first quiet checkpoint minus its event round.

        ``applied_rounds`` is the highest round index whose churn batch
        has already been applied at this checkpoint (defaults to
        ``executed_rounds``).  The end-of-round checkpoint after round
        ``r`` has ``executed_rounds = r + 1`` but ``applied_rounds = r``:
        an event scheduled for round ``r + 1`` is still pending — its
        batch has not landed — and must not be resolved with repair 0.
        """
        if applied_rounds < 0:
            applied_rounds = executed_rounds
        for b, event_round in enumerate(self.event_rounds):
            if event_round > applied_rounds:
                break
            if self.repair.ndim == 1:
                if quiet and self.repair[b] == -1:
                    self.repair[b] = executed_rounds - event_round
            else:
                pending = (self.repair[:, b] == -1) & quiet
                self.repair[pending, b] = executed_rounds - event_round

    def absent_mask(self) -> np.ndarray:
        """Universe vertices outside the final alive subgraph."""
        return ~self.present | self.asleep


def absent_set(state: "ChurnState") -> Set[int]:
    """The per-trial engines' ``EngineRun.absent`` set."""
    return {int(v) for v in np.flatnonzero(state.absent_mask())}


class VectorizedSimulator:
    """Runs one :class:`ProbabilityRule` on one graph, many times if needed.

    The adjacency matrix is built once per simulator, so reuse the instance
    across trials on the same graph.  :meth:`run` is the one per-trial
    round loop: subclasses (:class:`~repro.engine.sparse.SparseSimulator`)
    swap only the neighbour reduction, :meth:`_neighbor_counts`.
    """

    #: Probe prefix (``engine.<kind>.*``) and error-message name.
    _kind = "dense"

    def __init__(self, graph: Graph, max_rounds: int = DEFAULT_MAX_ROUNDS) -> None:
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self._graph = graph
        self._max_rounds = max_rounds
        # uint8 adjacency: matmul with uint8/bool vectors gives neighbour
        # beep counts without object overhead; n=1000 -> 1 MB.
        self._adjacency = graph.adjacency_matrix().astype(np.uint8)

    @property
    def graph(self) -> Graph:
        """The simulated graph."""
        return self._graph

    def _neighbor_counts(self, flags: np.ndarray) -> np.ndarray:
        """For each vertex, how many neighbours have their flag set."""
        # int32 vectors: a uint8 product would overflow beyond 255
        # beeping neighbours.
        return self._adjacency @ flags.astype(np.int32)

    def _neighbor_or(self, flags: np.ndarray) -> np.ndarray:
        """For each vertex, whether any neighbour's flag is set."""
        return self._neighbor_counts(flags) > 0

    def run(
        self,
        rule: ProbabilityRule,
        seed: int,
        validate: bool = False,
        faults: FaultModel = NO_FAULTS,
        rng_mode: str = "stream",
    ) -> EngineRun:
        """Execute one full simulation with the given rule and seed.

        A fault-free ``faults`` model draws no extra randomness, so the
        run is bit-identical to one without the argument.  ``rng_mode``
        selects the uniform-stream discipline (see module docstring); the
        two modes draw different uniforms, so they give different — both
        valid and reproducible — trajectories.

        A non-empty churn schedule expands the run to the universe graph
        (base plus joiners) and keeps the loop alive through quiet gaps
        until the last event round, so late entrants can re-open the
        competition; hitting the round cap mid-repair then degrades
        gracefully (``recovered=False``) instead of raising.
        """
        check_rng_mode(rng_mode)
        churn_schedule = faults.churn_schedule
        has_churn = not churn_schedule.is_empty()
        engine = self
        if has_churn:
            # Churn runs are rare enough that rebuilding the operand on
            # the universe graph per run beats complicating __init__.
            engine = type(self)(
                churn_schedule.universe_graph(self._graph),
                max_rounds=self._max_rounds,
            )
        graph = engine._graph
        neighbor_counts = engine._neighbor_counts
        neighbor_or = engine._neighbor_or
        n = graph.num_vertices
        counter = rng_mode == "counter"
        rng = None if counter else np.random.default_rng(seed)
        loss = faults.beep_loss_probability
        spurious = faults.spurious_beep_probability
        crash_masks: Dict[int, np.ndarray] = faults.crash_schedule.round_masks(n)
        crashed = np.zeros(n, dtype=bool)
        in_mis = np.zeros(n, dtype=bool)
        probabilities = rule.initial(n)
        beeps = np.zeros(n, dtype=np.int64)
        churn = ChurnState(churn_schedule, n) if has_churn else None
        last_event = churn.last_event_round if has_churn else -1
        active = churn.initial_active() if has_churn else np.ones(n, dtype=bool)
        initial_row = rule.initial(n) if has_churn else None
        recovered = True
        rounds = 0
        while active.any() or rounds <= last_event:
            if rounds >= self._max_rounds:
                if has_churn:
                    # Graceful degradation: report the unfinished repair
                    # instead of raising — the run is still a valid
                    # (possibly non-maximal) independent set.
                    recovered = False
                    break
                raise RuntimeError(
                    f"{self._kind} simulation exceeded "
                    f"{self._max_rounds} rounds"
                )
            if has_churn and churn.apply_events(
                rounds, active, in_mis, crashed, neighbor_or,
                probabilities, initial_row,
            ):
                if not active.any():
                    churn.record_quiescence(rounds, True)
            crash = crash_masks.get(rounds)
            if crash is not None:
                # Fail-stop at the start of the round: only still-active
                # vertices crash (members and retirees already left).
                newly_crashed = active & crash
                crashed |= newly_crashed
                active &= ~newly_crashed
            if counter:
                uniforms = counter_uniforms(seed, rounds, DRAW_BEEP, n)
            else:
                uniforms = rng.random(n)
            beep = active & (uniforms < probabilities)
            # Count of beeping neighbours, then the one-bit OR observation.
            neighbor_beeps = neighbor_counts(beep)
            heard_true = neighbor_beeps > 0
            if loss > 0.0 or spurious > 0.0:
                if counter:
                    loss_uniforms = (
                        counter_uniforms(seed, rounds, DRAW_LOSS, n)
                        if loss > 0.0
                        else None
                    )
                    spurious_uniforms = (
                        counter_uniforms(seed, rounds, DRAW_SPURIOUS, n)
                        if spurious > 0.0
                        else None
                    )
                else:
                    loss_uniforms = rng.random(n) if loss > 0.0 else None
                    spurious_uniforms = (
                        rng.random(n) if spurious > 0.0 else None
                    )
                heard = faulty_observation(
                    neighbor_beeps, loss, spurious,
                    loss_uniforms, spurious_uniforms,
                )
            else:
                heard = heard_true
            probabilities = rule.update(probabilities, heard, active, rounds)
            # Second exchange stays reliable: joins come from the true OR.
            joined = beep & ~heard_true
            in_mis |= joined
            # Retire active neighbours of joiners.
            neighbor_joined = neighbor_or(joined)
            beeps += beep
            active &= ~(joined | neighbor_joined)
            rounds += 1
            if has_churn and not active.any():
                churn.record_quiescence(rounds, True, applied_rounds=rounds - 1)
        mis = {int(v) for v in np.flatnonzero(in_mis)}
        crashed_set = {int(v) for v in np.flatnonzero(crashed)}
        absent = absent_set(churn) if has_churn else set()
        repair_rounds = (
            tuple(int(r) for r in churn.repair) if has_churn else ()
        )
        if probes.enabled():
            probes.count(f"engine.{self._kind}.runs")
            probes.count(f"engine.{self._kind}.rounds", rounds)
            if has_churn:
                probes.count(
                    "engine.churn.events", len(churn_schedule.events)
                )
                resolved = [r for r in repair_rounds if r >= 0]
                if resolved:
                    probes.gauge(
                        "engine.repair.rounds",
                        sum(resolved) / len(resolved),
                    )
        if validate and recovered:
            verify_mis(graph, mis, crashed=crashed_set, absent=absent)
        return EngineRun(
            rule_name=rule.name,
            num_vertices=n,
            rounds=rounds,
            mis=mis,
            beeps_by_node=beeps,
            crashed=crashed_set,
            absent=absent,
            repair_rounds=repair_rounds,
            recovered=recovered,
        )
