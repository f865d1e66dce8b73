"""Bit-packed uint64 bitboard backend for the fleet engine.

The dense fleet backend spends a float32 cell per ``(node, neighbour)``
flag: the n=1000 adjacency alone is ~4 MB and every round's neighbour-OR
is a full GEMM against it.  This module packs the same booleans into
``uint64`` *lanes* — 64 flags per word, ``ceil(n / 64)`` words per row —
so a flag tensor is 64x smaller and the OR observation becomes bitwise
AND/OR over packed adjacency rows instead of floating-point multiply-add:

- ``neighbor_or``: for sparse flag rounds, gather the packed adjacency
  rows of the set bits and fold each trial's segment with one
  ``bitwise_or.reduceat`` pass; for dense rounds, one chunked broadcast
  AND + lane-OR whose cost is ``trials * n * lanes`` words regardless of
  how many bits are set.
- ``neighbor_counts`` (the fault path): chunked
  ``popcount(flags & adjacency)`` summed over lanes — exact integer
  counts, bit-equal to the float32 GEMM and CSR counts.

:func:`run_bitboard_fleet` is the engine built on those kernels.  It is
*semantically* the :meth:`FleetSimulator.run_fleet` loop — same draw
order per rng mode, same fault discipline, same join/retire schedule, so
results stay bit-identical to every other backend — but it keeps all
per-trial state compacted to the rows still alive (finished trials leave
the tensors entirely instead of riding along masked), and in counter
mode it hands the tail of a run to the armada's entry-level frontier,
:func:`repro.engine.fleet.run_counter_frontier`: uniforms are evaluated
only at the surviving ``(trial, vertex)`` entries and ``heard`` is a bit
test (:meth:`BitboardKernel.entry_or_test`) against the OR of the
beeping entries' packed adjacency rows.  Stream mode cannot shrink the draws (a
sequential generator must keep emitting full rows to stay aligned), so
it runs the compacted full-width loop throughout.

``tests/engine/test_bitboard.py`` pins the packing primitives
(round-trip, tail-lane masking, popcount-vs-GEMM equality) and
``tests/engine/test_conformance.py`` holds the backend to the
bit-reproducibility contract across both rng modes and all fault models.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.beeping.rng import (
    DRAW_BEEP,
    DRAW_LOSS,
    DRAW_SPURIOUS,
    counter_uniforms,
    seed_array,
    stream_generators,
)
from repro.engine.rules import ProbabilityRule
from repro.engine.simulator import (
    DEFAULT_MAX_ROUNDS,
    ChurnState,
    faulty_observation,
)
from repro.graphs.graph import Graph
from repro.telemetry import probes

#: Flags per packed word.
LANE_BITS = 64

#: Vertices per broadcast chunk of the dense neighbour kernels; 256
#: keeps the ``(trials, chunk, lanes)`` intermediate cache-resident.
_CHUNK_VERTICES = 256

#: ``neighbor_or`` switches from the gather/reduceat path to the
#: broadcast path when more than one flag in ``_DENSE_FRACTION`` is set:
#: gather cost grows with the set-bit count, broadcast cost is flat.
_DENSE_FRACTION = 4


def lane_count(n: int) -> int:
    """Packed words per row of ``n`` flags (``ceil(n / 64)``)."""
    return (n + LANE_BITS - 1) // LANE_BITS


def pack_bits(flags: np.ndarray) -> np.ndarray:
    """Boolean rows packed little-endian into ``uint64`` lanes.

    Bit ``v % 64`` of lane ``v // 64`` is flag ``v``; bits at and above
    ``n`` in the trailing lane are zero (``packbits`` pads with zeros, so
    the tail mask holds by construction).
    """
    n = flags.shape[-1]
    lanes = lane_count(n)
    packed = np.packbits(
        np.ascontiguousarray(flags), axis=-1, bitorder="little"
    )
    if packed.shape[-1] != lanes * 8:
        padded = np.zeros(flags.shape[:-1] + (lanes * 8,), dtype=np.uint8)
        padded[..., : packed.shape[-1]] = packed
        packed = padded
    return np.ascontiguousarray(packed).view("<u8")


def unpack_bits(packed: np.ndarray, n: int) -> np.ndarray:
    """The boolean rows a :func:`pack_bits` result encodes."""
    flat = np.unpackbits(
        packed.view(np.uint8), axis=-1, bitorder="little", count=n
    )
    return flat.astype(bool)


if hasattr(np, "bitwise_count"):

    def popcount(lanes: np.ndarray) -> np.ndarray:
        """Set bits per ``uint64`` word (``uint8``, vectorised)."""
        return np.bitwise_count(lanes)

else:  # pragma: no cover - exercised only on numpy < 2.0
    _POPCOUNT_BYTE = np.array(
        [bin(value).count("1") for value in range(256)], dtype=np.uint8
    )

    def popcount(lanes: np.ndarray) -> np.ndarray:
        """Set bits per ``uint64`` word (``uint8``, byte-table fallback)."""
        per_byte = _POPCOUNT_BYTE[lanes.view(np.uint8)]
        return per_byte.reshape(lanes.shape + (8,)).sum(
            axis=-1, dtype=np.uint8
        )


def pack_adjacency(graph: Graph) -> np.ndarray:
    """The graph's adjacency as ``(n, lanes)`` packed ``uint64`` rows.

    Built from the graph's CSR arrays (no dense boolean intermediate),
    so packing a large sparse graph costs its edges, not ``n**2``.  The
    neighbour lists are sorted and concatenated in vertex order, so the
    ``(vertex, lane)`` keys are globally nondecreasing and one
    ``bitwise_or.reduceat`` folds every lane's bits in a single pass.
    """
    n = graph.num_vertices
    lanes = lane_count(n)
    packed = np.zeros((n, lanes), dtype=np.uint64)
    columns = graph.indices
    if columns.size == 0:
        return packed
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    keys = rows * lanes + (columns >> 6)
    bits = np.uint64(1) << (columns & 63).astype(np.uint64)
    run_starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
    folded = np.bitwise_or.reduceat(bits, run_starts)
    packed.reshape(-1)[keys[run_starts]] = folded
    return packed


class BitboardKernel:
    """Packed-adjacency neighbour reductions for one graph.

    Holds the ``(n, lanes)`` packed adjacency (128 KB at n=1000, vs 4 MB
    for the float32 GEMM operand) and computes the two reductions every
    engine needs: the one-bit OR observation and the integer
    beeping-neighbour counts.  Both are bit-equal to the dense GEMM and
    sparse CSR results; the conformance suite enforces it.
    """

    def __init__(self, graph: Graph) -> None:
        self._n = graph.num_vertices
        self._lanes = lane_count(self._n)
        self._adjacency = pack_adjacency(graph)

    @property
    def num_vertices(self) -> int:
        """Vertex count of the packed graph."""
        return self._n

    @property
    def packed_adjacency(self) -> np.ndarray:
        """The ``(n, lanes)`` packed adjacency rows."""
        return self._adjacency

    def neighbor_or(self, flags: np.ndarray) -> np.ndarray:
        """Row-wise: whether any neighbour's flag is set, per vertex."""
        rows_count, n = flags.shape
        if n == 0 or rows_count == 0:
            return np.zeros((rows_count, n), dtype=bool)
        set_bits = np.count_nonzero(flags)
        if set_bits * _DENSE_FRACTION > rows_count * n:
            return self._broadcast_or(flags)
        out = np.zeros((rows_count, n), dtype=bool)
        rows, cols = np.nonzero(flags)
        if rows.size == 0:
            return out
        # np.nonzero is row-major, so equal-row runs are contiguous: one
        # reduceat over the gathered packed rows folds each trial's OR.
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(rows)) + 1)
        )
        folded = np.bitwise_or.reduceat(
            self._adjacency[cols], starts, axis=0
        )
        out[rows[starts]] = unpack_bits(folded, n)
        return out

    def _broadcast_or(self, flags: np.ndarray) -> np.ndarray:
        """Dense-round OR: chunked broadcast AND + lane fold."""
        rows_count, n = flags.shape
        packed = pack_bits(flags)
        out = np.empty((rows_count, n), dtype=bool)
        for lo in range(0, n, _CHUNK_VERTICES):
            hi = min(lo + _CHUNK_VERTICES, n)
            meet = packed[:, None, :] & self._adjacency[None, lo:hi, :]
            np.not_equal(
                np.bitwise_or.reduce(meet, axis=-1), 0, out=out[:, lo:hi]
            )
        return out

    def neighbor_counts(self, flags: np.ndarray) -> np.ndarray:
        """Row-wise beeping-neighbour counts (int64), per vertex."""
        rows_count, n = flags.shape
        counts = np.zeros((rows_count, n), dtype=np.int64)
        if n == 0 or rows_count == 0:
            return counts
        packed = pack_bits(flags)
        for lo in range(0, n, _CHUNK_VERTICES):
            hi = min(lo + _CHUNK_VERTICES, n)
            meet = packed[:, None, :] & self._adjacency[None, lo:hi, :]
            popcount(meet).sum(axis=-1, dtype=np.int64, out=counts[:, lo:hi])
        return counts

    def entry_or_test(
        self,
        source_rows: np.ndarray,
        source_cols: np.ndarray,
        query_rows: np.ndarray,
        query_cols: np.ndarray,
        num_rows: int,
    ) -> np.ndarray:
        """Whether each query entry neighbours a source entry of its row.

        The frontier-phase primitive: fold the source entries' packed
        adjacency rows per trial row (``source_rows`` must be sorted,
        which ``np.nonzero`` row-major order guarantees), then test the
        query entries' bits — no full-width tensor is materialised.
        """
        result = np.zeros(query_rows.size, dtype=bool)
        if source_rows.size == 0 or query_rows.size == 0:
            return result
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(source_rows)) + 1)
        )
        folded = np.bitwise_or.reduceat(
            self._adjacency[source_cols], starts, axis=0
        )
        row_position = np.full(num_rows, -1, dtype=np.int64)
        row_position[source_rows[starts]] = np.arange(starts.size)
        position = row_position[query_rows]
        hit = position >= 0
        cols = query_cols[hit]
        bits = (
            folded[position[hit], cols >> 6]
            >> (cols & 63).astype(np.uint64)
        ) & np.uint64(1)
        result[hit] = bits != 0
        return result


def run_bitboard_fleet(
    kernel: BitboardKernel,
    graph: Graph,
    rule: ProbabilityRule,
    seeds: Sequence[int],
    validate: bool = False,
    record_beeps: bool = False,
    faults: FaultModel = NO_FAULTS,
    rng_mode: str = "stream",
    max_rounds: int = DEFAULT_MAX_ROUNDS,
):
    """The fleet round-loop on bitboard kernels, results bit-identical.

    Argument semantics match :meth:`FleetSimulator.run_fleet` (which
    delegates here for the ``"bitboard"`` backend after the shared
    argument checks).  Two execution differences, neither observable:

    - **Live-row compaction.**  Finished trials leave every tensor at
      the end of the round instead of riding along behind the alive
      mask; boolean-mask compaction preserves ascending trial order, so
      stream generators are still drawn in the per-trial engines' exact
      sequence and counter blocks are the matching row subsets.
    - **Counter frontier.**  Fault-free counter runs without beep
      recording hand the tail to the armada's entry-level phase
      (:func:`~repro.engine.fleet.run_counter_frontier`) once the active
      fraction is small: per-round cost then scales with the surviving
      entries, and every uniform read is bit-equal to the corresponding
      block entry.
    """
    from repro.engine.fleet import (
        emit_run_probes,
        fleet_runs,
        run_counter_frontier,
    )

    churn_schedule = faults.churn_schedule
    has_churn = not churn_schedule.is_empty()
    if has_churn:
        # Repack on the universe graph (base + joiners) for this run;
        # churn runs are niche, so per-run packing beats complicating
        # the cached kernel.
        graph = churn_schedule.universe_graph(graph)
        kernel = BitboardKernel(graph)
    n = graph.num_vertices
    trials = len(seeds)
    loss = faults.beep_loss_probability
    spurious = faults.spurious_beep_probability
    noisy = loss > 0.0 or spurious > 0.0
    crash_masks = faults.crash_schedule.round_masks(n)
    crashed = (
        np.zeros((trials, n), dtype=bool)
        if crash_masks or has_churn
        else None
    )
    counter = rng_mode == "counter"
    if counter:
        live_seeds = seed_array(seeds).copy()
        generators = None
    else:
        generators = stream_generators(seeds)
    # Full-width result arrays, written back as trials retire.
    rounds = np.zeros(trials, dtype=np.int64)
    membership = np.zeros((trials, n), dtype=bool)
    beeps = np.zeros((trials, n), dtype=np.int64)
    # Live (compacted) state: row i belongs to original trial orig[i].
    orig = np.arange(trials)
    churn = (
        ChurnState(churn_schedule, n, shape=(trials, n))
        if has_churn
        else None
    )
    last_event = churn.last_event_round if has_churn else -1
    active = (
        churn.initial_active()
        if has_churn
        else np.ones((trials, n), dtype=bool)
    )
    initial_row = rule.initial(n) if has_churn else None
    recovered = np.ones(trials, dtype=bool) if has_churn else None
    probabilities = np.broadcast_to(
        rule.initial(n), (trials, n)
    ).astype(np.float64, copy=True)
    beeps_live = np.zeros((trials, n), dtype=np.int64)
    member_live = np.zeros((trials, n), dtype=bool)
    history = [] if record_beeps else None
    if n == 0:
        # No vertices: every trial terminates before round 0, exactly
        # like the full-width engines' initial alive check.
        orig = orig[:0]
    round_index = 0
    telemetry_on = probes.enabled()
    active_cells = 0
    # The frontier needs stateless point reads (counter mode), whole
    # tensors stay relevant under noise or beep recording, and churn
    # repairs need the full-width quiescence bookkeeping.
    frontier_ok = (
        counter and not noisy and not record_beeps and not has_churn
    )
    frontier_limit = max(256, (trials * n) // 3)
    capped = False
    # ---------------- compacted full-width phase ----------------
    while orig.size:
        if round_index >= max_rounds:
            if has_churn:
                # Graceful degradation: flag the trials still mid-repair
                # instead of raising.
                rounds[orig] = round_index
                membership[orig] = member_live
                beeps[orig] = beeps_live
                recovered[orig] = False
                capped = True
                break
            raise RuntimeError(
                f"fleet simulation exceeded {max_rounds} rounds"
            )
        if frontier_ok and np.count_nonzero(active) <= frontier_limit:
            break
        if has_churn and churn.apply_events(
            # Events all land at rounds <= last_event, before any
            # compaction: every tensor is still full-width and row t is
            # trial t.
            round_index, active, member_live, crashed,
            kernel.neighbor_or, probabilities, initial_row,
        ):
            quiet = np.zeros(trials, dtype=bool)
            quiet[orig] = ~active.any(axis=1)
            churn.record_quiescence(round_index, quiet)
        crash = crash_masks.get(round_index)
        if crash is not None:
            newly_crashed = active & crash
            crashed[orig] |= newly_crashed
            active &= ~newly_crashed
        if telemetry_on:
            active_cells += int(np.count_nonzero(active))
        loss_uniforms = None
        spurious_uniforms = None
        if counter:
            uniforms = counter_uniforms(
                live_seeds, round_index, DRAW_BEEP, n
            )
            if loss > 0.0:
                loss_uniforms = counter_uniforms(
                    live_seeds, round_index, DRAW_LOSS, n
                )
            if spurious > 0.0:
                spurious_uniforms = counter_uniforms(
                    live_seeds, round_index, DRAW_SPURIOUS, n
                )
        else:
            uniforms = np.empty((orig.size, n), dtype=np.float64)
            if loss > 0.0:
                loss_uniforms = np.empty((orig.size, n), dtype=np.float64)
            if spurious > 0.0:
                spurious_uniforms = np.empty(
                    (orig.size, n), dtype=np.float64
                )
            # Ascending original-trial order, beep then loss then
            # spurious within each trial: the exact stream schedule.
            for row, trial in enumerate(orig):
                uniforms[row] = generators[trial].random(n)
                if loss > 0.0:
                    loss_uniforms[row] = generators[trial].random(n)
                if spurious > 0.0:
                    spurious_uniforms[row] = generators[trial].random(n)
        beep = active & (uniforms < probabilities)
        if noisy:
            counts = kernel.neighbor_counts(beep)
            heard_true = counts > 0
            # Every compacted row is alive, so no stale-row masking.
            heard = faulty_observation(
                counts, loss, spurious, loss_uniforms, spurious_uniforms
            )
        else:
            heard_true = kernel.neighbor_or(beep)
            heard = heard_true
        probabilities = rule.update(
            probabilities, heard, active, round_index
        )
        # Second exchange stays reliable: joins come from the true OR.
        joined = beep & ~heard_true
        member_live |= joined
        neighbor_joined = kernel.neighbor_or(joined)
        beeps_live += beep
        active &= ~(joined | neighbor_joined)
        if record_beeps:
            frame = np.zeros((trials, n), dtype=bool)
            frame[orig] = beep
            history.append(frame)
        round_index += 1
        still_alive = active.any(axis=1)
        if has_churn:
            quiet = np.zeros(trials, dtype=bool)
            quiet[orig] = ~still_alive
            churn.record_quiescence(
                round_index, quiet, applied_rounds=round_index - 1
            )
            if round_index <= last_event:
                # No trial retires before the last event: quiescent
                # trials keep executing (and drawing) through the gaps.
                still_alive = np.ones(orig.size, dtype=bool)
        if not still_alive.all():
            done = ~still_alive
            finished = orig[done]
            rounds[finished] = round_index
            membership[finished] = member_live[done]
            beeps[finished] = beeps_live[done]
            orig = orig[still_alive]
            active = active[still_alive]
            probabilities = probabilities[still_alive]
            beeps_live = beeps_live[still_alive]
            member_live = member_live[still_alive]
            if counter:
                live_seeds = live_seeds[still_alive]
    # ---------------- counter frontier phase ----------------
    if orig.size and not capped:
        membership[orig] = member_live
        beeps[orig] = beeps_live
        round_index, frontier_cells = run_counter_frontier(
            "bitboard", rule, live_seeds, active, probabilities, orig,
            lambda src_rows, src_cols, rows, cols: kernel.entry_or_test(
                src_rows, src_cols, rows, cols, orig.size
            ),
            rounds, membership, beeps, crashed, crash_masks,
            round_index, max_rounds,
        )
        active_cells += frontier_cells
    if telemetry_on:
        emit_run_probes(
            "fleet", "bitboard", trials, n, round_index, active_cells, churn
        )
    (run,) = fleet_runs(
        rule, [graph], [trials], rounds, membership, beeps,
        crashed=crashed if crash_masks else None,
        churn=churn,
        recovered=recovered,
        history=history,
        validate=validate,
    )
    return run
