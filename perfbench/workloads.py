"""Workload inputs, one timed repetition each, and their output checks.

A *repetition* is one cold run of the user path on fresh directories,
followed by warm reruns on the cache the cold run filled:

- ``paper``: :func:`repro.experiments.paper.run_paper` at the registry's
  own seeds (its check is the committed golden wall), then one warm rerun
  — only one, because every run appends to the run database and a second
  rerun would time a larger database than the first.
- the cell workloads: :func:`repro.sweep.orchestrator.run_sweep` of one
  fleet cell whose master seed is the benchmark seed, then
  :data:`CELL_WARM_RUNS` warm reruns served from the store.

The cell workloads are chosen to stress different layers (see
``perfbench/README.md``): ``dense_fleet`` the per-trial costs of the
dense round loop, ``sparse_scale`` graph build and the CSR path at large
n with few trials.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Callable, ContextManager, Dict, List, NamedTuple, Optional

from repro.engine.fleet import DENSE_VERTEX_LIMIT
from repro.experiments import paper
from repro.experiments.runner import TrialOutcome
from repro.sweep import orchestrator
from repro.sweep.orchestrator import SweepResult
from repro.sweep.spec import CellSpec, SweepSpec
from repro.sweep.store import ResultStore

from perfbench.spec import ROOT

GOLDEN_DIR = ROOT / "tests" / "experiments" / "golden_paper"
PAPER_TRIALS = 3
CELL_WARM_RUNS = 10


class CellShape(NamedTuple):
    n: int
    edge_probability: Callable[[int], float]
    trials: int


CELLS: Dict[str, CellShape] = {
    "dense_fleet": CellShape(1000, lambda n: 0.5, 1024),
    "sparse_scale": CellShape(100_000, lambda n: 8 / n, 8),
}

#: sha256 of the canonical rows (:func:`rows_digest`) of each cell
#: workload at seeds 0-9, pinned from the code the benchmark was defined
#: on.  A mismatch is a failed repetition, never a reason to re-pin.
PINNED_DIGESTS: Dict[str, Dict[int, str]] = {
    "dense_fleet": {
        0: "9550dcb34b7b531e3f839044044073351511b8a882c8f7c9ac3788c8b953a79c",
        1: "96bc4690ba5089398fb71a79f12b7408d736f340c978ca14e8891667eefcd430",
        2: "c2e250d0e16367ac955cecbc84a9d5c0a1dc506ec551e122fe7ff7cd843cb2fe",
        3: "bcea1bd05450c0976326853f5b4269b87f3b2c24a896d2b16956085223671a95",
        4: "d6db0ff732a0075276bcb007713154b3c64a6e9b05c6c4c4d5132a99cef96187",
        5: "dccb59e0e2d7e1e31775236aabef6863e632697559f981b59dc4b2f812c741a9",
        6: "c0a382985dbaa885dfebaad5914b757a556eb19695b7fe0bbede2a01d9d9c38f",
        7: "0086a08524123783176bb1fde9af2b7ad9e4e89500b4279effe7087ba27d43d1",
        8: "c418aeeae2977423d31d289ff08c1790061a1422e08c6b9924ac487c603ef104",
        9: "5b170e13ade2ac57f898dea2193baf557d9b0ed2b4ece0ee1fe8bc707f772806",
    },
    "sparse_scale": {
        0: "3dbbb80d83430f9ad353b86cd9b3e015a3f731e4b5cf84b956441dee28c6fb41",
        1: "cb946a8e01c3d31eaa25160c0d28b161200fdeecb93e6741428fbafd38950645",
        2: "3745ad55ee3d5591c53dd67bc47d6431e425e6face5c13cc3a69588f8d155022",
        3: "7c8f2e04bbc197c308e765bda599b851f004e808d7ca462559e4de953493da43",
        4: "e84a39d6f699c54620b30e6fe070d749587d38d211d40283a72dd7365541e01b",
        5: "d947f3b5d8a42d54d549e4a0152e56560eb1d4f7e131a550890de69c137e2165",
        6: "f843c1e8296f414c7a96ccfca335cd29f3940fb3a72bc778abc038ece1f64c7e",
        7: "b9950ecc0b6fff372dd9f1103c4dce824fc17e0cef7711e9def0a061a9558a46",
        8: "57434454baa7ce89579e239f6f872faa4e0c1fc6df035f59d6911b20658b982e",
        9: "8f291cb1384cf055e984f94963de1c33850be1727f221d6561ae62ba2d16f883",
    },
}


def cell_spec(
    workload: str,
    seed: int,
    n: Optional[int] = None,
    trials: Optional[int] = None,
    backend: str = "auto",
) -> CellSpec:
    """The workload's feedback cell, optionally scaled down."""
    shape = CELLS[workload]
    n = shape.n if n is None else n
    return CellSpec(
        algorithm="feedback",
        engine="fleet",
        family="gnp",
        n=n,
        edge_probability=shape.edge_probability(n),
        trials=shape.trials if trials is None else trials,
        graphs=1,
        master_seed=seed,
        rng_mode="counter",
        backend=backend,
        validate=True,
    )


def one_shard(cell: CellSpec) -> SweepSpec:
    return SweepSpec((cell,), shard_trials=cell.trials)


def warm_up_cell(workload: str, seed: int) -> CellSpec:
    """A small cell on the same code paths (the resolved backend too)."""
    n = CELLS[workload].n
    backend = "dense" if n <= DENSE_VERTEX_LIMIT else "sparse"
    return cell_spec(workload, seed, n=64, trials=8, backend=backend)


def rows_digest(rows: List[TrialOutcome]) -> str:
    """sha256 over the rows' canonical JSON lines, in order."""
    digest = hashlib.sha256()
    for row in rows:
        line = json.dumps(
            dataclasses.asdict(row), sort_keys=True, separators=(",", ":")
        )
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


@dataclasses.dataclass
class Repetition:
    """Timings and check results of one repetition."""

    wall_s: float
    warm_s: List[float]
    trials: int
    problems: List[str]
    peak_rss_mb: float = 0.0

    @property
    def total_s(self) -> float:
        """Cold plus warm time: what a traced repetition's root span covers."""
        return self.wall_s + sum(self.warm_s)


def _sweep_twice(spec: SweepSpec, store_dir: Path) -> None:
    orchestrator.run_sweep(spec, ResultStore(store_dir), jobs=1)
    orchestrator.run_sweep(spec, ResultStore(store_dir), jobs=1)


class CellWorkload:
    """One fleet cell through ``run_sweep`` on a fresh store."""

    def __init__(
        self, name: str, seed: int, cell: Optional[CellSpec] = None
    ) -> None:
        self.name = name
        self.seed = seed
        self.sweep = one_shard(cell_spec(name, seed) if cell is None else cell)
        self.cell = self.sweep.cells[0]
        #: Rows every run must reproduce: the pin, else the first run's.
        self.expected: Optional[str] = (
            PINNED_DIGESTS[name].get(seed) if cell is None else None
        )

    def warm_up(self, work: Path) -> None:
        _sweep_twice(one_shard(warm_up_cell(self.name, self.seed)), work)

    def repetition(
        self, work: Path, context: Optional[ContextManager] = None
    ) -> Repetition:
        store_dir = work / "store"
        warm: List[float] = []
        warm_results: List[SweepResult] = []
        with context or nullcontext():
            start = perf_counter()
            cold = orchestrator.run_sweep(
                self.sweep, ResultStore(store_dir), jobs=1
            )
            wall = perf_counter() - start
            for _ in range(CELL_WARM_RUNS):
                start = perf_counter()
                warm_results.append(
                    orchestrator.run_sweep(
                        self.sweep, ResultStore(store_dir), jobs=1
                    )
                )
                warm.append(perf_counter() - start)
        problems = self._check("cold", cold, len(self.sweep.shards()))
        for result in warm_results:
            problems += self._check("warm", result, 0)
        return Repetition(wall, warm, self.cell.trials, problems)

    def _check(self, label: str, result: SweepResult, executed: int) -> List[str]:
        report = result.report
        problems = [
            f"{label}: shard {failed.label()} failed: {failed.error}"
            for failed in report.failed_shards
        ]
        if report.shards_executed != executed:
            problems.append(
                f"{label}: executed {report.shards_executed} shards, "
                f"expected {executed}"
            )
        rows = result.outcomes.get(self.cell)
        if rows is None:
            return problems + [f"{label}: no rows for the cell"]
        if [row.trial for row in rows] != list(range(self.cell.trials)):
            problems.append(f"{label}: rows do not cover every trial once")
        digest = rows_digest(rows)
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            problems.append(
                f"{label}: rows digest {digest[:16]} != expected "
                f"{self.expected[:16]}"
            )
        return problems


class PaperWorkload:
    """``run_paper`` cold on fresh directories, then one warm rerun."""

    name = "paper"

    def __init__(self, seed: int) -> None:
        # The registry fixes every experiment's seed: the golden wall is
        # this workload's output check.
        self.seed = seed

    def warm_up(self, work: Path) -> None:
        _sweep_twice(one_shard(warm_up_cell("dense_fleet", self.seed)), work)

    def _run(self, work: Path, out: str) -> paper.PaperPipeline:
        return paper.run_paper(
            trials=PAPER_TRIALS,
            jobs=1,
            cache_dir=work / "cache",
            out_dir=work / out,
            rundb_dir=work / "rundb",
            golden_dir=GOLDEN_DIR,
            bench_dir=None,
        )

    def repetition(
        self, work: Path, context: Optional[ContextManager] = None
    ) -> Repetition:
        with context or nullcontext():
            start = perf_counter()
            cold = self._run(work, "cold")
            wall = perf_counter() - start
            start = perf_counter()
            warm = self._run(work, "warm")
            warm_s = perf_counter() - start
        problems = self._check("cold", cold, warm_run=False)
        problems += self._check("warm", warm, warm_run=True)
        problems += _compare_outputs(cold, warm)
        trials = sum(
            json.loads(path.read_text(encoding="utf-8"))["rows"]
            for path in (work / "cache").rglob("*.manifest.json")
        )
        if trials < 1:
            problems.append("cold: no trial rows were stored")
        return Repetition(wall, [warm_s], trials, problems)

    @staticmethod
    def _check(
        label: str, pipeline: paper.PaperPipeline, warm_run: bool
    ) -> List[str]:
        problems = [
            f"{label}: golden {verdict.artefact} {verdict.status}: "
            f"{verdict.detail}"
            for verdict in pipeline.drift
            if verdict.status != "PASS"
        ]
        if len(pipeline.drift) != len(paper.REGISTRY):
            problems.append(f"{label}: {len(pipeline.drift)} golden verdicts")
        executed = sum(a.shards_executed for a in pipeline.artefacts)
        if warm_run and executed:
            problems.append(f"warm: executed {executed} shards, expected 0")
        if not warm_run and not executed:
            problems.append("cold: executed no shards on a fresh cache")
        return problems


def _compare_outputs(
    cold: paper.PaperPipeline, warm: paper.PaperPipeline
) -> List[str]:
    """Warm CSVs and report must be byte-equal to the cold ones."""
    problems = []
    cold_files = sorted(path.name for path in cold.csv_dir.glob("*.csv"))
    warm_files = sorted(path.name for path in warm.csv_dir.glob("*.csv"))
    if cold_files != warm_files or not cold_files:
        problems.append(f"csv sets differ: {cold_files} vs {warm_files}")
    for name in cold_files:
        warm_path = warm.csv_dir / name
        if (
            warm_path.exists()
            and (cold.csv_dir / name).read_bytes() != warm_path.read_bytes()
        ):
            problems.append(f"warm {name} differs from cold")
    if cold.report_path.read_bytes() != warm.report_path.read_bytes():
        problems.append("warm report.html differs from cold")
    return problems


def make(name: str, seed: int):
    """The workload object for a benchmark workload name."""
    if name == "paper":
        return PaperWorkload(seed)
    if name in CELLS:
        return CellWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r}")
