"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

Run from the repository root; the program is imported from ``src/``.
Every run first sets up (imports, a small warm-up cell), then runs one
untimed priming repetition, then timed repetitions until ``--seconds``
have passed.  With ``--trace 0`` the run reports the end-to-end metrics:
medians over the timed repetitions (at least three), plus the median of
``SETUP_SAMPLES`` set-ups, each timed in a fresh process from its start
to the point where it would begin the first repetition.  Their times
are scaled to a reference host speed by a probe timed between
repetitions (:class:`HostSpeed`).  With
``--trace 1`` the timed repetitions alternate untraced and traced, and
the run reports the per-layer metrics of the traced ones (means per
repetition, so that they add up to the traced wall time) and the
tracing overhead.  Every repetition, priming included, is checked; one
whose outputs are wrong counts as failed.
The last line of standard output is the JSON result; the lines before it
give every metric with its sample count and quartiles, and the machine
fingerprint.  Traced runs also write their spans to
``.perfbench/traces/``.  BLAS is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.spec import (  # noqa: E402
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    SPEC_PATH,
    WORKLOADS,
    render_benchmark_json,
)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
#: Host-speed probes timed before every repetition and set-up sample.
PROBES_PER_GAP = 4
#: Time metrics are reported as if one probe took this long: about the
#: median probe time on a 2-vCPU Xeon VM, so values stay near seconds
#: as measured there.
PROBE_REFERENCE_S = 0.012
SETUP_TIMEOUT_S = 120
MIN_REPETITIONS = 3
#: A traced run needs at least two traced and two untraced repetitions.
MIN_TRACED_REPETITIONS = 4
WORK_DIR = ROOT / ".perfbench"


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-spec",
        action="store_true",
        help="write BENCHMARK.json from perfbench/spec.py and exit",
    )
    # Internal: one timed set-up sample (see setup_samples).
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    return args


# ---------------------------------------------------------------------------
# Machine fingerprint and memory.
# ---------------------------------------------------------------------------


def _blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, when it can be asked."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


class HostSpeed:
    """Times a fixed unit of work in the gaps between measured intervals.

    A shared virtual machine changes speed by 2-3x in phases of seconds
    to minutes, and every time the program takes moves with it.  The
    probe does not run the program.  Like the workloads, it mixes an
    arithmetic loop, building and walking Python containers, and numpy
    kernels.  Call :meth:`sample` before each measured interval and once
    after the last; :meth:`scale` then converts the seconds measured in
    between into seconds at the reference speed.
    """

    def __init__(self) -> None:
        import numpy

        # Every array the probe makes stays below glibc's default mmap
        # threshold (128 KiB), so that probing does not change how the
        # program's own allocations are served, nor its peak memory.
        rng = numpy.random.default_rng(0)
        self._matrix = rng.random((96, 96))
        self._vector = rng.random(12_000)
        self.samples: List[float] = []
        self._probe()  # untimed: first calls pay for loading and allocation

    def _probe(self) -> float:
        import numpy

        # A collection here would scan the program's heap: keep it out.
        gc.disable()
        try:
            start = perf_counter()
            total = 0
            for i in range(50_000):
                total += i * i
            for _ in range(5):
                table = {i: (i, str(i)) for i in range(2_000)}
                sum(len(text) for _, text in table.values())
            for _ in range(24):
                self._matrix @ self._matrix
                numpy.sort(self._vector)
                numpy.cumsum(self._vector > 0.5)
            return perf_counter() - start
        finally:
            gc.enable()

    def sample(self) -> None:
        self.samples.extend(self._probe() for _ in range(PROBES_PER_GAP))

    def probe_ms(self) -> float:
        return 1000.0 * statistics.median(self.samples)

    def scale(self) -> float:
        """Reference probe time over the median probe time seen.

        One factor for the whole run: a single gap's probes are too few
        to time the host as well as the program's own repetitions do.
        """
        return PROBE_REFERENCE_S / statistics.median(self.samples)


def fingerprint() -> Dict[str, object]:
    """The facts a result depends on besides the code."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, ValueError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (Linux 4.0+); no-op elsewhere."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident memory since the last reset, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


def setup_samples(
    args: argparse.Namespace, count: int, speed: HostSpeed
) -> List[float]:
    """Seconds from process start to "ready" for ``count`` fresh processes.

    The host speed is probed before each process and after the last.
    """
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    samples = []
    for _ in range(count):
        speed.sample()
        start = perf_counter()
        child = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        try:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(
                f"set-up process failed (exit {child.returncode})"
            )
        samples.append(elapsed)
    speed.sample()
    return samples


def measure(
    workload,
    work: Path,
    seconds: float,
    tracer=None,
    speed: Optional[HostSpeed] = None,
):
    """One priming repetition, then timed ones until ``seconds`` have passed.

    The priming repetition is checked but not timed: the first run of a
    workload in a process also pays for first-touch memory (the
    allocator's mmap threshold adapts after it), which no later
    repetition does.  With a tracer, timed repetitions alternate
    untraced and traced.  With ``speed``, the host is probed before each
    timed repetition and after the last.  Returns the priming
    repetition, the timed ones and the indices (into the timed list) of
    the traced ones.
    """
    minimum = MIN_TRACED_REPETITIONS if tracer is not None else MIN_REPETITIONS
    priming = _repetition(workload, work / "prime", "priming")
    reps = []
    traced_ids: List[int] = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(reps) < minimum:
        index = len(reps)
        traced = tracer is not None and index % 2 == 1
        if traced:
            traced_ids.append(index)
        if speed is not None:
            speed.sample()
        reps.append(
            _repetition(
                workload, work / f"rep{index}", index, tracer if traced else None
            )
        )
    if speed is not None:
        speed.sample()
    return priming, reps, traced_ids


def _repetition(workload, rep_dir: Path, index, tracer=None):
    from perfbench import tracer as tracing
    from perfbench.workloads import Repetition

    gc.collect()
    reset_peak_rss()
    try:
        if tracer is not None:
            with tracing.traced(tracer):
                rep = workload.repetition(rep_dir, tracer.repetition(index))
        else:
            rep = workload.repetition(rep_dir)
    except Exception:
        # A repetition that raises is a failed one; keep measuring.
        rep = Repetition(math.nan, [], 0, [traceback.format_exc()])
    rep.peak_rss_mb = peak_rss_mb()
    for problem in rep.problems:
        print(f"repetition {index}: {problem}", file=sys.stderr)
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def end_to_end_samples(
    reps, setup: List[float], scale: float = 1.0, setup_scale: float = 1.0
) -> Dict[str, List[float]]:
    """Samples of every end-to-end metric.

    Repetition times are multiplied by ``scale`` and set-up times by
    ``setup_scale``, the host-speed factors (:meth:`HostSpeed.scale`).
    """
    done = [rep for rep in reps if math.isfinite(rep.wall_s)]
    return {
        "wall_s": [scale * rep.wall_s for rep in done],
        "warm_s": [scale * warm for rep in done for warm in rep.warm_s],
        "trials_per_s": [rep.trials / (scale * rep.wall_s) for rep in done],
        "setup_s": [setup_scale * sample for sample in setup],
        "peak_rss_mb": [rep.peak_rss_mb for rep in done],
    }


def per_layer_values(
    tracer, traced_ids: List[int], untraced_totals: List[float], import_s: float
) -> Dict[str, float]:
    """Per-layer metrics: means over the traced repetitions."""
    from perfbench.tracer import root_walls, self_times

    spans = tracer.finished()
    selfs = self_times(spans)
    walls = root_walls(spans)
    reps = [rep for rep in traced_ids if rep in walls]

    def mean_of(name: str) -> float:
        return statistics.fmean(
            selfs[rep].get(name, 0.0) + tracer.counts[rep][name] for rep in reps
        )

    gets = sum(tracer.counts[rep]["sweep.store.gets"] for rep in reps)
    hits = sum(tracer.counts[rep]["sweep.store.hits"] for rep in reps)
    traced_wall = statistics.fmean(walls[rep] for rep in reps)
    special = {
        "import_s": import_s,
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / statistics.fmean(untraced_totals),
        "sweep.store.hit_ratio": hits / gets if gets else 0.0,
    }
    return {
        metric.name: special[metric.name]
        if metric.name in special
        else mean_of(metric.name)
        for metric in PER_LAYER
    }


def _print_samples(name: str, unit: str, values: Sequence[float]) -> float:
    """Print the median, quartiles and count of ``values``; return the median."""
    q1, median, q3 = quartiles(values)
    print(
        f"{name:<16} {median:>12.6g} {unit:<4} "
        f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"
    )
    return median


def report_end_to_end(samples: Dict[str, List[float]], failed_frac: float) -> Dict:
    """Print every end-to-end metric, then ``warm_s`` and ``failed_frac``,
    which are printed but are not ``BENCHMARK.json`` metrics."""
    metrics = {
        metric.name: {
            "value": _print_samples(
                metric.name, metric.unit, samples[metric.name]
            ),
            "unit": metric.unit,
        }
        for metric in END_TO_END
    }
    _print_samples("warm_s", "s", samples["warm_s"])
    print(f"{'failed_frac':<16} {failed_frac:>12.6g} ratio")
    return metrics


def report_per_layer(values: Dict[str, float]) -> Dict:
    wall = values["trace.wall_s"]
    for metric in PER_LAYER:
        value = values[metric.name]
        share = (
            f"{100.0 * value / wall:6.1f}% of traced wall"
            if metric.unit == "s"
            and metric.name not in ("import_s", "trace.wall_s")
            else ""
        )
        print(f"{metric.name:<28} {value:>14.6g} {metric.unit:<6} {share}")
    return {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in PER_LAYER
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        SPEC_PATH.write_text(render_benchmark_json(), encoding="utf-8")
        return 0
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    start = perf_counter()
    from perfbench import tracer as tracing
    from perfbench import workloads

    import_s = perf_counter() - start
    workload = workloads.make(args.workload, args.seed)
    work = WORK_DIR / "work" / f"{args.workload}-{os.getpid()}"
    try:
        workload.warm_up(work / "warm-up")
        if args.setup_only:
            print("ready", flush=True)
            return 0
        machine = fingerprint()
        setup_speed, speed = HostSpeed(), HostSpeed()
        setup = (
            [] if args.trace else setup_samples(args, SETUP_SAMPLES, setup_speed)
        )
        tracer = tracing.Tracer() if args.trace else None
        priming, reps, traced_ids = measure(
            workload, work, args.seconds, tracer, speed
        )
        machine["host_probe_ms"] = speed.probe_ms()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = [priming] + reps
    failed = sum(1 for rep in attempted if rep.problems)
    if all(not math.isfinite(rep.wall_s) for rep in reps):
        print("perfbench: every repetition raised", file=sys.stderr)
        return 1
    print(f"fingerprint {json.dumps(machine, sort_keys=True)}")
    print(
        f"workload {args.workload} seed {args.seed}: {len(attempted)} "
        f"repetitions ({len(reps)} timed), {failed} failed"
    )
    if args.trace:
        untraced = [
            rep.total_s
            for index, rep in enumerate(reps)
            if index not in traced_ids and math.isfinite(rep.wall_s)
        ]
        values = per_layer_values(tracer, traced_ids, untraced, import_s)
        metrics = report_per_layer(values)
        trace_path = (
            WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        )
        tracer.write(
            trace_path,
            {
                "workload": args.workload,
                "seed": args.seed,
                "fingerprint": machine,
                "traced_reps": traced_ids,
                "untraced_total_s": untraced,
            },
        )
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        raw = end_to_end_samples(reps, setup)
        print(
            f"host probe {speed.probe_ms():.4g} ms (set-up "
            f"{setup_speed.probe_ms():.4g} ms), reference "
            f"{1000 * PROBE_REFERENCE_S:.4g} ms; unscaled medians: "
            + ", ".join(
                f"{name} {statistics.median(raw[name]):.6g}"
                for name in ("wall_s", "warm_s", "setup_s")
            )
        )
        metrics = report_end_to_end(
            end_to_end_samples(
                reps, setup, speed.scale(), setup_speed.scale()
            ),
            failed / len(attempted),
        )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(attempted),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    # Before numpy loads anywhere in this process or its children.
    for _var in BLAS_THREAD_VARS:
        os.environ[_var] = "1"
    sys.exit(main())
