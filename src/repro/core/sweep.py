"""Parallel Figure 2 sweep runner with checkpoint/restore warm starts.

The full Figure 2 matrix -- variant x engine x bus level x cpu level --
is embarrassingly parallel: every cell builds its own platform, runs its
own workload and reports its own numbers.  This module expands the
matrix into independent jobs and runs them over a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* **Phase A (family boots).**  One job per SystemC variant builds the
  variant's canonical platform (generic engine, signal bus, cycle CPU),
  warms it up by ``ExperimentOptions.warmup_instructions`` and saves a
  :class:`~repro.platform.snapshot.SimulationSnapshot` to a temp file.
* **Phase B (cells).**  One job per matrix cell restores its variant's
  snapshot into a freshly built platform in the cell's configuration
  (snapshots transfer across engines and abstraction levels) and runs
  the measurement windows.  Each worker process caches deserialised
  snapshots by path, so a family's boot work is paid once per variant
  instead of once per cell.

Cells of a family are submitted the moment that family's boot finishes,
so boots and measurements overlap.  Every job runs under a watchdog
timeout (``SIGALRM``); a failed or timed-out job becomes an explicit
*error record* in the report -- never a silently missing cell, and never
retried.  Results are merged in canonical matrix order regardless of
completion order, so ``--jobs 8`` and ``--jobs 1`` produce
byte-identical artifacts.

The ``BENCH_fig2.json`` document helpers (load/merge/write plus the
per-commit ``bench_history/`` ledger) live here too;
``examples/figure2_sweep.py --record`` is their one caller that writes
into the checkout.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import signal as _signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..bus.transport import BUS_SIGNAL, bus_levels as _bus_levels
from ..iss.wrapper import CPU_CYCLE, cpu_levels as _cpu_levels
from ..kernel.engine import engine_kinds as _engine_kinds
from ..platform import VanillaNetPlatform, VariantName, variant_config
from ..software import build_boot_program
from .experiment import ExperimentOptions, Figure2Experiment, VariantResult

BENCH_FIG2_SCHEMA = "bench-fig2/v3"

#: Canonical dimension orders; the merged result order is the cross
#: product in exactly this nesting (variant-major), independent of job
#: completion order.
_VARIANT_ORDER = {variant: index for index, variant
                  in enumerate(VariantName)}
_ENGINE_ORDER = {kind: index for index, kind in enumerate(_engine_kinds())}
_BUS_ORDER = {level: index for index, level in enumerate(_bus_levels())}
_CPU_ORDER = {level: index for index, level in enumerate(_cpu_levels())}


# ---------------------------------------------------------------------- #
# matrix expansion and canonical ordering
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepCell:
    """One cell of the Figure 2 matrix."""

    variant: VariantName
    engine: str
    bus_level: str
    cpu_level: str

    @property
    def key(self) -> str:
        """The ``BENCH_fig2.json`` entry key of this cell."""
        return (f"{self.variant.value}/{self.engine}"
                f"/{self.bus_level}/{self.cpu_level}")


def cell_sort_key(cell: SweepCell) -> tuple:
    """Canonical matrix order of a cell (variant-major)."""
    return (_VARIANT_ORDER.get(cell.variant, len(_VARIANT_ORDER)),
            _ENGINE_ORDER.get(cell.engine, len(_ENGINE_ORDER)),
            cell.engine,
            _BUS_ORDER.get(cell.bus_level, len(_BUS_ORDER)),
            cell.bus_level,
            _CPU_ORDER.get(cell.cpu_level, len(_CPU_ORDER)),
            cell.cpu_level)


def result_sort_key(result: VariantResult) -> tuple:
    """Canonical matrix order of a measured result (variant-major)."""
    return cell_sort_key(SweepCell(result.variant, result.engine,
                                   result.bus_level, result.cpu_level))


def expand_matrix(variants: Optional[Sequence[VariantName]] = None,
                  engines: Optional[Sequence[str]] = None,
                  bus_levels: Optional[Sequence[str]] = None,
                  cpu_levels: Optional[Sequence[str]] = None
                  ) -> list[SweepCell]:
    """The matrix cells, in canonical order.

    The RTL HDL baseline has no transport seam and no ISS wrapper, so it
    expands over the engine dimension only (reported at signal/cycle
    level, matching :meth:`Figure2Experiment.measure_variant`).
    """
    if variants is None:
        variants = list(VariantName)
    if engines is None:
        engines = list(_engine_kinds())
    if bus_levels is None:
        bus_levels = list(_bus_levels())
    if cpu_levels is None:
        cpu_levels = list(_cpu_levels())
    cells = []
    for variant in variants:
        if variant is VariantName.RTL_HDL:
            for engine in engines:
                cells.append(SweepCell(variant, engine, BUS_SIGNAL,
                                       CPU_CYCLE))
            continue
        for engine in engines:
            for bus_level in bus_levels:
                for cpu_level in cpu_levels:
                    cells.append(SweepCell(variant, engine, bus_level,
                                           cpu_level))
    cells.sort(key=cell_sort_key)
    return cells


# ---------------------------------------------------------------------- #
# worker-side job functions (module level: picklable for the pool)
# ---------------------------------------------------------------------- #
#: Per-worker-process cache of deserialised snapshots, keyed by file
#: path, so each worker pays a variant's unpickling cost once.
_WORKER_SNAPSHOTS: dict[str, object] = {}


class _JobTimeout(Exception):
    """A sweep job overran its watchdog timeout."""


def _raise_job_timeout(signum, frame):
    raise _JobTimeout("sweep job watchdog expired")


def _call_with_timeout(work: Callable, timeout_s: Optional[float]):
    """Run ``work()`` under a SIGALRM watchdog (no-op without SIGALRM).

    Signal handlers and itimers are process-global, so the watchdog must
    leave both exactly as it found them: a pre-existing ``ITIMER_REAL``
    keeps running during the job and is re-armed with whatever time it
    had left, and off the main thread (where ``signal.signal`` raises)
    the job simply runs unguarded.
    """
    if not timeout_s or timeout_s <= 0 or not hasattr(_signal, "SIGALRM"):
        return work()
    if threading.current_thread() is not threading.main_thread():
        return work()
    previous_handler = _signal.signal(_signal.SIGALRM, _raise_job_timeout)
    started = time.monotonic()
    prior_value, prior_interval = _signal.setitimer(_signal.ITIMER_REAL,
                                                    timeout_s)
    try:
        return work()
    finally:
        if prior_value:
            elapsed = time.monotonic() - started
            remaining = max(prior_value - elapsed, 1e-6)
            _signal.setitimer(_signal.ITIMER_REAL, remaining, prior_interval)
        else:
            _signal.setitimer(_signal.ITIMER_REAL, 0)
        _signal.signal(_signal.SIGALRM, previous_handler)


def _boot_family_job(variant: VariantName, options: ExperimentOptions,
                     snapshot_dir: str,
                     timeout_s: Optional[float]) -> dict:
    """Boot one variant's canonical platform and snapshot it to a file."""
    def work() -> str:
        platform = VanillaNetPlatform(variant_config(variant))
        platform.load_program(build_boot_program(options.boot_params()))
        platform.run_instructions(options.warmup_instructions,
                                  max_cycles=options.max_cycles_per_phase,
                                  chunk_cycles=options.chunk_cycles)
        snapshot = platform.save_snapshot(variant=variant.value)
        path = pathlib.Path(snapshot_dir) / f"{variant.value}.snapshot"
        path.write_bytes(pickle.dumps(snapshot,
                                      protocol=pickle.HIGHEST_PROTOCOL))
        return str(path)

    try:
        return {"ok": True, "variant": variant,
                "path": _call_with_timeout(work, timeout_s)}
    except Exception as error:  # noqa: BLE001 - reported as an error record
        return {"ok": False, "variant": variant,
                "error": f"{type(error).__name__}: {error}"}


def _measure_cell_job(cell: SweepCell, options: ExperimentOptions,
                      snapshot_path: Optional[str],
                      timeout_s: Optional[float]) -> dict:
    """Measure one matrix cell, warm-starting from a snapshot file."""
    def work() -> VariantResult:
        snapshot = None
        if snapshot_path is not None:
            snapshot = _WORKER_SNAPSHOTS.get(snapshot_path)
            if snapshot is None:
                snapshot = pickle.loads(
                    pathlib.Path(snapshot_path).read_bytes())
                _WORKER_SNAPSHOTS[snapshot_path] = snapshot
        return Figure2Experiment(options).measure_variant(
            cell.variant, cell.engine, cell.bus_level, cell.cpu_level,
            snapshot=snapshot)

    try:
        return {"ok": True, "cell": cell,
                "result": _call_with_timeout(work, timeout_s)}
    except Exception as error:  # noqa: BLE001 - reported as an error record
        return {"ok": False, "cell": cell,
                "error": f"{type(error).__name__}: {error}"}


# ---------------------------------------------------------------------- #
# the runner
# ---------------------------------------------------------------------- #
@dataclass
class SweepReport:
    """Everything one :func:`run_matrix_sweep` call produced."""

    #: Successful measurements, in canonical matrix order.
    results: list[VariantResult] = field(default_factory=list)
    #: Error records of cells that failed: dicts with
    #: ``variant``/``engine``/``bus_level``/``cpu_level``/``error``.
    errors: list[dict] = field(default_factory=list)
    jobs: int = 1
    elapsed_seconds: float = 0.0
    #: True when warm-start snapshots were taken and used.
    snapshots_used: bool = False
    cells_total: int = 0

    def raise_on_errors(self) -> None:
        """Raise ``RuntimeError`` when any cell ended as an error record."""
        if self.errors:
            summary = "; ".join(
                f"{error['variant']}/{error['engine']}/{error['bus_level']}"
                f"/{error['cpu_level']}: {error['error']}"
                for error in self.errors)
            raise RuntimeError(f"{len(self.errors)} sweep cell(s) failed: "
                               f"{summary}")


def stderr_progress(line: str) -> None:
    """Default progress sink: one carriage-returned line on stderr."""
    sys.stderr.write("\r\x1b[2K" + line)
    sys.stderr.flush()


class _Progress:
    """Progress/ETA line over a fixed number of work units."""

    def __init__(self, total: int,
                 sink: Optional[Callable[[str], None]]) -> None:
        self.total = total
        self.done = 0
        self.sink = sink
        self.started = time.perf_counter()

    def advance(self, label: str) -> None:
        self.done += 1
        if self.sink is None:
            return
        elapsed = time.perf_counter() - self.started
        remaining = self.total - self.done
        eta = elapsed / self.done * remaining if self.done else 0.0
        self.sink(f"[{self.done}/{self.total}] {label}  "
                  f"elapsed {elapsed:.0f}s  eta {eta:.0f}s")

    def finish(self) -> None:
        if self.sink is stderr_progress and self.done:
            sys.stderr.write("\n")
            sys.stderr.flush()


def _error_record(cell: SweepCell, message: str) -> dict:
    return {"variant": cell.variant.value, "engine": cell.engine,
            "bus_level": cell.bus_level, "cpu_level": cell.cpu_level,
            "error": message}


def run_matrix_sweep(options: Optional[ExperimentOptions] = None,
                     variants: Optional[Sequence[VariantName]] = None,
                     engines: Optional[Sequence[str]] = None,
                     bus_levels: Optional[Sequence[str]] = None,
                     cpu_levels: Optional[Sequence[str]] = None,
                     cells: Optional[Sequence[SweepCell]] = None,
                     jobs: Optional[int] = None,
                     timeout_s: Optional[float] = 600.0,
                     use_snapshots: bool = True,
                     progress: Optional[Callable[[str], None]] = None
                     ) -> SweepReport:
    """Measure the Figure 2 matrix in parallel.

    ``jobs`` defaults to ``os.cpu_count()``; ``jobs=1`` runs every job
    inline in this process (same code path, no executor).  ``cells``
    overrides the dimension arguments with an explicit cell list.
    Snapshot warm starts need ``options.warmup_instructions > 0`` and
    ``use_snapshots=True``; otherwise every cell warms up (or starts
    cold) by itself.  A job that fails or overruns ``timeout_s`` is
    recorded in :attr:`SweepReport.errors` on its first failure.
    """
    started = time.perf_counter()
    if options is None:
        options = ExperimentOptions()
    if cells is None:
        cells = expand_matrix(variants, engines, bus_levels, cpu_levels)
    else:
        cells = sorted(cells, key=cell_sort_key)
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, jobs)

    report = SweepReport(jobs=jobs, cells_total=len(cells))
    results_by_cell: dict[SweepCell, VariantResult] = {}
    snapshot_paths: dict[VariantName, Optional[str]] = {}

    snapshotting = use_snapshots and options.warmup_instructions > 0
    families = []
    if snapshotting:
        seen = set()
        for cell in cells:
            if cell.variant is not VariantName.RTL_HDL \
                    and cell.variant not in seen:
                seen.add(cell.variant)
                families.append(cell.variant)

    report.snapshots_used = bool(families)
    progress_line = _Progress(len(families) + len(cells), progress)

    def record_cell(outcome: dict) -> None:
        """Fold a finished cell job in."""
        cell = outcome["cell"]
        if outcome["ok"]:
            results_by_cell[cell] = outcome["result"]
            progress_line.advance(f"{cell.key} ok")
            return
        report.errors.append(_error_record(cell, outcome["error"]))
        progress_line.advance(f"{cell.key} ERROR")

    def record_family(outcome: dict) -> None:
        """Fold a finished family boot in."""
        variant = outcome["variant"]
        if outcome["ok"]:
            snapshot_paths[variant] = outcome["path"]
            progress_line.advance(f"boot {variant.value} ok")
            return
        # Cells of this family fall back to warming up individually.
        snapshot_paths[variant] = None
        progress_line.advance(f"boot {variant.value} ERROR "
                              f"({outcome['error']}); cells warm serially")

    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as snapshot_dir:
        if jobs == 1:
            for variant in families:
                record_family(_boot_family_job(variant, options,
                                               snapshot_dir, timeout_s))
            for cell in cells:
                record_cell(_measure_cell_job(
                    cell, options, snapshot_paths.get(cell.variant),
                    timeout_s))
        else:
            _run_pool(cells, families, options, snapshot_dir, jobs,
                      timeout_s, snapshot_paths, record_cell, record_family)

    progress_line.finish()
    report.results = [results_by_cell[cell] for cell in cells
                      if cell in results_by_cell]
    report.errors.sort(key=lambda error: cell_sort_key(SweepCell(
        VariantName(error["variant"]), error["engine"],
        error["bus_level"], error["cpu_level"])))
    report.elapsed_seconds = time.perf_counter() - started
    return report


def _run_pool(cells, families, options, snapshot_dir, jobs, timeout_s,
              snapshot_paths, record_cell, record_family) -> None:
    """Drive the two sweep phases over one process pool.

    Family boots are submitted first; a family's cells are submitted the
    moment its boot settles (snapshot written, or given up on), so boots
    and measurements overlap across workers.
    """
    by_family: dict[VariantName, list[SweepCell]] = {}
    independent = []
    for cell in cells:
        if cell.variant in families:
            by_family.setdefault(cell.variant, []).append(cell)
        else:
            independent.append(cell)

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {}

        def submit_cell(cell):
            futures[pool.submit(_measure_cell_job, cell, options,
                                snapshot_paths.get(cell.variant),
                                timeout_s)] = ("cell", cell)

        for variant in families:
            futures[pool.submit(_boot_family_job, variant, options,
                                snapshot_dir, timeout_s)] = ("family", variant)
        for cell in independent:
            submit_cell(cell)

        while futures:
            done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
            for future in done:
                kind, subject = futures.pop(future)
                try:
                    outcome = future.result()
                except Exception as error:  # worker process died
                    outcome = {"ok": False, "error":
                               f"{type(error).__name__}: {error}"}
                    outcome["cell" if kind == "cell" else "variant"] = \
                        subject
                if kind == "family":
                    record_family(outcome)
                    for cell in by_family.get(subject, ()):
                        submit_cell(cell)
                else:
                    record_cell(outcome)


# ---------------------------------------------------------------------- #
# BENCH_fig2.json document helpers
# ---------------------------------------------------------------------- #
def load_fig2_results(path: pathlib.Path) -> dict:
    """The ``BENCH_fig2.json`` document at ``path`` (skeleton if absent)."""
    path = pathlib.Path(path)
    if path.exists():
        try:
            document = json.loads(path.read_text())
            if document.get("schema") == BENCH_FIG2_SCHEMA:
                return document
        except (ValueError, AttributeError):
            pass
    return {"schema": BENCH_FIG2_SCHEMA, "entries": {}}


def merge_fig2_results(document: dict,
                       results: Iterable[VariantResult],
                       errors: Iterable[dict] = ()) -> dict:
    """Merge measured results and error records into a document, in place.

    Entries are keyed ``variant/engine/bus_level/cpu_level`` so repeated
    runs update in place.  A failed cell becomes an explicit entry with
    an ``error`` field and no ``cps_khz`` (downstream consumers skip
    entries without a numeric CPS) -- never a silently missing key.
    """
    entries = document.setdefault("entries", {})
    for result in sorted(results, key=result_sort_key):
        key = (f"{result.variant.value}/{result.engine}"
               f"/{result.bus_level}/{result.cpu_level}")
        entries[key] = {
            "variant": result.variant.value,
            "engine": result.engine,
            "bus_level": result.bus_level,
            "cpu_level": result.cpu_level,
            "cps_khz": round(result.cps_khz, 3),
            "counters": dict(result.kernel_counters),
        }
    for error in errors:
        key = (f"{error['variant']}/{error['engine']}"
               f"/{error['bus_level']}/{error['cpu_level']}")
        entries[key] = {
            "variant": error["variant"],
            "engine": error["engine"],
            "bus_level": error["bus_level"],
            "cpu_level": error["cpu_level"],
            "error": error["error"],
        }
    return document


def merge_cluster_results(document: dict, results) -> dict:
    """Merge measured cluster cells into a ``BENCH_fig2.json`` document.

    Cluster entries live alongside the single-node Figure 2 entries under
    their natural ``cluster<N>/engine/bus_level/cpu_level`` keys (the same
    keys the cluster comparison table prints), so the bench-history
    ledger and ``scripts/compare_bench_history.py`` track their CPS
    trajectory exactly like any other configuration.
    """
    entries = document.setdefault("entries", {})
    for result in sorted(results, key=lambda r: r.key):
        entries[result.key] = {
            "nodes": result.node_count,
            "engine": result.engine,
            "bus_level": result.bus_level,
            "cpu_level": result.cpu_level,
            "cps_khz": round(result.cps_khz, 3),
            "cycles": result.cycles,
            "frames_delivered": result.frames_delivered,
        }
    return document


def write_fig2_results(document: dict, path: pathlib.Path) -> None:
    """Serialise a document byte-stably (sorted keys, trailing newline)."""
    pathlib.Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n")


def current_commit(cwd: Optional[pathlib.Path] = None) -> str:
    """The abbreviated hash of HEAD (``"unversioned"`` outside git)."""
    try:
        probe = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                               capture_output=True, text=True, timeout=10,
                               cwd=cwd)
        if probe.returncode == 0:
            return probe.stdout.strip() or "unversioned"
    except OSError:
        pass
    return "unversioned"


def record_bench_history(document: dict, history_dir: pathlib.Path,
                         commit: Optional[str] = None) -> pathlib.Path:
    """Snapshot a benchmark document into ``bench_history/<commit>.json``.

    Repeated runs at the same commit overwrite the snapshot (the document
    is already a merge across runs), so the ledger holds exactly one
    entry per measured commit.
    """
    history_dir = pathlib.Path(history_dir)
    history_dir.mkdir(exist_ok=True)
    if commit is None:
        commit = current_commit(history_dir.parent)
    snapshot = dict(document)
    snapshot["commit"] = commit
    path = history_dir / f"{commit}.json"
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


def record_fig2_results(results: Iterable[VariantResult],
                        path: pathlib.Path,
                        history_dir: Optional[pathlib.Path] = None,
                        errors: Iterable[dict] = (),
                        clusters=()) -> dict:
    """Load-merge-write ``BENCH_fig2.json`` and update the history ledger.

    ``clusters`` are measured cluster cells
    (:class:`~repro.core.experiment.ClusterResult`), merged next to the
    single-node entries.  Returns the full document written.
    """
    document = merge_fig2_results(load_fig2_results(path), results, errors)
    merge_cluster_results(document, clusters)
    write_fig2_results(document, path)
    if history_dir is not None:
        record_bench_history(document, history_dir)
    return document
