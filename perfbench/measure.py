"""Repeated workload runs, output checks and the end-to-end metrics.

One operation is one workload run: assemble the seeded programs, build the
model from reset, load the images, run to the halt and check every output.
A run that fails a check counts as failed; it is never retried, dropped or
replaced by a better reading.  Host time is process CPU time, so a run is
not charged for time the host spends on other processes.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, simulated_stats

SPAN_DIR = Path(__file__).resolve().parent / "out"

#: Runs made before the first timed one.  They are checked and counted as
#: operations but not timed, so lazily built interpreter and library state
#: (adaptive bytecode, memoised helpers) is in place for every timed run.
WARMUP_RUNS = 1
#: Timed runs made even when the time budget is already used up.
MIN_TIMED_RUNS = 3


class Run:
    """One workload run: its timings, outcome and simulated statistics.

    ``hooks.built(model)`` is called between the build and the first
    ``run`` and ``hooks.finished()`` right after the halt (the traced run
    wraps the process bodies and removes its wrappers there).  The run
    keeps no reference to the model, so it is freed before the next build
    and peak memory stays that of one model.

    A run whose model or output checks raise is a failed operation with
    no timings.
    """

    def __init__(self, workload, inputs, hooks=None) -> None:
        self.setup_s = self.run_s = self.stats = None
        clock = time.process_time
        try:
            start = clock()
            model = workload.setup(inputs)
            built = clock()
            if hooks is not None:
                hooks.built(model)
            halted = workload.run(model)
            finished = clock()
            if hooks is not None:
                hooks.finished()
            failures = workload.check(model, inputs, halted)
            stats = simulated_stats(model)
        except Exception as error:  # the operation fails; the others go on
            self.failures = [f"{type(error).__name__}: {error}"]
            return
        self.setup_s = built - start
        self.run_s = finished - built
        self.failures = failures
        self.stats = stats
        #: Process peak resident memory so far, in MB.
        self.peak_rss_mb = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    @property
    def sim_khz(self) -> float:
        return self.stats["cycles"] / self.run_s / 1000


def untraced_runs(workload, inputs, seconds: float) -> list[Run]:
    """Warm-up runs, then timed runs until ``seconds`` of CPU time."""
    runs = []
    begin = time.process_time()
    while len(runs) < WARMUP_RUNS + MIN_TIMED_RUNS \
            or time.process_time() - begin < seconds:
        runs.append(Run(workload, inputs))
        gc.collect()
    return runs


def mark_divergent(runs: list[Run], reference: dict) -> None:
    """Simulated statistics must repeat exactly within one invocation."""
    for run in runs:
        if run.stats != reference:
            run.failures.append(f"simulated statistics {run.stats} differ "
                                f"from the first run's {reference}")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(first: Run, timed: list[Run]) -> dict:
    """Medians of the timed runs; peak memory as of the first run, when
    the process had run exactly one workload run."""
    return {
        "setup_s": metric(statistics.median(r.setup_s for r in timed), "s"),
        "sim_khz": metric(statistics.median(r.sim_khz for r in timed), "kHz"),
        "peak_rss_mb": metric(first.peak_rss_mb, "MB"),
    }


def main(args) -> int:
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    print(f"workload {workload.name} seed {args.seed} inputs "
          f"{json.dumps(inputs.describe())}")
    runs = untraced_runs(workload, inputs, args.seconds)
    timed = [run for run in runs[WARMUP_RUNS:] if run.run_s is not None]
    traced = None
    if args.trace:
        import layers
        traced = layers.TracedRun(workload, inputs,
                                  f"{workload.name}/seed{args.seed}")
        runs.append(traced.run)
    reference = next((run.stats for run in runs if run.stats), None)
    mark_divergent([run for run in runs if run.stats], reference)
    print(f"simulated statistics {json.dumps(reference)}")
    print(f"{len(timed)} timed runs after {WARMUP_RUNS} warm-up: "
          f"setup_s {[round(r.setup_s, 4) for r in timed]} "
          f"sim_khz {[round(r.sim_khz, 2) for r in timed]}")
    metrics = {}
    if timed and runs[0].stats is not None:
        metrics = end_to_end(runs[0], timed)
        if traced is not None and traced.run.stats is not None:
            untraced_host = statistics.median(r.setup_s + r.run_s
                                              for r in timed)
            metrics.update(traced.report(untraced_host))
            SPAN_DIR.mkdir(exist_ok=True)
            path = SPAN_DIR / f"spans-{workload.name}.bin"
            traced.recorder.dump(path)
            print(f"{len(traced.recorder)} spans written to {path.name}")
    failed = [run for run in runs if run.failures]
    for run in failed:
        print(f"FAILED run: {'; '.join(run.failures)}")
    print(json.dumps({"correct": not failed, "attempted": len(runs),
                      "failed": len(failed), "metrics": metrics}))
    if not metrics or (traced is not None and traced.run.stats is None):
        print("perfbench: metrics missing, the runs above raised",
              file=sys.stderr)
        return 1
    return 0
