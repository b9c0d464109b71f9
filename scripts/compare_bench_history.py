#!/usr/bin/env python3
"""Compare the current benchmark results against the recorded history.

``benchmarks/conftest.py`` appends one snapshot of ``BENCH_fig2.json`` per
commit into ``bench_history/`` (keyed by ``git rev-parse --short HEAD``).
This script reads the current results plus every prior snapshot and flags
configurations whose CPS fell below the historical reference by more than
the noise threshold.

The reference for each configuration key is the *median* CPS across the
historical snapshots that measured it: single-run CPS readings on shared
hosts fluctuate by tens of percent, so comparing against one earlier run
would mostly flag noise, while the median of several runs is stable.

Exit status is 0 unless ``--strict`` is given and at least one regression
was flagged, so the default mode is safe for informational CI steps.

Usage::

    python scripts/compare_bench_history.py
    python scripts/compare_bench_history.py --threshold 0.4 --strict
    python scripts/compare_bench_history.py --baseline eec305d
    python scripts/compare_bench_history.py --keys cluster \\
        --fail-on-regression 60
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Snapshot / results-file schema prefix this script understands.
SCHEMA_PREFIX = "bench-fig2/"


def load_entries(path: pathlib.Path) -> dict:
    """Configuration key -> entry dict from one results/snapshot file."""
    document = json.loads(path.read_text())
    schema = document.get("schema", "")
    if not schema.startswith(SCHEMA_PREFIX):
        raise ValueError(f"{path}: unknown schema {schema!r}")
    return document.get("entries", {})


def load_history(history_dir: pathlib.Path, current_commit: str | None,
                 baseline: str | None) -> dict:
    """Configuration key -> list of historical CPS readings."""
    history: dict[str, list[float]] = {}
    if not history_dir.is_dir():
        return history
    for path in sorted(history_dir.glob("*.json")):
        if baseline is not None and path.stem != baseline:
            continue
        if baseline is None and current_commit is not None \
                and path.stem == current_commit:
            # The snapshot this very run just recorded is not history.
            continue
        try:
            entries = load_entries(path)
        except (ValueError, json.JSONDecodeError) as error:
            print(f"warning: skipping {path.name}: {error}", file=sys.stderr)
            continue
        for key, entry in entries.items():
            cps = entry.get("cps_khz")
            if isinstance(cps, (int, float)) and cps > 0:
                history.setdefault(key, []).append(float(cps))
    return history


def current_commit_name(current_path: pathlib.Path) -> str | None:
    """The commit the current results belong to.

    Snapshot files carry their commit; the live results file does not, so
    fall back to asking git (matching how the snapshot names are formed).
    """
    try:
        document = json.loads(current_path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    recorded = document.get("commit")
    if recorded:
        return recorded
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if probe.returncode == 0:
        return probe.stdout.strip() or None
    return None


def compare(current: dict, history: dict, threshold: float):
    """Yield (key, current_cps, reference_cps, ratio, regressed) rows."""
    for key in sorted(current):
        entry = current[key]
        cps = entry.get("cps_khz")
        if not isinstance(cps, (int, float)) or cps <= 0:
            continue
        readings = history.get(key)
        if not readings:
            yield key, float(cps), None, None, False
            continue
        reference = statistics.median(readings)
        ratio = float(cps) / reference
        yield key, float(cps), reference, ratio, ratio < (1.0 - threshold)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_fig2.json",
                        help="current results file (default: repo root)")
    parser.add_argument("--history", type=pathlib.Path,
                        default=REPO_ROOT / "bench_history",
                        help="snapshot ledger directory")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="flag when current CPS falls more than this "
                             "fraction below the historical median "
                             "(default 0.5, i.e. slower than half)")
    parser.add_argument("--baseline", default=None, metavar="COMMIT",
                        help="compare against one snapshot instead of the "
                             "median of all prior snapshots")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when a regression is flagged")
    parser.add_argument("--fail-on-regression", type=float, default=None,
                        metavar="PCT",
                        help="gate mode: flag configurations whose CPS "
                             "fell more than PCT percent below the "
                             "historical median and exit non-zero "
                             "(shorthand for --threshold PCT/100 --strict)")
    parser.add_argument("--keys", default=None, metavar="PREFIX",
                        help="only compare configuration keys starting "
                             "with PREFIX (e.g. 'cluster' restricts the "
                             "gate to the multi-node cells)")
    args = parser.parse_args(argv)
    if args.fail_on_regression is not None:
        args.threshold = args.fail_on_regression / 100.0
        args.strict = True

    if not args.current.is_file():
        print(f"no current results at {args.current}; nothing to compare")
        return 0
    try:
        current = load_entries(args.current)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    history = load_history(args.history, current_commit_name(args.current),
                           args.baseline)
    if args.keys is not None:
        current = {key: entry for key, entry in current.items()
                   if key.startswith(args.keys)}
        if not current:
            print(f"no current configurations match --keys {args.keys!r}; "
                  f"nothing to compare")
            return 0

    regressions = []
    fresh = []
    width = max((len(key) for key in current), default=20)
    print(f"{'configuration':<{width}}  {'current':>9}  {'reference':>9}"
          f"  {'ratio':>6}")
    for key, cps, reference, ratio, regressed in compare(
            current, history, args.threshold):
        if reference is None:
            fresh.append(key)
            print(f"{key:<{width}}  {cps:9.3f}  {'--':>9}  {'--':>6}  (new)")
            continue
        marker = "  << REGRESSION" if regressed else ""
        print(f"{key:<{width}}  {cps:9.3f}  {reference:9.3f}"
              f"  {ratio:5.2f}x{marker}")
        if regressed:
            regressions.append((key, cps, reference))

    print()
    if fresh:
        print(f"{len(fresh)} configuration(s) without history (recorded "
              f"for the first time this run)")
    if regressions:
        print(f"{len(regressions)} regression(s) beyond the "
              f"{args.threshold:.0%} noise threshold:")
        for key, cps, reference in regressions:
            print(f"  {key}: {cps:.3f} kHz vs median {reference:.3f} kHz")
        if args.strict:
            return 1
    else:
        print("no CPS regressions beyond the noise threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
