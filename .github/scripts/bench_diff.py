#!/usr/bin/env python3
"""Diff Google-Benchmark JSON results against cached baselines and fail
on regressions.

Usage:
    bench_diff.py BASELINE_DIR NEW_DIR [--threshold 0.15]
                  [--metric cpu_time] [--mode fail|warn] [--history 3]
                  [--budgets bench_budgets.json]

``NEW_DIR`` holds one ``<bench_name>.json`` per bench binary (the
bench-smoke layout). ``BASELINE_DIR`` holds either:

* ``run-*/`` subdirectories, each a past run in the same per-file
  layout — the baseline per benchmark is the **rolling median over the
  last ``--history`` runs** (sorted by directory name), which cuts
  runner noise that a single-run baseline amplifies; or
* flat ``*.json`` files (the legacy single-run layout), used as-is.

Benchmarks are matched by (file, benchmark name); entries present on
only one side and aggregate rows are not compared. A file or row that
exists only in the baseline (a deleted or renamed bench) gets a
``::notice::`` line so it cannot vanish without a word; it never fails
the gate. Rows whose name contains
``:informational`` are also skipped: bench binaries use that suffix for
measurements that are real but not comparable on this runner (e.g.
thread-scaling rows registered on a single-CPU host, where widths 2/4/8
measure oversubscription noise rather than scaling). A regression is
``new > baseline * (1 + threshold)``. Exit status is 1 in fail mode
when any regression exceeds its threshold, else 0.

Per-bench budgets (``--budgets``) carry targeted limits; a
``min_time_ns`` floor (baseline entries faster than it are skipped as
smoke noise) now comes ONLY from the budgets file — the old wholesale
``--min-time-ns`` flag is retired, every µs-scale bench has its own
entry. The JSON looks like::

    {
      "default": {"threshold": 0.15, "min_time_ns": 1e5},
      "benches": {
        "bench_fft": {"threshold": 0.25, "min_time_ns": 2e4},
        "bench_fft::bm_fft_pow2/4096": {"threshold": 0.40}
      }
    }

Keys under ``benches`` are the bench file stem (``<name>`` of
``<name>.json``) or ``<stem>::<benchmark name>`` for one row. The most
specific entry wins per field: row > file > budgets ``default`` > CLI
flags. A budget with a lower ``min_time_ns`` therefore *un-skips* a
fast bench (it gets compared with its own, usually looser, threshold
instead of being ignored), and a noisy bench gets a wider band without
loosening the gate for everything else. Note a ``default`` section
shadows the CLI flags for EVERY bench — leave it out (as the repo's
budgets file does) when the CLI flags (e.g. CI's
``BENCH_REGRESSION_THRESHOLD``) should stay the live fallback. Budget
keys that match no benchmark emit a ``::warning::`` so typos and stale
names after a rename do not silently revert a bench to the defaults.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

#: time_unit scale factors to nanoseconds.
_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_results(path: pathlib.Path, metric: str) -> dict[str, float]:
    """Maps benchmark name -> per-iteration time [ns] for one JSON file."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"::warning::skipping unreadable {path}: {err}")
        return {}
    out: dict[str, float] = {}
    for entry in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev repetitions).
        if entry.get("run_type") == "aggregate":
            continue
        name = entry.get("name")
        value = entry.get(metric)
        if name is None or value is None:
            continue
        scale = _UNIT_NS.get(entry.get("time_unit", "ns"))
        if scale is None:
            continue
        out[name] = float(value) * scale
    return out


def baseline_runs(baseline_dir: pathlib.Path,
                  history: int) -> list[pathlib.Path]:
    """The run directories contributing to the rolling baseline, oldest
    first: the last `history` ``run-*`` subdirectories, or the directory
    itself for the legacy flat layout."""
    runs = sorted(p for p in baseline_dir.iterdir()
                  if p.is_dir() and p.name.startswith("run-"))
    if not runs:
        return [baseline_dir]
    return runs[-history:]


def collect_baseline(baseline_dir: pathlib.Path, history: int,
                     metric: str) -> dict[str, dict[str, float]]:
    """Maps file name -> benchmark name -> median baseline time [ns]
    over the contributing runs. A benchmark missing from some runs is
    medianed over the runs that have it."""
    merged: dict[str, dict[str, list[float]]] = {}
    for run in baseline_runs(baseline_dir, history):
        for json_file in sorted(run.glob("*.json")):
            per_file = merged.setdefault(json_file.name, {})
            for name, value in load_results(json_file, metric).items():
                per_file.setdefault(name, []).append(value)
    return {fname: {name: statistics.median(values)
                    for name, values in benches.items()}
            for fname, benches in merged.items()}


#: budget entry fields and their validators.
_BUDGET_FIELDS = {"threshold": float, "min_time_ns": float}


def load_budgets(path: pathlib.Path) -> dict:
    """Parses and validates a budgets file (see module docstring).
    Raises ValueError on malformed structure so a typo fails the gate
    loudly instead of silently reverting to defaults."""
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ValueError("budgets root must be an object")
    unknown = set(doc) - {"default", "benches"}
    if unknown:
        raise ValueError(f"unknown top-level budget keys: {sorted(unknown)}")
    entries = [("default", doc.get("default", {}))]
    benches = doc.get("benches", {})
    if not isinstance(benches, dict):
        raise ValueError("budgets 'benches' must be an object")
    entries += list(benches.items())
    for label, entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"budget entry {label!r} must be an object")
        for key, value in entry.items():
            if key not in _BUDGET_FIELDS:
                raise ValueError(f"budget {label!r}: unknown field {key!r}")
            if (not isinstance(value, (int, float))
                    or isinstance(value, bool) or value < 0):
                raise ValueError(
                    f"budget {label!r}: {key} must be a number >= 0")
    return doc


def budget_for(budgets: dict | None, stem: str, name: str,
               cli_threshold: float, cli_min_time_ns: float = 0.0
               ) -> tuple[float, float]:
    """(threshold, min_time_ns) for one benchmark row. Per field, the
    most specific source wins: row > file > budgets default > CLI
    (min_time_ns has no CLI flag anymore; its fallback is 0 = compare
    everything)."""
    threshold, min_time_ns = cli_threshold, cli_min_time_ns
    if budgets is None:
        return threshold, min_time_ns
    layers = [budgets.get("default", {})]
    benches = budgets.get("benches", {})
    layers.append(benches.get(stem, {}))
    layers.append(benches.get(f"{stem}::{name}", {}))
    for layer in layers:
        threshold = layer.get("threshold", threshold)
        min_time_ns = layer.get("min_time_ns", min_time_ns)
    return threshold, min_time_ns


def compare(baseline: dict[str, dict[str, float]], new_dir: pathlib.Path,
            threshold: float, metric: str, min_time_ns: float = 0.0,
            budgets: dict | None = None
            ) -> tuple[int, list[tuple[str, float, float, float, float]],
                       int]:
    """Returns (compared, regressions, improvements); each regression is
    (label, baseline_ns, new_ns, ratio, threshold_used)."""
    compared = 0
    regressions: list[tuple[str, float, float, float, float]] = []
    improvements = 0
    seen_keys: set[str] = set()
    new_files = sorted(new_dir.glob("*.json"))
    for fname in sorted(set(baseline) - {f.name for f in new_files}):
        print(f"::notice::{fname}: in the baseline only, not compared")
    for new_file in new_files:
        new = load_results(new_file, metric)
        seen_keys.add(new_file.stem)
        seen_keys.update(f"{new_file.stem}::{name}" for name in new)
        base = baseline.get(new_file.name)
        if base is None:
            print(f"::notice::{new_file.name}: new bench, no baseline yet")
            continue
        for name in sorted(set(base) - set(new)):
            if ":informational" not in name:
                print(f"::notice::{new_file.name}: {name}: in the baseline "
                      "only, not compared")
        for name, new_ns in sorted(new.items()):
            if ":informational" in name:
                continue
            old_ns = base.get(name)
            if old_ns is None:
                continue
            row_threshold, row_min_time = budget_for(
                budgets, new_file.stem, name, threshold, min_time_ns)
            if old_ns < row_min_time:
                continue
            compared += 1
            ratio = new_ns / old_ns if old_ns > 0 else float("inf")
            if ratio > 1.0 + row_threshold:
                regressions.append((f"{new_file.stem}: {name}", old_ns,
                                    new_ns, ratio, row_threshold))
            elif ratio < 1.0 - row_threshold:
                improvements += 1
    # A budget key that matches no bench file or row is almost always a
    # typo or a stale name after a rename — the bench it meant to cover
    # silently runs at the defaults, so say so.
    for key in sorted((budgets or {}).get("benches", {})):
        if key not in seen_keys:
            print(f"::warning::budgets entry {key!r} matched no benchmark")
    return compared, regressions, improvements


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative slowdown that fails (default 0.15)")
    parser.add_argument("--metric", default="cpu_time",
                        choices=["cpu_time", "real_time"],
                        help="which benchmark field to compare")
    parser.add_argument("--mode", default="fail", choices=["fail", "warn"],
                        help="fail: nonzero exit on regression; warn: "
                             "report only")
    parser.add_argument("--history", type=int, default=3,
                        help="how many past runs the rolling-median "
                             "baseline uses (default 3)")
    parser.add_argument("--budgets", type=pathlib.Path, default=None,
                        help="per-bench budget JSON (see module docstring); "
                             "overrides --threshold/--min-time-ns per bench")
    args = parser.parse_args()

    if args.history < 1:
        parser.error("--history must be >= 1")
    budgets = None
    if args.budgets is not None:
        try:
            budgets = load_budgets(args.budgets)
        except (OSError, json.JSONDecodeError, ValueError) as err:
            parser.error(f"bad budgets file {args.budgets}: {err}")
    if not args.baseline.is_dir():
        print(f"no baseline directory at {args.baseline}; nothing to diff")
        return 0

    baseline = collect_baseline(args.baseline, args.history, args.metric)
    compared, regressions, improvements = compare(
        baseline, args.new, args.threshold, args.metric, budgets=budgets)

    budget_note = f", budgets {args.budgets}" if budgets else ""
    print(f"compared {compared} benchmarks "
          f"(default threshold {args.threshold:.0%}, metric {args.metric}, "
          f"median over <= {args.history} runs{budget_note}); "
          f"{len(regressions)} regressions, {improvements} improvements")
    for name, old_ns, new_ns, ratio, row_threshold in sorted(
            regressions, key=lambda r: -r[3]):
        print(f"::error::perf regression {name}: "
              f"{old_ns / 1e6:.3f} ms -> {new_ns / 1e6:.3f} ms "
              f"({(ratio - 1.0):+.1%}, budget {row_threshold:.0%})")

    if regressions and args.mode == "fail":
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
