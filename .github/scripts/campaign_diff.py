#!/usr/bin/env python3
"""Diff two fleet-campaign JSON reports and fail on quality regressions.

Usage:
    campaign_diff.py BASELINE NEW [--tolerance 0.05] [--mode fail|warn]

``NEW`` is a ``ptrng-fleet-campaign-report`` JSON file (the
``--report-json`` output of ``example_fleet_campaign``). ``BASELINE``
is either another report file or a directory of past nightlies in the
bench-smoke cache layout (``run-*/`` subdirectories, each holding one
``*.json``) — the newest run is the baseline. The campaign is fully
deterministic for a fixed config, so between nightlies of the same
code the previous nightly is an exact reference and any rate movement
is a code-behaviour change. That stops holding across a declared
stream change (a §5 recalibration): the new streams are a fresh draw
of the same process, so each corner's rates move by sampling noise,
in steps of 1/seeds (one shard flipping its verdict). Read the first
nightly after such a change against a null: the old code diffed
against itself at another base seed. The tolerance exists for
deliberate small recalibrations, not for noise.

Corners are matched by name (``generator/node/corner/fN/attack``);
corners present on only one side — a grid change — are reported as
notices, never failures. Per matched corner:

* unattacked (``attack == "none"``): ``ais31_pass_rate`` dropping by
  more than ``--tolerance`` (absolute), ``alarm_rate`` (false alarms)
  rising by more than it, or a ``pass -> degraded`` verdict flip is a
  regression;
* attacked: ``alarm_rate`` (detection rate) dropping by more than the
  tolerance or a ``detected -> missed`` flip is a regression;
* a corner that is ``pending`` (zero shards folded) on either side is
  skipped — partial reports compare only what both runs measured.

Opposite-direction moves beyond the tolerance count as improvements.
Exit status is 1 in fail mode when any regression fired, else 0.
Regressions print ``::error::`` GitHub annotations; grid or config
digest changes print ``::notice::``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

_FORMAT = "ptrng-fleet-campaign-report"


def load_report(path: pathlib.Path) -> dict | None:
    """Parses one campaign report; None (with a warning) when the file
    is unreadable or not a campaign report."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"::warning::skipping unreadable {path}: {err}")
        return None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        print(f"::warning::{path} is not a {_FORMAT} document")
        return None
    if doc.get("version") != 1:
        print(f"::warning::{path}: unsupported report version "
              f"{doc.get('version')!r}")
        return None
    return doc


def resolve_baseline(path: pathlib.Path) -> pathlib.Path | None:
    """The baseline report file: ``path`` itself, or the newest report
    inside the newest ``run-*`` subdirectory of a cache directory."""
    if path.is_file():
        return path
    if not path.is_dir():
        return None
    runs = sorted(p for p in path.iterdir()
                  if p.is_dir() and p.name.startswith("run-"))
    for run in reversed(runs or [path]):
        reports = sorted(run.glob("*.json"))
        if reports:
            return reports[-1]
    return None


def corners_by_name(doc: dict) -> dict[str, dict]:
    return {c["name"]: c for c in doc.get("corners", [])
            if isinstance(c, dict) and "name" in c}


def compare(base: dict, new: dict, tolerance: float
            ) -> tuple[int, list[str], int, list[str]]:
    """Returns (compared, regressions, improvements, notices); each
    regression/notice is a preformatted message line."""
    regressions: list[str] = []
    notices: list[str] = []
    improvements = 0
    compared = 0

    if base.get("config_digest") != new.get("config_digest"):
        notices.append("config digest changed — campaign config or grid "
                       "differs; comparing matching corner names only")

    base_corners = corners_by_name(base)
    new_corners = corners_by_name(new)
    only_base = sorted(set(base_corners) - set(new_corners))
    only_new = sorted(set(new_corners) - set(base_corners))
    if only_base:
        notices.append(f"corners dropped from the grid: {only_base}")
    if only_new:
        notices.append(f"new corners with no baseline: {only_new}")

    def moved(delta: float) -> bool:
        return delta > tolerance

    for name in sorted(set(base_corners) & set(new_corners)):
        b, n = base_corners[name], new_corners[name]
        if b.get("verdict") == "pending" or n.get("verdict") == "pending":
            notices.append(f"{name}: pending on one side (zero shards), "
                           "skipped")
            continue
        compared += 1
        attacked = n.get("attack", "none") != "none"

        if attacked:
            # Detection rate: alarms are the point of an attacked corner.
            delta = b["alarm_rate"] - n["alarm_rate"]
            if moved(delta):
                regressions.append(
                    f"{name}: detection rate fell "
                    f"{b['alarm_rate']:.2f} -> {n['alarm_rate']:.2f}")
            elif moved(-delta):
                improvements += 1
            if b.get("verdict") == "detected" and n.get("verdict") == "missed":
                regressions.append(f"{name}: verdict detected -> missed")
        else:
            delta = b["ais31_pass_rate"] - n["ais31_pass_rate"]
            if moved(delta):
                regressions.append(
                    f"{name}: AIS-31 pass rate fell "
                    f"{b['ais31_pass_rate']:.2f} -> {n['ais31_pass_rate']:.2f}")
            elif moved(-delta):
                improvements += 1
            rise = n["alarm_rate"] - b["alarm_rate"]
            if moved(rise):
                regressions.append(
                    f"{name}: false-alarm rate rose "
                    f"{b['alarm_rate']:.2f} -> {n['alarm_rate']:.2f}")
            if b.get("verdict") == "pass" and n.get("verdict") == "degraded":
                regressions.append(f"{name}: verdict pass -> degraded")

    return compared, regressions, improvements, notices


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="absolute rate drop that fails (default 0.05)")
    parser.add_argument("--mode", default="fail", choices=["fail", "warn"],
                        help="fail: nonzero exit on regression; warn: "
                             "report only")
    args = parser.parse_args()
    if args.tolerance < 0:
        parser.error("--tolerance must be >= 0")

    baseline_path = resolve_baseline(args.baseline)
    if baseline_path is None:
        print(f"no baseline report under {args.baseline}; nothing to diff")
        return 0
    base = load_report(baseline_path)
    new = load_report(args.new)
    if new is None:
        print(f"::error::cannot read the new report {args.new}")
        return 1
    if base is None:
        print("baseline unreadable; nothing to diff")
        return 0
    if not new.get("complete", False):
        print(f"::warning::{args.new} is a partial report "
              f"({new.get('shards_folded')}/{new.get('shards_total')} "
              "shards)")

    compared, regressions, improvements, notices = compare(
        base, new, args.tolerance)

    print(f"compared {compared} corners against {baseline_path} "
          f"(tolerance {args.tolerance:.2f}); "
          f"{len(regressions)} regressions, {improvements} improvements")
    for note in notices:
        print(f"::notice::{note}")
    for line in regressions:
        print(f"::error::campaign regression {line}")

    if regressions and args.mode == "fail":
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
