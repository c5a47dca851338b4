#!/usr/bin/env python3
"""Diff two fleet-campaign JSON reports and fail on quality regressions.

Usage:
    campaign_diff.py BASELINE NEW [--alpha 0.05] [--code-id ID]
                     [--mode fail|warn]

``NEW`` is a ``ptrng-fleet-campaign-report`` JSON file (the
``--report-json`` output of ``example_fleet_campaign``). ``BASELINE``
is either another report file or a directory of past nightlies in the
bench-smoke cache layout (``run-*/`` subdirectories, each holding one
``*.json``) — the newest run is the baseline.

Two readings, chosen by what produced the two reports:

* **Exact (same code and config).** The campaign is fully
  deterministic for a fixed config, so when both reports come from the
  same code and config the baseline is an exact reference and any rate movement is a change in
  behaviour. The exact reading applies when ``--code-id`` equals the
  code id stored next to the baseline report (a ``code-id`` file in
  the baseline report's directory; the nightly writes the tree hashes
  of the simulator's sources and its toolchain there) and both reports
  carry the same ``config_digest`` (same seeds, bits, base seed and
  corners). Any move in the regression direction, and any bad verdict
  flip, is a regression.
* **Statistical (code or config changed).** Across any code change,
  a config change (a manual run at another seed count, say), and a
  declared stream change (a §5 recalibration) in particular, the new
  streams are a fresh draw of the same process: each corner's rates
  move by sampling noise in steps of 1/seeds (one shard). So each
  corner's shard counts are compared with a one-sided Fisher exact
  test (two-sample, conditional on the pooled count), and the family
  of tests over all matched corners is held to a family-wise error
  rate of ``--alpha`` by Holm's step-down. Tests that cannot reach
  significance at all (their smallest attainable p-value exceeds the
  level they would need, Tarone's rule) do not count toward the
  family size: corners that read 0 or 1 on both sides add nothing.
  Verdict flips are reported as notices: a flip alone is one shard
  crossing a threshold. With one exact test per corner, a corner needs
  enough shards to be testable at all: at 4 seeds the smallest
  attainable p-value (4/4 against 0/4) is 1/70, which no family of
  more than three testable corners can reach; the nightly runs 8
  seeds, where 8/8 against 0/8 gives 1/12870.

Per matched corner the tested counts are:

* unattacked (``attack == "none"``): AIS-31 passes out of the shards
  that ran it (``ais31_pass`` of ``ais31_run``) falling, and alarmed
  shards (``alarmed`` of ``shards``, false alarms) rising;
* attacked: alarmed shards (detections) falling;
* a corner that is ``pending`` (zero shards folded) on either side is
  skipped — partial reports compare only what both runs measured.

Corners are matched by name (``generator/node/corner/fN/attack``);
corners present on only one side — a grid change — are reported as
notices, never failures. The same tests in the opposite direction count
as improvements. Exit status is 1 in fail mode when any regression
fired, else 0. Regressions print ``::error::`` GitHub annotations; grid
or config digest changes print ``::notice::``.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from dataclasses import dataclass

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


def baseline_code_id(report: pathlib.Path) -> str | None:
    """The code id stored next to a baseline report, if any."""
    try:
        return (report.parent / "code-id").read_text().strip() or None
    except OSError:
        return None


def corners_by_name(doc: dict) -> dict[str, dict]:
    return {c["name"]: c for c in doc.get("corners", [])
            if isinstance(c, dict) and "name" in c}


def _hypergeom_pmf(k: int, total: int, hits: int, draws: int) -> float:
    return (math.comb(hits, k) * math.comb(total - hits, draws - k)
            / math.comb(total, draws))


def fisher_one_sided(x_base: int, n_base: int, x_new: int, n_new: int,
                     lower: bool) -> tuple[float, float]:
    """One-sided Fisher exact test of the new proportion x_new/n_new
    against the baseline's, conditional on the pooled count: with
    ``lower``, H1 is "the new rate is lower", else "higher". Returns
    (p-value, smallest p-value attainable with these margins)."""
    total = n_base + n_new
    hits = x_base + x_new
    lo = max(0, hits - n_base)
    hi = min(hits, n_new)
    if lower:
        ks = range(lo, x_new + 1)
        extreme = lo
    else:
        ks = range(x_new, hi + 1)
        extreme = hi
    p = sum(_hypergeom_pmf(k, total, hits, n_new) for k in ks)
    return min(1.0, p), _hypergeom_pmf(extreme, total, hits, n_new)


@dataclass
class Test:
    message: str   # what a rejection means, preformatted
    p: float       # one-sided p-value
    p_min: float   # smallest attainable p-value


def tarone_count(p_mins: list[float], alpha: float) -> int:
    """Tarone's family size: the smallest m >= 1 such that at most m
    tests can reach alpha / m."""
    for m in range(1, len(p_mins) + 1):
        if sum(1 for p in p_mins if p <= alpha / m) <= m:
            return m
    return max(1, len(p_mins))


def holm_tarone(tests: list[Test], alpha: float) -> list[Test]:
    """Holm's step-down at family-wise level alpha, each step counting
    only the remaining tests that can still reach significance."""
    remaining = sorted(tests, key=lambda t: t.p)
    rejected: list[Test] = []
    while remaining:
        m = tarone_count([t.p_min for t in remaining], alpha)
        if remaining[0].p > alpha / m:
            break
        rejected.append(remaining.pop(0))
    return rejected


def _counts(corner: dict, attacked: bool) -> list[tuple[str, int, int, bool]]:
    """(label, successes, trials, regression_is_a_fall) per tested count."""
    if attacked:
        return [("detection rate", corner["alarmed"], corner["shards"], True)]
    return [("AIS-31 pass rate", corner["ais31_pass"], corner["ais31_run"],
             True),
            ("false-alarm rate", corner["alarmed"], corner["shards"], False)]


def use_exact_reading(base: dict, new: dict, code_id: str | None,
                      base_code_id: str | None) -> bool:
    """The exact reading needs the same code and the same config: a
    run at another seed count or corner set draws other streams even
    from the same code."""
    return (code_id is not None and base_code_id is not None
            and code_id.strip() == base_code_id
            and base.get("config_digest") == new.get("config_digest"))


def compare(base: dict, new: dict, alpha: float = 0.05, exact: bool = False
            ) -> tuple[int, list[str], int, list[str]]:
    """Returns (compared, regressions, improvements, notices); each
    regression/notice is a preformatted message line. ``exact`` selects
    the same-code reading, else the statistical one."""
    regressions: list[str] = []
    notices: list[str] = []
    improvements = 0
    compared = 0
    worse: list[Test] = []
    better: list[Test] = []

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

    for name in sorted(set(base_corners) & set(new_corners)):
        b, n = base_corners[name], new_corners[name]
        if b.get("verdict") == "pending" or n.get("verdict") == "pending":
            notices.append(f"{name}: pending on one side (zero shards), "
                           "skipped")
            continue
        compared += 1
        attacked = n.get("attack", "none") != "none"
        for (label, xb, nb, fall), (_, xn, nn, _) in zip(
                _counts(b, attacked), _counts(n, attacked)):
            if nb == 0 or nn == 0:
                continue
            rb, rn = xb / nb, xn / nn
            verb = "fell" if fall else "rose"
            message = (f"{name}: {label} {verb} {rb:.2f} -> {rn:.2f} "
                       f"({xb}/{nb} -> {xn}/{nn})")
            if exact:
                if (rn < rb) == fall and rn != rb:
                    regressions.append(message)
                elif rn != rb:
                    improvements += 1
                continue
            p, p_min = fisher_one_sided(xb, nb, xn, nn, lower=fall)
            worse.append(Test(message, p, p_min))
            p, p_min = fisher_one_sided(xb, nb, xn, nn, lower=not fall)
            better.append(Test(message, p, p_min))

        flip = None
        if attacked and b.get("verdict") == "detected" \
                and n.get("verdict") == "missed":
            flip = f"{name}: verdict detected -> missed"
        if not attacked and b.get("verdict") == "pass" \
                and n.get("verdict") == "degraded":
            flip = f"{name}: verdict pass -> degraded"
        if flip is not None:
            if exact:
                regressions.append(flip)
            else:
                notices.append(f"{flip} (within sampling noise unless a "
                               "rate test below fired)")

    if not exact:
        regressions.extend(
            f"{t.message}, one-sided Fisher p = {t.p:.2g}"
            for t in holm_tarone(worse, alpha))
        improvements = len(holm_tarone(better, alpha))
    return compared, regressions, improvements, notices


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="family-wise error rate of the statistical "
                             "reading (default 0.05)")
    parser.add_argument("--code-id", default=None,
                        help="id of the code that produced NEW; equal to "
                             "the baseline's stored id selects the exact "
                             "reading")
    parser.add_argument("--mode", default="fail", choices=["fail", "warn"],
                        help="fail: nonzero exit on regression; warn: "
                             "report only")
    args = parser.parse_args()
    if not 0.0 < args.alpha < 1.0:
        parser.error("--alpha must be in (0, 1)")

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

    exact = use_exact_reading(base, new, args.code_id,
                              baseline_code_id(baseline_path))
    compared, regressions, improvements, notices = compare(
        base, new, alpha=args.alpha, exact=exact)

    reading = ("exact (same code and config)" if exact else
               f"statistical (Fisher, Holm at alpha {args.alpha:g})")
    print(f"compared {compared} corners against {baseline_path}, "
          f"{reading} reading; "
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
