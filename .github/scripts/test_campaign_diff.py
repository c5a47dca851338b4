#!/usr/bin/env python3
"""Self-test for campaign_diff.py (corner matching, the exact and the
statistical reading, verdict flips, baseline resolution).

Runs under pytest (``pytest test_campaign_diff.py``) or standalone
(``python3 test_campaign_diff.py``) — CI uses the standalone form so
the campaign jobs need no extra dependencies.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import campaign_diff  # noqa: E402


def _corner(name: str, attack: str, passes: int, alarmed: int,
            verdict: str | None = None, shards: int = 8) -> dict:
    """A report corner from its shard counts (every shard ran AIS-31)."""
    ais31, alarm = passes / shards, alarmed / shards
    if verdict is None:
        if attack == "none":
            verdict = "pass" if ais31 >= 0.75 and alarm <= 0.25 else \
                "degraded"
        else:
            verdict = "detected" if alarm >= 0.5 else "missed"
    return {"name": name, "attack": attack, "shards": shards,
            "ais31_run": shards, "ais31_pass": passes,
            "ais31_pass_rate": ais31, "alarmed": alarmed,
            "alarm_rate": alarm, "verdict": verdict}


def _report(corners: list[dict], digest: str = "d" * 64,
            complete: bool = True) -> dict:
    return {"format": "ptrng-fleet-campaign-report", "version": 1,
            "config_digest": digest, "shards_folded": 8 * len(corners),
            "shards_total": 8 * len(corners), "complete": complete,
            "corners": corners}


def _healthy(passes: int = 8, alarmed: int = 0, **kw) -> dict:
    return _corner("ero/180nm/tt/f0/none", "none", passes, alarmed, **kw)


def _attacked(alarmed: int = 8, **kw) -> dict:
    return _corner("ero/180nm/tt/f0/lock", "lock", 0, alarmed, **kw)


# --- the exact reading (same code and config) ---------------------------


def test_identical_reports_have_no_regressions() -> None:
    base = _report([_healthy(), _attacked()])
    for exact in (True, False):
        compared, regressions, improvements, _ = campaign_diff.compare(
            base, base, exact=exact)
        assert (compared, regressions, improvements) == (2, [], 0)


def test_exact_reading_flags_any_move_in_the_bad_direction() -> None:
    base = _report([_healthy(passes=8, alarmed=0), _attacked(alarmed=8)])
    new = _report([_healthy(passes=7, alarmed=1), _attacked(alarmed=7)])
    _, regressions, _, _ = campaign_diff.compare(base, new, exact=True)
    assert len(regressions) == 3
    assert any("AIS-31 pass rate fell 1.00 -> 0.88" in r for r in regressions)
    assert any("false-alarm rate rose" in r for r in regressions)
    assert any("detection rate fell" in r for r in regressions)
    # One shard per corner is sampling noise to the statistical reading.
    _, regressions, _, _ = campaign_diff.compare(base, new)
    assert regressions == []


def test_exact_reading_flags_verdict_flips() -> None:
    # One shard each: an attacked corner 4/8 -> 3/8 alarmed (detected ->
    # missed) and a healthy one 6/8 -> 5/8 AIS-31 passes (pass ->
    # degraded).
    base = _report([_healthy(passes=6), _attacked(alarmed=4)])
    new = _report([_healthy(passes=5), _attacked(alarmed=3)])
    _, regressions, _, notices = campaign_diff.compare(base, new, exact=True)
    assert "ero/180nm/tt/f0/lock: verdict detected -> missed" in regressions
    assert "ero/180nm/tt/f0/none: verdict pass -> degraded" in regressions
    _, regressions, _, notices = campaign_diff.compare(base, new)
    assert regressions == []
    assert any("detected -> missed" in n for n in notices)
    assert any("pass -> degraded" in n for n in notices)


def test_improvements_are_counted_not_flagged() -> None:
    base = _report([_healthy(passes=6), _attacked(alarmed=5)])
    new = _report([_healthy(passes=8), _attacked(alarmed=8)])
    compared, regressions, improvements, _ = campaign_diff.compare(
        base, new, exact=True)
    assert (compared, regressions, improvements) == (2, [], 2)


# --- the statistical reading (code changed) ------------------------------


def test_fisher_one_sided_matches_hand_values() -> None:
    # 8/8 -> 0/8: only the observed table is that extreme, 1/C(16, 8).
    p, p_min = campaign_diff.fisher_one_sided(8, 8, 0, 8, lower=True)
    assert abs(p - 1 / 12870) < 1e-15 and abs(p_min - 1 / 12870) < 1e-15
    # 4/4 -> 0/4: 1/C(8, 4) = 1/70.
    p, _ = campaign_diff.fisher_one_sided(4, 4, 0, 4, lower=True)
    assert abs(p - 1 / 70) < 1e-15
    # 3/4 -> 1/4, lower tail: P(X <= 1) with 4 hits in 8, 4 drawn
    # = (C(4,0)C(4,4) + C(4,1)C(4,3)) / 70 = 17/70.
    p, _ = campaign_diff.fisher_one_sided(3, 4, 1, 4, lower=True)
    assert abs(p - 17 / 70) < 1e-15
    # Constant corners can never reach significance.
    p, p_min = campaign_diff.fisher_one_sided(0, 8, 0, 8, lower=True)
    assert p == 1.0 and p_min == 1.0


def test_holm_tarone_counts_only_testable_hypotheses() -> None:
    Test = campaign_diff.Test
    # One testable corner among many constant ones: tested at alpha.
    tests = [Test("hit", 0.02, 0.01)] + [Test("flat", 1.0, 1.0)] * 300
    assert [t.message for t in campaign_diff.holm_tarone(tests, 0.05)] == \
        ["hit"]
    # Three tests that can each reach 0.01: Holm at 0.05/3, then 0.05/2.
    tests = [Test("a", 0.010, 0.001), Test("b", 0.020, 0.001),
             Test("c", 0.9, 0.001)]
    assert [t.message for t in campaign_diff.holm_tarone(tests, 0.05)] == \
        ["a", "b"]
    assert campaign_diff.holm_tarone(tests, 0.02) == []


def test_single_corner_collapse_regresses() -> None:
    base = _report([_healthy(), _attacked(alarmed=8)])
    new = _report([_healthy(), _attacked(alarmed=0)])
    _, regressions, _, _ = campaign_diff.compare(base, new)
    assert len(regressions) == 1
    assert "detection rate fell 1.00 -> 0.00 (8/8 -> 0/8)" in regressions[0]


def _grid(rng: random.Random, seeds: int, detect_off: str | None = None,
          rates: dict | None = None) -> tuple[list[dict], dict]:
    """A 324-corner report shaped like the campaign grid: 108 unattacked
    corners and 216 attacked ones over three attack classes, each
    corner's shard counts drawn binomially from its true rates (drawn
    once per grid shape and reused through ``rates``). With
    ``detect_off``, that attack class never alarms."""
    if rates is None:
        levels = [0.0, 0.0, 0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0, 1.0, 1.0]
        rates = {}
        for i in range(108):
            rates[f"c{i:03d}/none"] = (rng.choice(levels), rng.choice(levels))
        for attack in ("em_weak", "em_strong", "lock"):
            for i in range(72):
                rates[f"c{i:03d}/{attack}"] = (0.0, rng.choice(levels))

    def draw(p: float) -> int:
        return sum(rng.random() < p for _ in range(seeds))

    corners = []
    for name, (p_pass, p_alarm) in sorted(rates.items()):
        attack = name.split("/")[1]
        alarmed = 0 if attack == detect_off else draw(p_alarm)
        corners.append(_corner(name, attack, draw(p_pass), alarmed,
                               shards=seeds))
    return corners, rates


def test_null_diff_passes_at_4_and_8_seeds() -> None:
    # Same process, fresh draws: what a declared stream change looks
    # like. The family-wise error rate must stay under alpha; the exact
    # tests are conservative, so a null run almost never fires.
    rng = random.Random(0x5eed)
    for seeds in (4, 8):
        fired = 0
        runs = 200
        for _ in range(runs):
            base, rates = _grid(rng, seeds)
            new, _ = _grid(rng, seeds, rates=rates)
            _, regressions, _, _ = campaign_diff.compare(
                _report(base), _report(new))
            fired += bool(regressions)
        assert fired <= 0.05 * runs, (seeds, fired)


def test_detection_switched_off_for_one_attack_class_fails() -> None:
    # A real regression: one attack class is never detected any more.
    # At the nightly's 8 seeds every one of its detected corners is an
    # 8/8 -> 0/8 (or near) collapse, far beyond the family-wise level.
    rng = random.Random(0xbad)
    for _ in range(20):
        base, rates = _grid(rng, 8)
        new, _ = _grid(rng, 8, detect_off="lock", rates=rates)
        _, regressions, _, _ = campaign_diff.compare(
            _report(base), _report(new))
        assert regressions, "switched-off detection went unflagged"
        assert all("/lock: detection rate fell" in r for r in regressions)
    # At 4 seeds no single corner can reach the family-wise level
    # (1/70 at best), so only the exact reading can catch it there.
    base, rates = _grid(rng, 4)
    new, _ = _grid(rng, 4, detect_off="lock", rates=rates)
    _, regressions, _, _ = campaign_diff.compare(_report(base), _report(new),
                                                 exact=True)
    assert any("/lock: detection rate fell" in r for r in regressions)


def test_grid_changes_are_notices_not_failures() -> None:
    base = _report([_healthy(), _attacked()], digest="a" * 64)
    new = _report([_healthy(),
                   _corner("multi_ring/90nm/tt/f1/none", "none", 8, 0)],
                  digest="b" * 64)
    compared, regressions, _, notices = campaign_diff.compare(base, new)
    assert compared == 1  # only the shared corner
    assert regressions == []
    assert any("config digest changed" in n for n in notices)
    assert any("dropped from the grid" in n for n in notices)
    assert any("no baseline" in n for n in notices)


def test_pending_corners_are_skipped() -> None:
    pending = _corner("ero/180nm/tt/f0/none", "none", 0, 0, "pending")
    base = _report([_healthy()])
    new = _report([pending])
    compared, regressions, _, notices = campaign_diff.compare(base, new)
    assert (compared, regressions) == (0, [])
    assert any("pending" in n for n in notices)


def test_baseline_resolution_prefers_newest_run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cache = pathlib.Path(tmp) / "cache"
        for idx, digest in enumerate(["0" * 64, "1" * 64]):
            run = cache / f"run-{idx:04d}"
            run.mkdir(parents=True)
            (run / "report.json").write_text(
                json.dumps(_report([_healthy()], digest=digest)))
        resolved = campaign_diff.resolve_baseline(cache)
        assert resolved is not None
        doc = campaign_diff.load_report(resolved)
        assert doc["config_digest"] == "1" * 64  # newest run wins
        # A report file resolves to itself; a missing path to None.
        assert campaign_diff.resolve_baseline(
            cache / "run-0000" / "report.json").name == "report.json"
        assert campaign_diff.resolve_baseline(cache / "absent") is None


def test_empty_run_directories_are_skipped() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cache = pathlib.Path(tmp) / "cache"
        good = cache / "run-0000"
        good.mkdir(parents=True)
        (good / "report.json").write_text(json.dumps(_report([_healthy()])))
        (cache / "run-0001").mkdir()  # newest run saved nothing
        resolved = campaign_diff.resolve_baseline(cache)
        assert resolved is not None and resolved.parent.name == "run-0000"


def test_non_report_json_is_rejected() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "b.json"
        for text in ["{not json", json.dumps({"format": "other"}),
                     json.dumps({"format": campaign_diff._FORMAT,
                                 "version": 99})]:
            path.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert campaign_diff.load_report(path) is None
            assert "::warning::" in out.getvalue()


def test_main_exit_codes_and_warn_mode() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "base.json").write_text(
            json.dumps(_report([_attacked(alarmed=8)])))
        (root / "new.json").write_text(
            json.dumps(_report([_attacked(alarmed=0)])))
        argv_backup = sys.argv
        try:
            sys.argv = ["campaign_diff.py", str(root / "base.json"),
                        str(root / "new.json")]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert campaign_diff.main() == 1
            assert "::error::campaign regression" in out.getvalue()
            sys.argv += ["--mode", "warn"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert campaign_diff.main() == 0
            # No baseline at all: clean exit, nothing to diff.
            sys.argv = ["campaign_diff.py", str(root / "absent"),
                        str(root / "new.json")]
            with contextlib.redirect_stdout(io.StringIO()):
                assert campaign_diff.main() == 0
        finally:
            sys.argv = argv_backup


def test_code_id_next_to_the_baseline_selects_the_exact_reading() -> None:
    # One shard lost on one corner: noise to the statistical reading, a
    # regression when both reports come from the same code.
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        run = root / "cache" / "run-0001"
        run.mkdir(parents=True)
        (run / "report.json").write_text(
            json.dumps(_report([_attacked(alarmed=8)])))
        (run / "code-id").write_text("src-tree-1\n")
        (root / "new.json").write_text(
            json.dumps(_report([_attacked(alarmed=7)])))
        argv_backup = sys.argv
        try:
            for code_id, status, reading in [
                    ("src-tree-1", 1, "exact (same code and config)"),
                    ("src-tree-2", 0, "statistical"),
                    (None, 0, "statistical")]:
                sys.argv = ["campaign_diff.py", str(root / "cache"),
                            str(root / "new.json")]
                if code_id is not None:
                    sys.argv += ["--code-id", code_id]
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert campaign_diff.main() == status, code_id
                assert f"{reading}" in out.getvalue(), out.getvalue()
        finally:
            sys.argv = argv_backup


def test_same_code_at_another_config_reads_statistically() -> None:
    # A manual run at another seed count stored as the baseline: the
    # same code draws other streams, so the one-shard move is noise.
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        run = root / "cache" / "run-0001"
        run.mkdir(parents=True)
        (run / "report.json").write_text(
            json.dumps(_report([_attacked(alarmed=8)], digest="a" * 64)))
        (run / "code-id").write_text("src-tree-1\n")
        (root / "new.json").write_text(
            json.dumps(_report([_attacked(alarmed=7)], digest="b" * 64)))
        argv_backup = sys.argv
        try:
            sys.argv = ["campaign_diff.py", str(root / "cache"),
                        str(root / "new.json"), "--code-id", "src-tree-1"]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert campaign_diff.main() == 0
            assert "statistical" in out.getvalue(), out.getvalue()
            assert "config digest changed" in out.getvalue()
        finally:
            sys.argv = argv_backup


def test_partial_new_report_warns() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "base.json").write_text(json.dumps(_report([_healthy()])))
        (root / "new.json").write_text(
            json.dumps(_report([_healthy()], complete=False)))
        argv_backup = sys.argv
        try:
            sys.argv = ["campaign_diff.py", str(root / "base.json"),
                        str(root / "new.json")]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert campaign_diff.main() == 0
            assert "partial report" in out.getvalue()
        finally:
            sys.argv = argv_backup


def main() -> int:
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as err:
                failures += 1
                print(f"FAIL {name}: {err}")
    print(f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
