#!/usr/bin/env python3
"""Self-test for bench_diff.py (rolling-median baselines, layout
back-compat, regression detection).

Runs under pytest (``pytest test_bench_diff.py``) or standalone
(``python3 test_bench_diff.py``) — CI uses the standalone form so the
bench-smoke job needs no extra dependencies.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import bench_diff  # noqa: E402


def _write_run(run_dir: pathlib.Path, file_name: str,
               benches: dict[str, float], unit: str = "ns",
               run_type: str | None = None) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, cpu_time in benches.items():
        entry = {"name": name, "cpu_time": cpu_time, "real_time": cpu_time,
                 "time_unit": unit}
        if run_type is not None:
            entry["run_type"] = run_type
        entries.append(entry)
    (run_dir / file_name).write_text(json.dumps({"benchmarks": entries}))


def test_median_over_history_ignores_one_noisy_run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "baseline"
        for idx, value in enumerate([1e6, 1e6, 5e6]):  # one noisy outlier
            _write_run(base / f"run-{idx:04d}", "b.json", {"bm": value})
        baseline = bench_diff.collect_baseline(base, history=3,
                                              metric="cpu_time")
        # Median 1e6 survives the 5e6 outlier that a last-run baseline
        # would have used.
        assert baseline["b.json"]["bm"] == 1e6

        new = pathlib.Path(tmp) / "new"
        _write_run(new, "b.json", {"bm": 1.05e6})
        compared, regressions, _ = bench_diff.compare(
            baseline, new, threshold=0.15, metric="cpu_time",
            min_time_ns=1e5)
        assert compared == 1
        assert regressions == []


def test_history_window_drops_old_runs() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "baseline"
        # Old fast runs age out of a history-2 window; the recent slower
        # pair becomes the baseline.
        for idx, value in enumerate([1e6, 1e6, 4e6, 4e6]):
            _write_run(base / f"run-{idx:04d}", "b.json", {"bm": value})
        baseline = bench_diff.collect_baseline(base, history=2,
                                              metric="cpu_time")
        assert baseline["b.json"]["bm"] == 4e6


def test_flat_legacy_layout_still_works() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "baseline"
        _write_run(base, "b.json", {"bm": 2e6})
        baseline = bench_diff.collect_baseline(base, history=3,
                                              metric="cpu_time")
        assert baseline["b.json"]["bm"] == 2e6


def test_budget_overrides_threshold_per_bench() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "baseline"
        _write_run(base / "run-0000", "noisy.json", {"bm": 1e6})
        _write_run(base / "run-0000", "tight.json", {"bm": 1e6})
        baseline = bench_diff.collect_baseline(base, history=3,
                                               metric="cpu_time")
        new = pathlib.Path(tmp) / "new"
        # Both slow down 25%: the per-bench 40% budget absorbs it for
        # `noisy`, the default 15% still catches `tight`.
        _write_run(new, "noisy.json", {"bm": 1.25e6})
        _write_run(new, "tight.json", {"bm": 1.25e6})
        budgets = {"benches": {"noisy": {"threshold": 0.40}}}
        compared, regressions, _ = bench_diff.compare(
            baseline, new, threshold=0.15, metric="cpu_time",
            min_time_ns=1e5, budgets=budgets)
        assert compared == 2
        assert [r[0] for r in regressions] == ["tight: bm"]
        assert regressions[0][4] == 0.15  # the threshold that fired


def test_budget_row_level_beats_file_level() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "baseline"
        _write_run(base / "run-0000", "b.json", {"loose": 1e6, "tight": 1e6})
        baseline = bench_diff.collect_baseline(base, history=3,
                                               metric="cpu_time")
        new = pathlib.Path(tmp) / "new"
        _write_run(new, "b.json", {"loose": 1.3e6, "tight": 1.3e6})
        budgets = {"benches": {"b": {"threshold": 0.50},
                               "b::tight": {"threshold": 0.10}}}
        _, regressions, _ = bench_diff.compare(
            baseline, new, threshold=0.15, metric="cpu_time",
            min_time_ns=1e5, budgets=budgets)
        assert [r[0] for r in regressions] == ["b: tight"]
        assert regressions[0][4] == 0.10


def test_budget_min_time_unskips_fast_bench() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "baseline"
        # 1 µs baseline: below the caller-supplied 0.1 ms floor, so
        # without a budget this row is invisible to the gate.
        _write_run(base / "run-0000", "micro.json", {"bm": 1e3})
        baseline = bench_diff.collect_baseline(base, history=3,
                                               metric="cpu_time")
        new = pathlib.Path(tmp) / "new"
        _write_run(new, "micro.json", {"bm": 3e3})
        compared, regressions, _ = bench_diff.compare(
            baseline, new, threshold=0.15, metric="cpu_time",
            min_time_ns=1e5)
        assert (compared, regressions) == (0, [])
        budgets = {"benches": {"micro": {"threshold": 0.50,
                                         "min_time_ns": 0.0}}}
        compared, regressions, _ = bench_diff.compare(
            baseline, new, threshold=0.15, metric="cpu_time",
            min_time_ns=1e5, budgets=budgets)
        assert compared == 1
        assert [r[0] for r in regressions] == ["micro: bm"]


def test_budget_default_section_replaces_cli_defaults() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "baseline"
        _write_run(base / "run-0000", "b.json", {"bm": 1e6})
        baseline = bench_diff.collect_baseline(base, history=3,
                                               metric="cpu_time")
        new = pathlib.Path(tmp) / "new"
        _write_run(new, "b.json", {"bm": 1.2e6})  # +20%
        budgets = {"default": {"threshold": 0.25}}
        _, regressions, _ = bench_diff.compare(
            baseline, new, threshold=0.15, metric="cpu_time",
            min_time_ns=1e5, budgets=budgets)
        assert regressions == []


def test_budgets_file_validation() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "budgets.json"
        path.write_text(json.dumps(
            {"default": {"threshold": 0.15},
             "benches": {"b": {"min_time_ns": 0.0}}}))
        budgets = bench_diff.load_budgets(path)
        assert budgets["default"]["threshold"] == 0.15

        for bad in [
            {"benches": {"b": {"treshold": 0.2}}},   # typo'd field
            {"unknown_top": {}},                     # unknown section
            {"benches": {"b": {"threshold": -1.0}}}, # negative value
            {"benches": {"b": 0.2}},                 # entry not an object
        ]:
            path.write_text(json.dumps(bad))
            try:
                bench_diff.load_budgets(path)
            except ValueError:
                pass
            else:
                raise AssertionError(f"{bad} should have been rejected")


def test_unmatched_budget_key_warns() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "baseline"
        _write_run(base / "run-0000", "b.json", {"bm": 1e6})
        baseline = bench_diff.collect_baseline(base, history=3,
                                               metric="cpu_time")
        new = pathlib.Path(tmp) / "new"
        _write_run(new, "b.json", {"bm": 1e6})
        budgets = {"benches": {"b": {"threshold": 0.2},       # matches file
                               "b::bm": {"threshold": 0.2},   # matches row
                               "b::renamed_bm": {"threshold": 0.2},  # stale
                               "bench_guassian": {"threshold": 0.2}}}  # typo
        with contextlib.redirect_stdout(io.StringIO()) as out:
            bench_diff.compare(baseline, new, threshold=0.15,
                               metric="cpu_time", min_time_ns=1e5,
                               budgets=budgets)
        text = out.getvalue()
        assert "::warning::budgets entry 'b::renamed_bm'" in text
        assert "::warning::budgets entry 'bench_guassian'" in text
        assert "'b'" not in text.replace("'b::renamed_bm'", "")
        assert "'b::bm'" not in text


def test_min_time_ns_flag_is_retired() -> None:
    # The wholesale --min-time-ns flag is gone: min-time floors live in
    # the budgets file now. argparse must reject the old spelling so a
    # stale CI invocation fails loudly instead of being ignored.
    with tempfile.TemporaryDirectory() as tmp:
        argv_backup = sys.argv
        sys.argv = ["bench_diff.py", tmp, tmp, "--min-time-ns", "1e5"]
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    bench_diff.main()
                except SystemExit as err:
                    assert err.code == 2  # argparse usage error
                else:
                    raise AssertionError("--min-time-ns should be rejected")
        finally:
            sys.argv = argv_backup


def test_default_floor_compares_everything() -> None:
    # Without budgets or an explicit floor, even ns-scale rows are
    # compared (the old implicit 0.1 ms skip is gone).
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "baseline"
        _write_run(base / "run-0000", "micro.json", {"bm": 1e3})
        baseline = bench_diff.collect_baseline(base, history=3,
                                               metric="cpu_time")
        new = pathlib.Path(tmp) / "new"
        _write_run(new, "micro.json", {"bm": 3e3})
        compared, regressions, _ = bench_diff.compare(
            baseline, new, threshold=0.15, metric="cpu_time")
        assert compared == 1
        assert [r[0] for r in regressions] == ["micro: bm"]


def test_repo_budgets_cover_every_bench() -> None:
    # Retiring --min-time-ns is only safe if EVERY bench binary has its
    # own budgets entry carrying the noise floor; a new bench_*.cpp
    # without one fails here (carry-over from the PR 5 roadmap).
    root = pathlib.Path(__file__).resolve().parent.parent.parent
    stems = sorted(p.stem for p in (root / "bench").glob("bench_*.cpp"))
    assert stems, "bench sources not found — did the layout move?"
    budgets = bench_diff.load_budgets(
        root / ".github" / "bench_budgets.json")
    missing = [s for s in stems if s not in budgets["benches"]]
    assert not missing, f"benches without a budgets entry: {missing}"
    for stem, entry in budgets["benches"].items():
        if "::" not in stem:
            assert "min_time_ns" in entry, f"{stem}: no min_time_ns floor"


def test_repo_budgets_file_parses() -> None:
    # The budgets file the bench-smoke job actually passes must stay
    # loadable, or the gate dies at argument-parsing time. It must NOT
    # grow a "default" section: that would silently shadow the CLI
    # --threshold (CI's BENCH_REGRESSION_THRESHOLD) for every bench.
    repo_budgets = (pathlib.Path(__file__).resolve().parent.parent
                    / "bench_budgets.json")
    budgets = bench_diff.load_budgets(repo_budgets)
    assert "default" not in budgets
    assert budgets["benches"]["bench_gaussian"]["threshold"] > 0


def test_rows_only_in_baseline_are_noticed() -> None:
    # A bench file or row deleted since the baseline is not compared,
    # but it must show up as a ::notice:: rather than vanish silently,
    # and it never counts as a regression.
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "baseline"
        _write_run(base / "run-0000", "b.json",
                   {"kept": 1e6, "deleted": 1e6,
                    "gone:informational/8": 1e6})
        _write_run(base / "run-0000", "old.json", {"bm": 1e6})
        baseline = bench_diff.collect_baseline(base, history=3,
                                               metric="cpu_time")
        new = pathlib.Path(tmp) / "new"
        _write_run(new, "b.json", {"kept": 1e6, "added": 1e6})
        with contextlib.redirect_stdout(io.StringIO()) as out:
            compared, regressions, _ = bench_diff.compare(
                baseline, new, threshold=0.15, metric="cpu_time")
        text = out.getvalue()
        assert compared == 1
        assert regressions == []
        assert "::notice::old.json: in the baseline only" in text
        assert "::notice::b.json: deleted: in the baseline only" in text
        assert "kept" not in text and "added" not in text
        assert "informational" not in text
        assert "::error::" not in text and "::warning::" not in text


def test_informational_rows_are_skipped() -> None:
    # Rows tagged ":informational" (e.g. thread-scaling rows registered
    # on a single-CPU runner) are measured and archived but never
    # compared — a 3x "regression" there is scheduling noise, not perf.
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "baseline"
        _write_run(base / "run-0000", "b.json",
                   {"bm_scaling:informational/8": 1e6, "bm_real": 1e6})
        baseline = bench_diff.collect_baseline(base, history=3,
                                               metric="cpu_time")
        new = pathlib.Path(tmp) / "new"
        _write_run(new, "b.json",
                   {"bm_scaling:informational/8": 3e6, "bm_real": 3e6})
        compared, regressions, _ = bench_diff.compare(
            baseline, new, threshold=0.15, metric="cpu_time",
            min_time_ns=1e5)
        assert compared == 1
        assert [r[0] for r in regressions] == ["b: bm_real"]


def test_regression_detected_and_improvement_counted() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "baseline"
        _write_run(base / "run-0000", "b.json",
                   {"slow": 1e6, "fast": 1e6, "tiny": 1e3})
        baseline = bench_diff.collect_baseline(base, history=3,
                                              metric="cpu_time")
        new = pathlib.Path(tmp) / "new"
        # slow regresses 50%, fast improves 50%, tiny is below the
        # min-time floor and must be skipped even though it "doubled".
        _write_run(new, "b.json", {"slow": 1.5e6, "fast": 0.5e6, "tiny": 2e3})
        compared, regressions, improvements = bench_diff.compare(
            baseline, new, threshold=0.15, metric="cpu_time",
            min_time_ns=1e5)
        assert compared == 2
        assert len(regressions) == 1
        assert regressions[0][0] == "b: slow"
        assert regressions[0][3] == 1.5
        assert improvements == 1


def test_time_unit_scaling_and_aggregate_rows() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run = pathlib.Path(tmp) / "run"
        _write_run(run, "b.json", {"bm_ms": 2.0}, unit="ms")
        _write_run(run / "agg", "b.json", {"bm_agg": 1.0},
                   run_type="aggregate")
        results = bench_diff.load_results(run / "b.json", "cpu_time")
        assert results["bm_ms"] == 2e6  # 2 ms in ns
        agg = bench_diff.load_results(run / "agg" / "b.json", "cpu_time")
        assert agg == {}  # aggregate rows are skipped


def test_unreadable_json_is_skipped() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bad = pathlib.Path(tmp) / "b.json"
        bad.write_text("{not json")
        # Swallow the ::warning:: line so the CI step that runs this
        # self-test does not grow a spurious workflow annotation.
        with contextlib.redirect_stdout(io.StringIO()) as out:
            results = bench_diff.load_results(bad, "cpu_time")
        assert results == {}
        assert "::warning::" in out.getvalue()


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
