"""Tests for tools/check_bench_regression.py -- the perf/quality gate
every merge runs through, which was itself untested until PR 5.

Runs the script as a subprocess (it is a CLI; its exit code IS its
contract): 0 = within thresholds, 1 = regression, 2 = usage/input
error. Written for pytest (registered in ctest when pytest is
available); the __main__ fallback runs the same test functions under
plain python3 so the suite still gates in pytest-less environments.
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")


def make_instance(name, mode_s=0.2, wirelength=1000.0, skew=2.0,
                  modes=("default", "parallel"), rss_mb=100.0):
    inst = {"name": name}
    for m in modes:
        inst[m] = {"seconds": mode_s, "wirelength_um": wirelength, "skew_ps": skew}
    if rss_mb is not None:
        inst["peak_rss_mb"] = rss_mb
    return inst


def make_doc(*instances, calibration_s=1.0):
    doc = {"instances": list(instances)}
    if calibration_s is not None:
        doc["calibration_s"] = calibration_s
    return doc


def run_guard(fresh_doc, baseline_doc, raw_fresh=None):
    with tempfile.TemporaryDirectory() as td:
        fresh = os.path.join(td, "fresh.json")
        base = os.path.join(td, "baseline.json")
        with open(fresh, "w") as f:
            f.write(raw_fresh if raw_fresh is not None else json.dumps(fresh_doc))
        with open(base, "w") as f:
            json.dump(baseline_doc, f)
        proc = subprocess.run([sys.executable, SCRIPT, fresh, base],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


def test_identical_runs_pass():
    doc = make_doc(make_instance("a"), make_instance("b"))
    rc, out = run_guard(doc, doc)
    assert rc == 0, out
    assert "perf guard OK" in out


def test_wall_clock_regression_fails_beyond_15_percent():
    base = make_doc(make_instance("a", mode_s=0.2))
    # Normalized time 0.2 -> 0.24 (+20% > 15%) on a mode above the
    # per-instance floor, at equal calibration.
    fresh = make_doc(make_instance("a", mode_s=0.24))
    rc, out = run_guard(fresh, base)
    assert rc == 1, out
    assert "wall-clock" in out


def test_wall_clock_within_15_percent_passes():
    base = make_doc(make_instance("a", mode_s=0.2))
    fresh = make_doc(make_instance("a", mode_s=0.22))  # +10%
    rc, out = run_guard(fresh, base)
    assert rc == 0, out


def test_machine_speed_is_normalized_out():
    base = make_doc(make_instance("a", mode_s=0.2), calibration_s=1.0)
    # A machine 2x slower across the board -- calibration kernel and
    # every mode alike -- must not trip the guard.
    fresh = make_doc(make_instance("a", mode_s=0.4), calibration_s=2.0)
    rc, out = run_guard(fresh, base)
    assert rc == 0, out


def test_slower_machine_does_not_hide_a_regression():
    base = make_doc(make_instance("a", mode_s=0.2), calibration_s=1.0)
    # 2x slower machine, but the modes slowed 2.4x: +20% normalized.
    fresh = make_doc(make_instance("a", mode_s=0.48), calibration_s=2.0)
    rc, out = run_guard(fresh, base)
    assert rc == 1, out
    assert "x calibration" in out


def test_fresh_without_calibration_is_a_usage_error():
    base = make_doc(make_instance("a"))
    for cal in (None, 0.0):  # absent, or not a positive number
        fresh = make_doc(make_instance("a"), calibration_s=cal)
        rc, out = run_guard(fresh, base)
        assert rc == 2, out
        assert "calibration_s" in out


def test_baseline_without_calibration_skips_wall_clock_with_a_note():
    base = make_doc(make_instance("a", mode_s=0.2), calibration_s=None)
    fresh = make_doc(make_instance("a", mode_s=0.4, wirelength=1040.0))
    rc, out = run_guard(fresh, base)
    assert rc == 1, out  # the wirelength gate still runs
    assert "wall-clock checks skipped" in out
    assert "wall-clock 0" not in out


def test_wirelength_regression_fails_beyond_3_percent():
    base = make_doc(make_instance("a", wirelength=1000.0))
    fresh = make_doc(make_instance("a", wirelength=1040.0))  # +4% > 3%
    rc, out = run_guard(fresh, base)
    assert rc == 1, out
    assert "wirelength" in out


def test_skew_gate_fails_beyond_one_picosecond():
    base = make_doc(make_instance("a", skew=2.0))
    fresh = make_doc(make_instance("a", skew=3.5))  # +1.5 ps > 1 ps
    rc, out = run_guard(fresh, base)
    assert rc == 1, out
    assert "skew" in out


def test_skew_gate_covers_every_mode():
    base = make_doc(make_instance("a", modes=("parallel",), skew=2.0))
    fresh = make_doc(make_instance("a", modes=("parallel",), skew=3.5))
    rc, out = run_guard(fresh, base)
    assert rc == 1, out
    assert "a/parallel: refined skew" in out


def test_skew_within_one_picosecond_passes():
    base = make_doc(make_instance("a", skew=2.0))
    fresh = make_doc(make_instance("a", skew=2.9))
    rc, out = run_guard(fresh, base)
    assert rc == 0, out


def test_missing_instances_and_modes_are_skipped_not_failed():
    base = make_doc(make_instance("a"), make_instance("gone"))
    fresh = make_doc(make_instance("a"))
    rc, out = run_guard(fresh, base)
    assert rc == 0, out
    assert "skipped" in out


def test_missing_wirelength_column_is_flagged_not_fatal():
    # A mode record from another harness version can lack the
    # wirelength column; the gate must warn and keep checking the
    # other metrics instead of crashing.
    base = make_doc(make_instance("a", modes=("default", "parallel")))
    fresh = make_doc(make_instance("a", modes=("default", "parallel")))
    del fresh["instances"][0]["parallel"]["wirelength_um"]
    rc, out = run_guard(fresh, base)
    assert rc == 0, out
    assert "missing wirelength_um in fresh" in out
    assert "Traceback" not in out


def test_missing_column_does_not_mask_other_regressions():
    base = make_doc(make_instance("a", modes=("default", "parallel"),
                                        wirelength=1000.0))
    fresh = make_doc(make_instance("a", modes=("default", "parallel"),
                                         wirelength=1040.0))  # default regresses
    del fresh["instances"][0]["parallel"]["wirelength_um"]
    rc, out = run_guard(fresh, base)
    assert rc == 1, out
    assert "a/default: wirelength" in out
    assert "missing wirelength_um" in out


def test_missing_seconds_column_is_flagged_not_fatal():
    base = make_doc(make_instance("a", modes=("default",)))
    fresh = make_doc(make_instance("a", modes=("default",)))
    del fresh["instances"][0]["default"]["seconds"]
    rc, out = run_guard(fresh, base)
    assert rc == 0, out
    assert "missing seconds in fresh" in out
    assert "Traceback" not in out


def test_peak_rss_regression_fails_beyond_25_percent():
    base = make_doc(make_instance("a", rss_mb=100.0))
    fresh = make_doc(make_instance("a", rss_mb=130.0))  # +30% > 25%
    rc, out = run_guard(fresh, base)
    assert rc == 1, out
    assert "peak RSS" in out


def test_peak_rss_within_25_percent_passes():
    base = make_doc(make_instance("a", rss_mb=100.0))
    fresh = make_doc(make_instance("a", rss_mb=120.0))  # +20%
    rc, out = run_guard(fresh, base)
    assert rc == 0, out


def test_old_baseline_without_rss_column_is_tolerated_and_flagged():
    # Baselines committed before the peak_rss_mb column existed must
    # not break the gate -- the skip is announced, never silent, and
    # the other metrics keep being checked.
    base = make_doc(make_instance("a", rss_mb=None))
    fresh = make_doc(make_instance("a", rss_mb=500.0))
    rc, out = run_guard(fresh, base)
    assert rc == 0, out
    assert "no peak_rss_mb column" in out
    assert "RSS check skipped" in out
    assert "Traceback" not in out


def test_old_baseline_without_rss_does_not_mask_other_regressions():
    base = make_doc(make_instance("a", rss_mb=None, wirelength=1000.0))
    fresh = make_doc(make_instance("a", rss_mb=500.0, wirelength=1040.0))
    rc, out = run_guard(fresh, base)
    assert rc == 1, out
    assert "wirelength" in out
    assert "RSS check skipped" in out


def test_empty_but_wellformed_document_is_a_usage_error():
    # An interrupted harness or renamed instances must not produce a
    # green gate with zero checks.
    base = make_doc(make_instance("a"))
    rc, out = run_guard(make_doc(), base)
    assert rc == 2, out
    assert "no comparable" in out


def test_malformed_json_is_a_usage_error():
    base = make_doc(make_instance("a"))
    rc, out = run_guard(None, base, raw_fresh="{not json")
    assert rc == 2, out


# --- serve harness gate (optional second argument pair) ---------------------

def make_serve(worker_rps, failed=0, rejected=0, identical=True):
    return {"benchmark": "ctsim_serve", "nproc": 4,
            "workers": [{"workers": w, "requests_per_s": rps,
                         "p50_ms": 10.0, "p99_ms": 20.0,
                         "served_ok": 48, "failed": failed,
                         "rejected": rejected, "degraded": 0}
                        for w, rps in worker_rps],
            "all_identical": identical}


def run_guard_with_serve(serve_fresh, serve_base, raw_serve_base=None,
                         serve_base_missing=False):
    doc = make_doc(make_instance("a"))
    with tempfile.TemporaryDirectory() as td:
        paths = {n: os.path.join(td, n + ".json")
                 for n in ("fresh", "base", "sfresh", "sbase")}
        with open(paths["fresh"], "w") as f:
            json.dump(doc, f)
        with open(paths["base"], "w") as f:
            json.dump(doc, f)
        with open(paths["sfresh"], "w") as f:
            json.dump(serve_fresh, f)
        if not serve_base_missing:
            with open(paths["sbase"], "w") as f:
                f.write(raw_serve_base if raw_serve_base is not None
                        else json.dumps(serve_base))
        proc = subprocess.run(
            [sys.executable, SCRIPT, paths["fresh"], paths["base"],
             paths["sfresh"], paths["sbase"]],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


def test_serve_identical_runs_pass():
    doc = make_serve([(1, 10.0), (2, 18.0), (4, 32.0)])
    rc, out = run_guard_with_serve(doc, doc)
    assert rc == 0, out


def test_serve_missing_baseline_is_noted_and_skipped():
    # The PR that introduces the serve harness has no committed
    # baseline yet; the guard must flag the skip, not crash or fail.
    fresh = make_serve([(1, 10.0), (2, 18.0)])
    rc, out = run_guard_with_serve(fresh, None, serve_base_missing=True)
    assert rc == 0, out
    assert "serve baseline unusable" in out
    assert "Traceback" not in out


def test_serve_empty_baseline_is_noted_and_skipped():
    fresh = make_serve([(1, 10.0), (2, 18.0)])
    rc, out = run_guard_with_serve(fresh, {})
    assert rc == 0, out
    assert "serve baseline unusable" in out


def test_serve_malformed_baseline_is_noted_and_skipped():
    fresh = make_serve([(1, 10.0), (2, 18.0)])
    rc, out = run_guard_with_serve(fresh, None, raw_serve_base="{not json")
    assert rc == 0, out
    assert "serve baseline unusable" in out
    assert "Traceback" not in out


def test_serve_fresh_failures_fail_even_without_baseline():
    fresh = make_serve([(1, 10.0), (2, 18.0)], failed=2)
    rc, out = run_guard_with_serve(fresh, None, serve_base_missing=True)
    assert rc == 1, out
    assert "failed" in out


def test_serve_fresh_rejections_fail():
    fresh = make_serve([(1, 10.0), (2, 18.0)], rejected=1)
    rc, out = run_guard_with_serve(fresh, fresh)
    assert rc == 1, out
    assert "rejected" in out


def test_serve_identity_violation_fails():
    fresh = make_serve([(1, 10.0), (2, 18.0)], identical=False)
    rc, out = run_guard_with_serve(fresh, fresh)
    assert rc == 1, out
    assert "bit-identical" in out


def test_serve_scaling_regression_fails():
    base = make_serve([(1, 10.0), (4, 32.0)])   # 3.2x at 4 workers
    fresh = make_serve([(1, 10.0), (4, 25.0)])  # 2.5x: -22% > 15%
    rc, out = run_guard_with_serve(fresh, base)
    assert rc == 1, out
    assert "scaling" in out


def test_serve_scaling_is_normalized_against_machine_speed():
    base = make_serve([(1, 10.0), (4, 32.0)])
    # A 2x slower machine with the same scaling SHAPE must pass.
    fresh = make_serve([(1, 5.0), (4, 16.0)])
    rc, out = run_guard_with_serve(fresh, base)
    assert rc == 0, out


def test_serve_mismatched_worker_counts_are_skipped():
    # Baseline from an 8-core box, fresh from a 4-core box: the
    # 8-worker row has no counterpart and must be skipped, not failed.
    base = make_serve([(1, 10.0), (8, 60.0)])
    fresh = make_serve([(1, 10.0), (4, 32.0)])
    rc, out = run_guard_with_serve(fresh, base)
    assert rc == 0, out
    assert "skipped" in out


def test_serve_malformed_fresh_is_a_usage_error():
    rc, out = run_guard_with_serve(None, make_serve([(1, 10.0)]))
    assert rc == 2, out
    assert "cannot load fresh serve" in out
    assert "cannot load" in out


# --- scenario harness gate (optional third argument pair) -------------------

def make_scenario(cost_ratio=2.0, yield_at=0.8, identical=True,
                  instance="scal_n800", samples=64):
    return {"benchmark": "ctsim_scenario", "instance": instance,
            "sinks": 800, "samples": samples,
            "nominal_wall_s": 0.1, "mc_wall_s": 0.1 * cost_ratio,
            "mc_cost_ratio": cost_ratio,
            "samples_per_s": samples / (0.1 * cost_ratio),
            "skew_target_ps": 10.0, "yield_at_target": yield_at,
            "nominal_skew_ps": 3.0, "threads_identical": identical}


def run_guard_with_scenario(sc_fresh, sc_base, raw_sc_base=None,
                            sc_base_missing=False):
    doc = make_doc(make_instance("a"))
    serve = make_serve([(1, 10.0), (2, 18.0)])
    with tempfile.TemporaryDirectory() as td:
        paths = {n: os.path.join(td, n + ".json")
                 for n in ("fresh", "base", "sfresh", "sbase", "cfresh", "cbase")}
        for name, payload in (("fresh", doc), ("base", doc),
                              ("sfresh", serve), ("sbase", serve)):
            with open(paths[name], "w") as f:
                json.dump(payload, f)
        with open(paths["cfresh"], "w") as f:
            json.dump(sc_fresh, f)
        if not sc_base_missing:
            with open(paths["cbase"], "w") as f:
                f.write(raw_sc_base if raw_sc_base is not None
                        else json.dumps(sc_base))
        proc = subprocess.run(
            [sys.executable, SCRIPT, paths["fresh"], paths["base"],
             paths["sfresh"], paths["sbase"], paths["cfresh"], paths["cbase"]],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


def test_scenario_identical_runs_pass():
    doc = make_scenario()
    rc, out = run_guard_with_scenario(doc, doc)
    assert rc == 0, out


def test_scenario_missing_baseline_is_noted_and_skipped():
    # The PR that introduces the scenario harness has no committed
    # baseline yet; the guard must flag the skip, not crash or fail.
    rc, out = run_guard_with_scenario(make_scenario(), None,
                                      sc_base_missing=True)
    assert rc == 0, out
    assert "scenario baseline unusable" in out
    assert "Traceback" not in out


def test_scenario_malformed_baseline_is_noted_and_skipped():
    rc, out = run_guard_with_scenario(make_scenario(), None,
                                      raw_sc_base="{not json")
    assert rc == 0, out
    assert "scenario baseline unusable" in out
    assert "Traceback" not in out


def test_scenario_identity_violation_fails_even_without_baseline():
    rc, out = run_guard_with_scenario(make_scenario(identical=False), None,
                                      sc_base_missing=True)
    assert rc == 1, out
    assert "bit-identical" in out


def test_scenario_cost_ceiling_fails_even_without_baseline():
    # The < 3x contract is absolute, not a trend vs baseline.
    rc, out = run_guard_with_scenario(make_scenario(cost_ratio=3.4), None,
                                      sc_base_missing=True)
    assert rc == 1, out
    assert "mc_cost_ratio" in out


def test_scenario_yield_regression_fails():
    base = make_scenario(yield_at=0.85)
    fresh = make_scenario(yield_at=0.80)
    rc, out = run_guard_with_scenario(fresh, base)
    assert rc == 1, out
    assert "yield" in out


def test_scenario_yield_improvement_passes():
    base = make_scenario(yield_at=0.80)
    fresh = make_scenario(yield_at=0.85)
    rc, out = run_guard_with_scenario(fresh, base)
    assert rc == 0, out


def test_scenario_cost_ratio_regression_fails_beyond_15_percent():
    base = make_scenario(cost_ratio=2.0)
    fresh = make_scenario(cost_ratio=2.4)  # +20% > 15%, still < 3x ceiling
    rc, out = run_guard_with_scenario(fresh, base)
    assert rc == 1, out
    assert "mc_cost_ratio" in out


def test_scenario_cost_ratio_within_15_percent_passes():
    base = make_scenario(cost_ratio=2.0)
    fresh = make_scenario(cost_ratio=2.2)  # +10%
    rc, out = run_guard_with_scenario(fresh, base)
    assert rc == 0, out


def test_scenario_quick_fresh_vs_full_baseline_is_skipped():
    # A quick (CI smoke) fresh run is a different instance/sample
    # count; the trend gate must skip it with a note, not compare.
    base = make_scenario(instance="scal_n800", samples=64, yield_at=0.99)
    fresh = make_scenario(instance="scal_n200", samples=16, yield_at=0.50)
    rc, out = run_guard_with_scenario(fresh, base)
    assert rc == 0, out
    assert "not comparable" in out


def test_scenario_malformed_fresh_is_a_usage_error():
    rc, out = run_guard_with_scenario(None, make_scenario())
    assert rc == 2, out
    assert "cannot load fresh scenario" in out


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failures else 0)
