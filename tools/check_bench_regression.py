#!/usr/bin/env python3
"""Perf-regression guard over BENCH_synth.json.

Compares a freshly produced BENCH_synth.json against the committed
baseline and fails (exit 1) when any instance regresses beyond the
thresholds:

  * wall-clock: > 15% on any mode's NORMALIZED time. Raw seconds are
    not comparable across machines (the committed baseline comes from
    a different box than the CI runner), so each mode's seconds are
    divided by the same file's top-level `calibration_s` first -- the
    time of a fixed CPU kernel in the harness that calls nothing in
    the library, so the yardstick cannot move with the code. A fresh
    file without a positive calibration_s is a usage error; a
    baseline without one skips the wall-clock checks with a note.
  * wirelength: > 3% on any mode (solution quality; machine
    independent, so compared raw).
  * peak RSS: > 25% on an instance's `peak_rss_mb` high-water (the
    footprint is a property of the algorithm's working set, far less
    machine-sensitive than wall-clock). Baselines written before the
    column existed are tolerated: the missing column is flagged with a
    note and the check skipped, never counted as a pass.
  * refined skew: every mode is the shipped default, which carries
    the top-down skew-refinement clamp; any instance whose skew
    exceeds the committed baseline's by more than SKEW_SLACK_PS fails
    (machine independent, compared raw).

Instances or modes present in only one file are reported and skipped
(the guard must not block adding instances/modes). Per-instance
wall-clock checks apply only above MIN_SECONDS of baseline time --
below that the comparison measures timer noise, not the algorithm --
and every mode additionally gets an AGGREGATE check over the summed
normalized time of all its instances, which is noise-robust and
covers the fast instances the per-instance floor skips.

An optional second pair of arguments gates BENCH_serve.json (the
serving throughput harness):

  * a missing, empty or malformed serve BASELINE is flagged with a
    note and the serve gate skipped (baselines predate the harness;
    the guard must not block the PR that introduces it) -- but a
    missing/malformed FRESH serve file is a usage error: the harness
    was supposed to have just produced it;
  * the fresh run must report zero failed and zero rejected requests
    and all_identical=true (the burst is sized to never saturate, so
    any of these is a serving bug, not a perf question);
  * throughput is only compared worker-count against worker-count and
    NORMALIZED by the same run's 1-worker throughput (raw req/s is
    machine speed; the scaling shape is the algorithm). Worker counts
    present in only one file (different nproc) are skipped with a
    note.

An optional third pair of arguments gates BENCH_scenario.json (the
scenario analysis harness):

  * a missing, empty or malformed scenario BASELINE is flagged with a
    note and the trend gate skipped (baselines predate the harness),
    while a missing/malformed FRESH scenario file is a usage error;
  * the fresh run must report threads_identical=true (the yield curve
    is contractually bit-identical at any fan-out width) and an
    mc_cost_ratio below MC_COST_CEILING (synthesize-once + re-time
    must stay cheap relative to one synthesis -- the ratio is already
    machine-normalized, wall over wall on the same box);
  * yield_at_target must not drop below the baseline's (solution
    robustness; machine independent, compared raw);
  * sampling throughput is gated on mc_cost_ratio, not raw samples/s
    (raw samples/s is machine speed; the ratio to one synthesis is
    the algorithm), at the usual 15%. Fresh/baseline files from
    different instances or sample counts are skipped with a note.

usage: check_bench_regression.py <fresh.json> <baseline.json>
           [<serve_fresh.json> <serve_baseline.json>
            [<scenario_fresh.json> <scenario_baseline.json>]]
"""

import json
import sys

TIME_REGRESSION = 1.15
WIRELENGTH_REGRESSION = 1.03
MIN_SECONDS = 0.05
SKEW_SLACK_PS = 1.0
RSS_REGRESSION = 1.25


def by_name(doc):
    return {inst["name"]: inst for inst in doc.get("instances", [])}


def calibration(doc):
    """The file's calibration-kernel seconds, or None when absent or
    not a positive number."""
    c = doc.get("calibration_s") if isinstance(doc, dict) else None
    if isinstance(c, (int, float)) and not isinstance(c, bool) and c > 0:
        return float(c)
    return None


def mode_keys(inst):
    return [k for k, v in inst.items() if isinstance(v, dict) and "seconds" in v]


SERVE_SCALING_REGRESSION = 1.15


def check_serve(fresh_path, base_path, failures):
    """Gate the serving harness pair. Returns checks performed, or a
    negative value for a usage error (malformed FRESH file)."""
    try:
        fresh = json.load(open(fresh_path))
        if not isinstance(fresh, dict):
            raise ValueError("top-level value is not an object")
    except (OSError, ValueError) as exc:
        # The fresh file is produced by the run being gated; its
        # absence or corruption is a harness failure, not a skip.
        print(f"error: cannot load fresh serve JSON: {exc}")
        return -1
    checked = 0

    # Correctness gates on the fresh run stand alone -- they need no
    # baseline, and they are the serving contract, not a perf trend.
    checked += 1
    for run in fresh.get("workers", []):
        if run.get("failed", 0) or run.get("rejected", 0):
            failures.append(
                f"serve/workers={run.get('workers')}: {run.get('failed', 0)} "
                f"failed, {run.get('rejected', 0)} rejected (burst is sized to "
                f"never saturate; a shared-pool serving bug)")
    if not fresh.get("all_identical", False):
        failures.append("serve: responses not bit-identical across worker counts")

    try:
        base = json.load(open(base_path))
        if not isinstance(base, dict) or not base.get("workers"):
            raise ValueError("no worker runs in baseline")
    except (OSError, ValueError) as exc:
        # Baselines committed before the serve harness existed (or an
        # intentionally empty placeholder) must not block the gate --
        # but the skip is flagged so it can be audited.
        print(f"note: serve baseline unusable ({exc}); scaling gate skipped")
        return checked

    def normalized(doc):
        runs = {r.get("workers"): r.get("requests_per_s", 0.0)
                for r in doc.get("workers", [])}
        one = runs.get(1, 0.0)
        if one <= 0:
            return {}
        return {w: rps / one for w, rps in runs.items() if w != 1 and rps > 0}

    fnorm, bnorm = normalized(fresh), normalized(base)
    for w in sorted(bnorm):
        if w not in fnorm:
            print(f"note: serve worker count {w} missing from fresh run "
                  f"(different nproc?), skipped")
            continue
        checked += 1
        if fnorm[w] < bnorm[w] / SERVE_SCALING_REGRESSION:
            failures.append(
                f"serve/workers={w}: scaling vs 1 worker {bnorm[w]:.2f}x -> "
                f"{fnorm[w]:.2f}x "
                f"(-{100.0 * (1.0 - fnorm[w] / bnorm[w]):.1f}% > "
                f"{100.0 * (SERVE_SCALING_REGRESSION - 1.0):.0f}%)")
    return checked


MC_COST_CEILING = 3.0
SCENARIO_COST_REGRESSION = 1.15


def check_scenario(fresh_path, base_path, failures):
    """Gate the scenario harness pair. Returns checks performed, or a
    negative value for a usage error (malformed FRESH file)."""
    try:
        fresh = json.load(open(fresh_path))
        if not isinstance(fresh, dict):
            raise ValueError("top-level value is not an object")
    except (OSError, ValueError) as exc:
        print(f"error: cannot load fresh scenario JSON: {exc}")
        return -1
    checked = 0

    # Correctness gates on the fresh run stand alone -- they are the
    # scenario contract (docs/scenarios.md), not a perf trend.
    checked += 1
    if not fresh.get("threads_identical", False):
        failures.append(
            "scenario: yield curve not bit-identical across fan-out widths")
    ratio = fresh.get("mc_cost_ratio")
    if ratio is None:
        print("warning: fresh scenario run missing mc_cost_ratio; "
              "cost-contract check skipped")
    else:
        checked += 1
        if ratio >= MC_COST_CEILING:
            failures.append(
                f"scenario: mc_cost_ratio {ratio:.2f}x >= {MC_COST_CEILING:.0f}x "
                f"(MC sampling must cost less than {MC_COST_CEILING:.0f} "
                f"nominal syntheses)")

    try:
        base = json.load(open(base_path))
        if not isinstance(base, dict) or "yield_at_target" not in base:
            raise ValueError("no scenario metrics in baseline")
    except (OSError, ValueError) as exc:
        print(f"note: scenario baseline unusable ({exc}); trend gate skipped")
        return checked

    if (fresh.get("instance") != base.get("instance")
            or fresh.get("samples") != base.get("samples")):
        print(f"note: scenario fresh/baseline not comparable "
              f"({fresh.get('instance')}/{fresh.get('samples')} vs "
              f"{base.get('instance')}/{base.get('samples')}; quick run?), "
              f"trend gate skipped")
        return checked

    fy, by = fresh.get("yield_at_target"), base.get("yield_at_target")
    if fy is None:
        print("warning: fresh scenario run missing yield_at_target; "
              "yield check skipped")
    else:
        checked += 1
        if fy < by:
            failures.append(
                f"scenario: yield(skew<=target) {by:.4f} -> {fy:.4f} "
                f"(robustness under variation regressed)")

    bratio = base.get("mc_cost_ratio")
    if ratio is not None and bratio is not None and bratio > 0:
        checked += 1
        if ratio > bratio * SCENARIO_COST_REGRESSION:
            failures.append(
                f"scenario: mc_cost_ratio {bratio:.2f}x -> {ratio:.2f}x "
                f"(+{100.0 * (ratio / bratio - 1.0):.1f}% > "
                f"{100.0 * (SCENARIO_COST_REGRESSION - 1.0):.0f}%)")
    return checked


def main():
    if len(sys.argv) not in (3, 5, 7):
        print(__doc__)
        return 2
    try:
        fresh_doc = json.load(open(sys.argv[1]))
        base_doc = json.load(open(sys.argv[2]))
        fresh, base = by_name(fresh_doc), by_name(base_doc)
    except (OSError, ValueError) as exc:
        # A malformed or missing input must fail loudly as a usage
        # error (exit 2), not masquerade as a pass/regression verdict.
        print(f"error: cannot load benchmark JSON: {exc}")
        return 2
    fcal = calibration(fresh_doc)
    if fcal is None:
        # The harness that just ran writes the yardstick; without it
        # no wall-clock verdict is possible.
        print("error: fresh benchmark JSON has no positive calibration_s")
        return 2
    bcal = calibration(base_doc)
    if bcal is None:
        print("note: baseline has no calibration_s (written before the "
              "calibration kernel); wall-clock checks skipped")

    failures = []
    checked = 0
    if len(sys.argv) >= 5:
        serve_checked = check_serve(sys.argv[3], sys.argv[4], failures)
        if serve_checked < 0:
            return 2
        checked += serve_checked
    if len(sys.argv) == 7:
        scenario_checked = check_scenario(sys.argv[5], sys.argv[6], failures)
        if scenario_checked < 0:
            return 2
        checked += scenario_checked
    agg = {}  # mode -> [fresh_norm_sum, base_norm_sum]
    for name, b in base.items():
        f = fresh.get(name)
        if f is None:
            print(f"note: instance {name} missing from fresh run, skipped")
            continue

        # Peak-RSS gate. Old baselines predate the column: tolerate
        # them with a visible note (so the skip can be audited) and
        # without counting the skip as a passing check.
        frss, brss = f.get("peak_rss_mb"), b.get("peak_rss_mb")
        if brss is None:
            print(f"note: {name} baseline has no peak_rss_mb column "
                  f"(written before the RSS gate); RSS check skipped")
        elif frss is None:
            print(f"warning: {name} missing peak_rss_mb in fresh run; "
                  f"RSS check skipped")
        else:
            checked += 1
            if brss > 0 and frss > brss * RSS_REGRESSION:
                failures.append(
                    f"{name}: peak RSS {brss:.1f} -> {frss:.1f} MB "
                    f"(+{100.0 * (frss / brss - 1.0):.1f}% > "
                    f"{100.0 * (RSS_REGRESSION - 1.0):.0f}%)")
        for mode in mode_keys(b):
            if mode not in f:
                print(f"note: {name}/{mode} missing from fresh run, skipped")
                continue
            fm, bm = f[mode], b[mode]
            checked += 1

            # A mode record from another harness version (or a
            # hand-edited file) can lack a column. Flag it loudly and
            # skip the affected metric instead of crashing the gate --
            # but never count it as a passing comparison.
            fw, bw = fm.get("wirelength_um"), bm.get("wirelength_um")
            if fw is None or bw is None:
                side = "fresh" if fw is None else "baseline"
                print(f"warning: {name}/{mode} missing wirelength_um in {side} "
                      f"run; wirelength check skipped")
            elif bw > 0 and fw > bw * WIRELENGTH_REGRESSION:
                failures.append(
                    f"{name}/{mode}: wirelength {bw:.0f} -> {fw:.0f} um "
                    f"(+{100.0 * (fw / bw - 1.0):.1f}% > "
                    f"{100.0 * (WIRELENGTH_REGRESSION - 1.0):.0f}%)")

            fs, bs = fm.get("skew_ps", 0.0), bm.get("skew_ps", 0.0)
            if fs > bs + SKEW_SLACK_PS:
                failures.append(
                    f"{name}/{mode}: refined skew {bs:.2f} -> {fs:.2f} ps "
                    f"(> baseline + {SKEW_SLACK_PS:.0f} ps; the refinement "
                    f"clamp regressed)")

            if bcal is None:
                continue
            if "seconds" not in fm:
                print(f"warning: {name}/{mode} missing seconds in fresh run; "
                      f"wall-clock check skipped")
                continue
            fnorm = fm["seconds"] / fcal
            bnorm = bm["seconds"] / bcal
            a = agg.setdefault(mode, [0.0, 0.0])
            a[0] += fnorm
            a[1] += bnorm
            if bm["seconds"] < MIN_SECONDS:
                continue  # per-instance check floors out; aggregate still sees it
            if fnorm > bnorm * TIME_REGRESSION:
                failures.append(
                    f"{name}/{mode}: normalized wall-clock {bnorm:.3f} -> {fnorm:.3f} "
                    f"(x calibration; +{100.0 * (fnorm / bnorm - 1.0):.1f}% > "
                    f"{100.0 * (TIME_REGRESSION - 1.0):.0f}%)")

    for mode, (fsum, bsum) in sorted(agg.items()):
        checked += 1
        if bsum > 0 and fsum > bsum * TIME_REGRESSION:
            failures.append(
                f"aggregate/{mode}: summed normalized wall-clock {bsum:.3f} -> "
                f"{fsum:.3f} (+{100.0 * (fsum / bsum - 1.0):.1f}% > "
                f"{100.0 * (TIME_REGRESSION - 1.0):.0f}%)")

    if failures:
        print(f"PERF REGRESSION ({len(failures)} failure(s) over {checked} checks):")
        for fmsg in failures:
            print("  " + fmsg)
        return 1
    if checked == 0:
        # A well-formed document with nothing comparable (interrupted
        # harness, renamed instances/modes) must not masquerade as a
        # green gate.
        print("error: no comparable instance/mode pairs between fresh and baseline")
        return 2
    print(f"perf guard OK: {checked} instance/mode checks within thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
