#!/usr/bin/env python3
"""Compare a fresh CI report's exact counts against the committed baseline.

Usage: compare_bench.py BASELINE_JSON FRESH_JSON

Reads the committed ``BENCH_sim_core.json`` and a JSON report just
produced by CI. Only deterministic counts are compared; host time is
measured by ``perfbench/`` in CPU seconds, not here.

A ``fuse_bench --smoke`` report (its ``bench`` field is ``"sim_core"``)
from a ``FUSE_PROF=ON`` build is compared against the baseline's
``profile_baseline`` section: every tracked per-component consult count
must match. Smoke counts are deterministic (single thread, fixed
FUSE_FAST budgets), so any drift means the push changed how often a hot
path runs — which is frequently intentional (that is the point of an
optimisation) but should never be silent. Drift therefore warns, and the
fix is to recommit the baseline with the new counts, stating the delta
in the commit message.

A file produced by ``fuse_serve --stats-out`` (its ``bench`` field is
``"serve"``) is compared against the baseline's ``serve_baseline``
section instead: the CI serve round trip is deterministic (fixed
campaigns against a store built in the same job), so its cache
hit/miss/simulation/retry/failure counters must match the committed
values exactly. Drift warns like the profile counts — the fix is to
recommit ``serve_baseline`` with the new counters and say why.

Exit status is 0 unless a file is unreadable or structurally wrong
(those are CI configuration bugs and should fail loudly): a sim_core
report that is not a ``--smoke`` run or carries no enabled ``profile``
section (a ``FUSE_PROF=OFF`` build), or a baseline without
``profile_baseline``, has nothing comparable in it.

``compare_bench.py --self-test`` runs the comparator against synthetic
in-memory reports (count drift, sites missing from the baseline, sites
missing from the fresh run, structurally wrong reports) and exits
non-zero on any wrong verdict; CI invokes it before trusting the real
comparison.
"""

import json
import sys


def compare_profile(baseline, fresh):
    """Warn on tracked consult-count drift; return the number of drifts.

    Exits (SystemExit) when either side has nothing to compare: a
    baseline without profile_baseline, a fresh report that is not a
    --smoke run, or one without an enabled profile (a FUSE_PROF=OFF
    build).
    """
    base_section = baseline.get("profile_baseline")
    if not base_section:
        sys.exit("baseline: no profile_baseline section — commit one to "
                 "BENCH_sim_core.json (fuse_bench --smoke on a "
                 "FUSE_PROF=ON build)")
    if not fresh.get("smoke"):
        sys.exit("fresh report: not a --smoke run; smoke counts are only "
                 "comparable to smoke counts")
    profile = fresh.get("profile")
    if not profile or not profile.get("enabled"):
        sys.exit("fresh report: no enabled profile section — run "
                 "fuse_bench from a FUSE_PROF=ON build")

    tracked = base_section["counts"]
    # Timer-only sites carry count 0; a tracked counter falling to zero
    # still drifts via the .get(key, 0) default below.
    fresh_counts = {
        f"{site['component']}/{site['name']}": int(site["count"])
        for site in profile["report"]["sites"]
        if int(site["count"]) > 0
    }
    drifted = 0
    for key in sorted(tracked):
        want = int(tracked[key])
        got = fresh_counts.get(key, 0)
        if got == want:
            continue
        drifted += 1
        delta = got - want
        print(f"::warning title=profile consult-count drift::{key}: "
              f"{got} vs committed {want} ({delta:+d}); smoke counts are "
              "deterministic, so this push changed how often the path "
              "runs — if intended, recommit profile_baseline in "
              "BENCH_sim_core.json (fuse_bench --smoke on a "
              "FUSE_PROF=ON build)")
    # The baseline historically only drove the loop above, so a site
    # that existed in the fresh report but not in profile_baseline was
    # mentioned in passing and never escalated. For a component the
    # baseline already tracks, such a site is exactly the kind of silent
    # behaviour change this comparison exists to catch (a new hot path
    # in instrumented code), so it now warns like a drift. Sites of
    # entirely untracked components stay informational: they mean new
    # instrumentation, not changed behaviour of tracked code.
    tracked_components = {key.split("/", 1)[0] for key in tracked}
    new_instrumentation = []
    for key in sorted(set(fresh_counts) - set(tracked)):
        if key.split("/", 1)[0] in tracked_components:
            drifted += 1
            print(f"::warning title=profile site missing from baseline::"
                  f"{key}: {fresh_counts[key]} consults in the fresh run "
                  "but no committed count, although its component is "
                  "tracked — recommit profile_baseline in "
                  "BENCH_sim_core.json (fuse_bench --smoke on a "
                  "FUSE_PROF=ON build)")
        else:
            new_instrumentation.append(key)
    if new_instrumentation:
        print(f"profile: {len(new_instrumentation)} site(s) of untracked "
              "components (new instrumentation?): "
              f"{', '.join(new_instrumentation)}")
    if not drifted:
        print(f"profile: all {len(tracked)} tracked consult counts match "
              "the committed baseline exactly")
    return drifted


def compare_serve(baseline, fresh):
    """Warn on serve-counter drift; return the number of drifts.

    The smoke campaign's counters are deterministic, so every tracked
    ``serve/<name>`` count must match exactly. A counter in the fresh
    stats that the baseline doesn't track warns too (a new counter the
    baseline was never taught about)."""
    base_section = baseline.get("serve_baseline")
    serve = fresh.get("serve")
    if serve is None:
        return 0
    if not base_section:
        print("serve: no committed serve_baseline section — counters "
              "not compared (commit one to BENCH_sim_core.json)")
        return 0

    tracked = base_section["counts"]
    fresh_counts = {f"serve/{name}": int(value)
                    for name, value in serve.items()}
    drifted = 0
    for key in sorted(tracked):
        want = int(tracked[key])
        got = fresh_counts.get(key, 0)
        if got == want:
            continue
        drifted += 1
        delta = got - want
        print(f"::warning title=serve counter drift::{key}: {got} vs "
              f"committed {want} ({delta:+d}); the CI serve round trip "
              "is deterministic, so this push changed the campaign "
              "service's cache behaviour — if intended, recommit "
              "serve_baseline in BENCH_sim_core.json")
    for key in sorted(set(fresh_counts) - set(tracked)):
        drifted += 1
        print(f"::warning title=serve counter missing from baseline::"
              f"{key}: {fresh_counts[key]} in the fresh stats but no "
              "committed value — recommit serve_baseline in "
              "BENCH_sim_core.json")
    if not drifted:
        print(f"serve: all {len(tracked)} tracked counters match the "
              "committed baseline exactly")
    return drifted


def self_test():
    """Exercise compare_profile on synthetic reports; exit 1 on any
    wrong verdict. Keeps CI from trusting a broken comparator."""

    def fresh_with(sites):
        return {"smoke": True, "profile": {"enabled": True, "report": {
            "sites": [{"component": c, "name": n, "count": count}
                      for (c, n, count) in sites]}}}

    def verdict(compare, base, fresh):
        """Warning count, or "exit" when the input is rejected."""
        try:
            return compare(base, fresh)
        except SystemExit:
            return "exit"

    baseline = {"profile_baseline": {"counts": {
        "workload/instructions": 100,
        "workload/batch_generate": 25,
        "l1d/access": 40,
        "mshr/filter_skips": 30,
    }}}
    exact = [("workload", "instructions", 100),
             ("workload", "batch_generate", 25), ("l1d", "access", 40),
             ("mshr", "filter_skips", 30)]
    checks = [
        # (label, fresh sites, expected number of warnings)
        ("exact match is silent", exact, 0),
        ("count drift warns",
         [("workload", "instructions", 101),
          ("workload", "batch_generate", 25), ("l1d", "access", 40),
          ("mshr", "filter_skips", 30)], 1),
        ("tracked site missing from fresh run warns",
         [("workload", "instructions", 100),
          ("workload", "batch_generate", 25),
          ("mshr", "filter_skips", 30)], 1),
        ("fresh site of tracked component missing from baseline warns",
         [("workload", "instructions", 100),
          ("workload", "batch_generate", 25), ("l1d", "access", 40),
          ("mshr", "filter_skips", 30),
          ("workload", "prefetch_refill", 7)], 1),
        ("fresh site of untracked component is informational",
         [("workload", "instructions", 100),
          ("workload", "batch_generate", 25), ("l1d", "access", 40),
          ("mshr", "filter_skips", 30),
          ("noc", "hop", 9)], 0),
        # Presence-filter elision rates are tracked counts like any
        # other: a changed skip count means the gate's behaviour changed
        # and must be recommitted, never silent.
        ("filter-gate skip-count drift warns",
         [("workload", "instructions", 100),
          ("workload", "batch_generate", 25), ("l1d", "access", 40),
          ("mshr", "filter_skips", 29)], 1),
    ]
    # (label, baseline, fresh report); each must be rejected.
    structural = [
        ("disabled profile (FUSE_PROF=OFF build) is an error", baseline,
         {"smoke": True, "profile": {"enabled": False}}),
        ("report without a profile section is an error", baseline,
         {"smoke": True}),
        ("non-smoke report is an error", baseline,
         dict(fresh_with(exact), smoke=False)),
        ("baseline without profile_baseline is an error", {},
         fresh_with(exact)),
    ]
    checks = [(label, baseline, fresh_with(sites), want)
              for label, sites, want in checks]
    checks += [(label, base, fresh, "exit")
               for label, base, fresh in structural]
    failures = 0
    for label, base, fresh, want in checks:
        got = verdict(compare_profile, base, fresh)
        status = "ok" if got == want else "FAIL"
        if got != want:
            failures += 1
        print(f"self-test [{status}]: {label} "
              f"(warnings: got {got}, want {want})")

    serve_baseline = {"serve_baseline": {"counts": {
        "serve/campaigns": 2, "serve/points": 28, "serve/hits": 28,
        "serve/misses": 0, "serve/simulations": 0, "serve/retries": 0,
        "serve/failures": 0,
    }}}
    warm = {"campaigns": 2, "points": 28, "hits": 28, "misses": 0,
            "simulations": 0, "retries": 0, "failures": 0}
    serve_checks = [
        ("serve exact match is silent", serve_baseline,
         {"serve": dict(warm)}, 0),
        ("serve hit-count drift warns", serve_baseline,
         {"serve": dict(warm, hits=27, misses=1, simulations=1)}, 3),
        ("serve retry drift warns", serve_baseline,
         {"serve": dict(warm, retries=2)}, 1),
        ("serve counter missing from baseline warns", serve_baseline,
         {"serve": dict(warm, evictions=1)}, 1),
        ("non-serve stats file is a no-op", serve_baseline,
         {"smoke": True}, 0),
        ("missing serve_baseline is informational", {},
         {"serve": dict(warm)}, 0),
    ]
    for label, base, fresh, want in serve_checks:
        got = verdict(compare_serve, base, fresh)
        status = "ok" if got == want else "FAIL"
        if got != want:
            failures += 1
        print(f"self-test [{status}]: {label} "
              f"(warnings: got {got}, want {want})")
    if failures:
        sys.exit(f"compare_bench.py --self-test: {failures} check(s) "
                 "failed")
    print("self-test: all checks passed")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 3:
        sys.exit(f"usage: {argv[0]} BASELINE_JSON FRESH_JSON "
                 f"| {argv[0]} --self-test")

    with open(argv[1]) as f:
        baseline = json.load(f)
    with open(argv[2]) as f:
        fresh = json.load(f)

    if fresh.get("bench") == "serve":
        if "serve" not in fresh:
            sys.exit(f"{argv[2]}: serve stats without a serve section")
        compare_serve(baseline, fresh)
        return 0

    if fresh.get("bench") != "sim_core":
        sys.exit(f"{argv[2]}: neither a fuse_bench (sim_core) report nor "
                 "fuse_serve stats")
    compare_profile(baseline, fresh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
