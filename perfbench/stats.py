"""Arithmetic of the FUSE benchmark: latency summaries, paper-gap formulas
and failure accounting. Everything here is pure so test_stats.py can pin it.
"""

import math
import statistics

# Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample_count). The value is the sorted
    sample at index n - TAIL_BEYOND - 1; the percentile is the share of
    samples at or below that index.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    index = n - TAIL_BEYOND - 1
    return sorted(values)[index], 100.0 * (index + 1) / n, n


def geomean(values):
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean_reduction(baseline, candidate):
    """mean_b(1 - candidate_b / baseline_b) over paired per-benchmark values."""
    if len(baseline) != len(candidate) or not baseline:
        raise ValueError("mean_reduction needs equal, non-empty series")
    return statistics.fmean(1.0 - c / b for b, c in zip(baseline, candidate))


def relative_gap(measured, paper):
    """|measured - paper| / paper, for a paper value given as a ratio."""
    return abs(measured - paper) / paper


def absolute_gap(measured, paper):
    """|measured - paper|, for a paper value given as a fraction."""
    return abs(measured - paper)


def paper_comparison(rows, reference):
    """Measured headline aggregates and their gaps to the paper.

    rows: per-benchmark dicts with "ipc", "offchip" and "energy" pairs,
    each [L1-SRAM, Dy-FUSE]. reference: the "claims" object of
    paper_reference.json.
    """
    def series(key, column):
        return [row[key][column] for row in rows]

    speedup = geomean([d / b for b, d in zip(series("ipc", 0),
                                             series("ipc", 1))])
    offchip = mean_reduction(series("offchip", 0), series("offchip", 1))
    energy = mean_reduction(series("energy", 0), series("energy", 1))
    return {
        "ipc_speedup": speedup,
        "offchip_reduction": offchip,
        "energy_reduction": energy,
        "gap_ipc_speedup": relative_gap(
            speedup, reference["ipc_speedup"]["value"]),
        "gap_offchip_reduction": absolute_gap(
            offchip, reference["offchip_reduction"]["value"]),
        "gap_energy_reduction": absolute_gap(
            energy, reference["energy_reduction"]["value"]),
    }


def failure_accounting(raw):
    """(attempted, failed) for one process's raw record.

    Attempted operations are the grid points requested plus the checks
    run. Failures are invalid or short points, failed checks, and points
    the campaign service retried or gave up on.
    """
    checks = raw["checks"]
    attempted = raw["points"] + len(checks)
    failed = (raw["invalid_runs"]
              + sum(1 for ok in checks.values() if not ok)
              + raw["serve_failures"] + raw["serve_retries"])
    return attempted, failed


def end_to_end(raw, setup_samples, comparison):
    """Every end-to-end metric of one untraced run, plus details.

    Host time is CPU time, so time the hypervisor gives the vCPUs to other
    guests does not count. The details keep the wall-clock figures.
    """
    run_tail, run_pct, run_n = tail(raw["run_cpu_ms"])
    wall_tail, wall_pct, _ = tail(raw["run_ms"])
    cpu = raw["cpu_s"]
    metrics = {
        "setup_s": median(setup_samples),
        "points_per_cpu_s": raw["points"] / cpu,
        "sim_minstr_per_cpu_s": raw["sim_instructions"] / 1e6 / cpu,
        "run_cpu_ms_p50": median(raw["run_cpu_ms"]),
        "run_cpu_ms_tail": run_tail,
        "campaign_cpu_ms_p50": median(raw["campaign_cpu_ms"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "gap_ipc_speedup": comparison["gap_ipc_speedup"],
        "gap_energy_reduction": comparison["gap_energy_reduction"],
    }
    details = {
        "run_cpu_ms_tail": {"percentile": run_pct, "samples": run_n},
        "run_cpu_ms_p50": {"samples": run_n},
        "campaign_cpu_ms_p50": {"samples": len(raw["campaign_cpu_ms"])},
        "setup_s": {"samples": len(setup_samples)},
        "wall": {
            "points_per_s": raw["points"] / raw["busy_s"],
            "run_ms_p50": median(raw["run_ms"]),
            "run_ms_tail": wall_tail,
            "run_ms_tail_percentile": wall_pct,
            "campaign_ms_p50": median(raw["campaign_ms"]),
        },
    }
    return metrics, details


def trace_overhead_pct(untraced, traced):
    """CPU time per point of the traced (counting) run over the untraced
    one, as a percentage."""
    untraced_rate = untraced["points"] / untraced["cpu_s"]
    traced_rate = traced["points"] / traced["cpu_s"]
    return 100.0 * (untraced_rate / traced_rate - 1.0)
