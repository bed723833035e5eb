/**
 * @file
 * fuse_bench: the simulation core's exact-count harness. Sweeps one paper
 * figure's grid through SweepRunner and writes the sweep's per-component
 * profiling attribution (src/prof: event counts, exclusive time, derived
 * per-run rates) as JSON, with the heaviest sites and one elision line
 * per presence-filter gate on stderr. The counts are deterministic for a
 * fixed grid and budget, so CI compares a --smoke run's counts exactly
 * against the profile_baseline committed in BENCH_sim_core.json
 * (tools/ci/compare_bench.py). Host time is measured in CPU seconds by
 * perfbench/, not here.
 *
 * Usage:
 *   fuse_bench [--figure NAME] [--threads N] [--out FILE] [--smoke]
 *
 *   --figure NAME  sweep grid (default: fig13, the headline IPC grid —
 *                  every organisation x every workload)
 *   --threads N    sweep worker threads (default: 1; FUSE_THREADS still
 *                  wins when --threads is not given)
 *   --out FILE     output path ('-' = stdout; default:
 *                  BENCH_sim_core.json)
 *   --smoke        CI mode: FUSE_FAST budgets and a two-benchmark grid,
 *                  so the step costs seconds while still tracking the
 *                  same code paths
 *
 * Counts are non-zero only in a FUSE_PROF=ON build.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "exp/export.hh"
#include "exp/figures.hh"
#include "exp/sweep_runner.hh"
#include "prof/prof.hh"

namespace
{

void
usage()
{
    std::printf(
        "usage: fuse_bench [options]\n"
        "  --figure NAME  figure grid to sweep (default: fig13)\n"
        "  --threads N    sweep worker threads, N >= 1 (default: 1)\n"
        "  --out FILE     output JSON path (default: BENCH_sim_core.json)\n"
        "  --smoke        small CI grid with FUSE_FAST budgets\n"
        "counts are non-zero only in FUSE_PROF=ON builds\n");
}

/** The stderr attribution: headline resolutions, every site heaviest
 *  first, then one elision line per presence-filter gate. */
void
printProfile(const fuse::prof::ProfileReport &report, std::size_t runs)
{
    // Residency resolutions: one TagArray::lookup per bank consult, the
    // exact count the single-probe pipeline was validated against with a
    // hand-inserted temporary counter (209.3M on the full fig13 grid).
    // The per-level split — L1D demand/fill vs L2 — is in the site list.
    std::fprintf(stderr,
                 "profile: %.1fM residency resolutions over %zu runs "
                 "(L1D demand %.1fM + L1D fill %.1fM + L2 %.1fM)\n",
                 static_cast<double>(report.count("tag_array", "lookups"))
                     / 1e6,
                 runs,
                 static_cast<double>(report.count(
                     "l1d_bank", "demand_resolutions")) / 1e6,
                 static_cast<double>(report.count(
                     "l1d_bank", "fill_resolutions")) / 1e6,
                 static_cast<double>(report.count(
                     "l2", "bank_accesses")) / 1e6);
    // Heaviest first: exclusive wall time, then event count, then
    // name as the deterministic tiebreak (counter-only sites have no
    // timed scopes and sort below every timed one).
    std::vector<const fuse::prof::SiteSample *> ordered;
    ordered.reserve(report.sites.size());
    for (const auto &s : report.sites)
        ordered.push_back(&s);
    std::sort(ordered.begin(), ordered.end(),
              [](const fuse::prof::SiteSample *a,
                 const fuse::prof::SiteSample *b) {
                  if (a->exclusiveNs != b->exclusiveNs)
                      return a->exclusiveNs > b->exclusiveNs;
                  if (a->count != b->count)
                      return a->count > b->count;
                  if (a->component != b->component)
                      return a->component < b->component;
                  return a->name < b->name;
              });
    for (const auto *s : ordered) {
        std::fprintf(stderr, "profile: %-24s %12llu",
                     (s->component + "/" + s->name).c_str(),
                     static_cast<unsigned long long>(s->count));
        if (s->timedScopes)
            std::fprintf(stderr, "  %10.1f ms excl",
                         static_cast<double>(s->exclusiveNs) / 1e6);
        std::fprintf(stderr, "\n");
    }
    // Elision rate of each presence-filter-gated consult site:
    // skipped = answered "definitely absent" without touching the
    // gated structure; the remainder are actual consults.
    const struct
    {
        const char *label;
        const char *component;
        const char *total;
        const char *skips;
        const char *consulted;
    } gates[] = {
        {"mshr entry file", "mshr", "probes", "filter_skips",
         "map consults"},
        {"sram tag array", "l1d_sram", "lookups", "filter_skips",
         "tag consults"},
    };
    for (const auto &g : gates) {
        const std::uint64_t total = report.count(g.component, g.total);
        if (!total)
            continue;
        const std::uint64_t skips = report.count(g.component, g.skips);
        std::fprintf(stderr,
                     "profile: filter %-17s %.1fM gated, %.1fM skipped "
                     "(%.1f%%), %.1fM %s\n",
                     g.label, static_cast<double>(total) / 1e6,
                     static_cast<double>(skips) / 1e6,
                     100.0 * static_cast<double>(skips) /
                         static_cast<double>(total),
                     static_cast<double>(total - skips) / 1e6,
                     g.consulted);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string figure = "fig13";
    std::string out_path = "BENCH_sim_core.json";
    bool threads_set = false;
    unsigned threads = 1;
    bool smoke = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fuse_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--figure") {
            figure = value();
        } else if (arg == "--threads") {
            threads = fuse::parseThreadCount("--threads", value().c_str());
            threads_set = true;
        } else if (arg == "--out") {
            out_path = value();
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fuse_fatal("unknown option '%s'", arg.c_str());
        }
    }

    if (smoke) {
        // Must precede the first SimConfig preset: budgets read the
        // environment lazily.
        setenv("FUSE_FAST", "1", /*overwrite=*/1);
    }
    // Without an explicit --threads, FUSE_THREADS wins over the 1-thread
    // default: pass 0 so SweepRunner resolves the environment.
    if (!threads_set && std::getenv("FUSE_THREADS"))
        threads = 0;

    const fuse::Figure *fig = fuse::findFigure(figure);
    if (!fig)
        fuse_fatal("unknown figure '%s'", figure.c_str());
    fuse::ExperimentSpec spec = fig->makeSpec();
    if (smoke)
        spec.benchmarks = {"ATAX", "BICG"};

    fuse::SweepRunner runner(threads);
    std::fprintf(stderr, "sweep %s: %zu runs on %u threads...\n",
                 spec.name.c_str(), spec.runCount(), runner.threads());
    if (!fuse::prof::enabled())
        std::fprintf(stderr,
                     "warning: FUSE_PROF=OFF build — counts will be zero "
                     "(rebuild with -DFUSE_PROF=ON)\n");
    const fuse::prof::ProfileReport prof_before = fuse::prof::snapshot();
    const fuse::ResultSet results = runner.run(spec);
    const fuse::prof::ProfileReport report =
        fuse::prof::snapshot().diffSince(prof_before);

    double total_cycles = 0.0;
    for (const auto &run : results.runs())
        total_cycles += static_cast<double>(run.metrics.cycles);
    const std::size_t runs = results.size();
    printProfile(report, runs);

    fuse::exportTo(out_path, [&](std::ostream &os) {
        os << "{\n";
        os << "  \"bench\": \"sim_core\",\n";
        os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
        os << "  \"sweep\": {\n";
        os << "    \"figure\": \"" << figure << "\",\n";
        os << "    \"runs\": " << runs << ",\n";
        os << "    \"threads\": " << runner.threads() << ",\n";
        os << "    \"sim_cycles_total\": " << total_cycles << "\n";
        os << "  },\n";
        os << "  \"profile\": {\n";
        os << "    \"enabled\": "
           << (fuse::prof::enabled() ? "true" : "false") << ",\n";
        os << "    \"residency_resolutions\": "
           << report.count("tag_array", "lookups") << ",\n";
        os << "    \"report\":\n";
        report.writeJson(os, runs, 4);
        os << "\n  }\n}\n";
    });
    return 0;
}
