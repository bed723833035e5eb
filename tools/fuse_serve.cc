/**
 * @file
 * fuse_serve: the campaign service CLI. Wraps CampaignService (a
 * content-addressed result cache over a pool of simulation workers):
 * it serves the submissions given on the command line, then exits.
 *
 *   fuse_serve --store DIR \
 *       --campaign fig13 --benchmarks ATAX,BICG --json a.json \
 *       --campaign fig13 --benchmarks BICG,MVT  --json b.json
 *
 * Every submission is expanded to grid points, each keyed by the
 * content hash of (canonical materialised point, binary fingerprint).
 * The fingerprint is this build's identity — a hash of the executable,
 * its loaded shared objects and libm's CPU-feature bits, computed in a
 * few ms at start-up without simulating — so a store goes cold on any
 * rebuild, library update or CPU-feature change. Points already in the
 * store are served from it, cold points are simulated once and stored.
 * Cached and fresh campaigns export byte-identically (see
 * serve/campaign.hh).
 */

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "exp/export.hh"
#include "exp/figures.hh"
#include "serve/campaign.hh"

namespace
{

void
usage()
{
    std::printf(
        "usage: fuse_serve --store DIR SUBMISSIONS [options]\n"
        "  --store DIR       result store directory (created if missing)\n"
        "  --campaign NAME   submit a paper figure/table campaign\n"
        "  --spec FILE       submit an ExperimentSpec file ('-' = stdin)\n"
        "  --benchmarks L    restrict the last submission's workloads\n"
        "  --kinds L         restrict the last submission's L1D kinds\n"
        "  --json FILE       export the last submission as JSON\n"
        "  --csv FILE        export the last submission as CSV\n"
        "  --workers N       simulation worker threads (default 1)\n"
        "  --stats-out FILE  write cache counters as JSON\n"
        "  --expect-all-hits exit nonzero if any point missed the cache\n");
}

/** One requested campaign: a figure name or a spec file plus options. */
struct Submission
{
    std::string figure;
    std::string specPath;
    std::string benchmarks;
    std::string kinds;
    std::string jsonPath;
    std::string csvPath;
};

/** Serve one submission; false when points failed. */
bool
processSubmission(fuse::CampaignService &service, const Submission &sub)
{
    fuse::ExperimentSpec spec;
    if (!sub.figure.empty()) {
        const fuse::Figure *fig = fuse::findFigure(sub.figure);
        if (!fig)
            fuse_fatal("unknown figure '%s'", sub.figure.c_str());
        spec = fig->makeSpec();
    } else {
        spec = fuse::ExperimentSpec::parseFile(sub.specPath);
    }
    spec.restrictTo(sub.benchmarks, sub.kinds);

    const fuse::ServeStats before = service.stats();
    const fuse::ResultSet results = service.serve(spec);
    const fuse::ServeStats &after = service.stats();
    std::fprintf(stderr,
                 "%s: %llu points, %llu hits, %llu simulated, "
                 "%llu failed\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(after.points
                                                 - before.points),
                 static_cast<unsigned long long>(after.hits - before.hits),
                 static_cast<unsigned long long>(after.simulations
                                                 - before.simulations),
                 static_cast<unsigned long long>(after.failures
                                                 - before.failures));

    if (!sub.jsonPath.empty())
        fuse::exportTo(sub.jsonPath, [&](std::ostream &os) {
            fuse::writeJson(os, results);
        });
    if (!sub.csvPath.empty())
        fuse::exportTo(sub.csvPath, [&](std::ostream &os) {
            fuse::writeCsv(os, results);
        });

    if (after.failures == before.failures)
        return true;
    std::fprintf(stderr, "error: points failed:\n");
    for (const auto &f : service.failures())
        std::fprintf(stderr, "  %s: %s\n", f.label.c_str(),
                     f.error.c_str());
    return false;
}

void
writeStats(std::ostream &os, const fuse::ServeStats &stats)
{
    os << "{\n  \"bench\": \"serve\",\n  \"serve\": {\n"
       << "    \"campaigns\": " << stats.campaigns << ",\n"
       << "    \"points\": " << stats.points << ",\n"
       << "    \"hits\": " << stats.hits << ",\n"
       << "    \"misses\": " << stats.misses << ",\n"
       << "    \"simulations\": " << stats.simulations << ",\n"
       << "    \"retries\": " << stats.retries << ",\n"
       << "    \"failures\": " << stats.failures << "\n  }\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string store_dir;
    std::vector<Submission> submissions;
    std::string stats_path;
    unsigned workers = 1;
    unsigned stdin_specs = 0;
    bool expect_all_hits = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fuse_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        auto current = [&]() -> Submission & {
            if (submissions.empty())
                fuse_fatal("%s must follow --campaign or --spec",
                           arg.c_str());
            return submissions.back();
        };
        if (arg == "--store") {
            store_dir = value();
        } else if (arg == "--campaign") {
            submissions.push_back(Submission{});
            submissions.back().figure = value();
        } else if (arg == "--spec") {
            submissions.push_back(Submission{});
            submissions.back().specPath = value();
            // A second read of stdin sees no text, i.e. the default grid.
            if (submissions.back().specPath == "-" && stdin_specs++)
                fuse_fatal("only one --spec can read stdin");
        } else if (arg == "--benchmarks") {
            current().benchmarks = value();
        } else if (arg == "--kinds") {
            current().kinds = value();
        } else if (arg == "--json") {
            current().jsonPath = value();
        } else if (arg == "--csv") {
            current().csvPath = value();
        } else if (arg == "--workers") {
            workers = fuse::parseCount("--workers", value().c_str());
        } else if (arg == "--stats-out") {
            stats_path = value();
        } else if (arg == "--expect-all-hits") {
            expect_all_hits = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fuse_fatal("unknown option '%s'", arg.c_str());
        }
    }

    if (store_dir.empty()) {
        usage();
        fuse_fatal("--store is required");
    }
    if (submissions.empty()) {
        usage();
        fuse_fatal("pass at least one --campaign or --spec");
    }

    fuse::ServeOptions options;
    options.storeDir = store_dir;
    options.workers = workers;
    fuse::CampaignService service(options);

    int rc = 0;
    for (const auto &sub : submissions)
        if (!processSubmission(service, sub))
            rc = 1;

    const fuse::ServeStats &stats = service.stats();
    std::fprintf(stderr,
                 "serve totals: %llu campaigns, %llu points, %llu hits, "
                 "%llu misses, %llu simulations, %llu failures\n",
                 static_cast<unsigned long long>(stats.campaigns),
                 static_cast<unsigned long long>(stats.points),
                 static_cast<unsigned long long>(stats.hits),
                 static_cast<unsigned long long>(stats.misses),
                 static_cast<unsigned long long>(stats.simulations),
                 static_cast<unsigned long long>(stats.failures));
    if (!stats_path.empty())
        fuse::exportTo(stats_path, [&](std::ostream &os) {
            writeStats(os, stats);
        });
    if (expect_all_hits && stats.misses > 0) {
        std::fprintf(stderr,
                     "error: --expect-all-hits, but %llu points missed "
                     "the cache\n",
                     static_cast<unsigned long long>(stats.misses));
        rc = 1;
    }
    return rc;
}
