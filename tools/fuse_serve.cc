/**
 * @file
 * fuse_serve: the campaign service CLI. Wraps CampaignService (a
 * content-addressed result cache over a pool of simulation workers) in
 * two modes:
 *
 *   --once   process the submissions given on the command line, then
 *            exit — the mode CI drives, no sockets or daemons needed:
 *
 *       fuse_serve --store DIR --once \
 *           --campaign fig13 --benchmarks ATAX,BICG --json a.json \
 *           --campaign fig13 --benchmarks BICG,MVT  --json b.json
 *
 *   --watch  poll SPOOL/incoming/ for *.job files; each job is a small
 *            "key: value" text naming a figure (or carrying raw
 *            ExperimentSpec lines), processed jobs move to SPOOL/done/
 *            (exports beside them), failed ones to SPOOL/failed/ with a
 *            .err note. Stops on SIGINT/SIGTERM, a SPOOL/stop file, or
 *            after --max-polls polls.
 *
 * Job file keys: figure, benchmarks, kinds, json, csv; any other lines
 * are treated as an inline ExperimentSpec (exactly the fuse_sweep
 * --spec format) when no figure is named. Export paths are file names,
 * written into SPOOL/done/.
 *
 * Every submission is expanded to grid points, each keyed by the
 * content hash of (canonical materialised point, binary fingerprint);
 * points already in the store are served from it, cold points are
 * simulated once and stored. Cached and fresh campaigns export byte-
 * identically (see serve/campaign.hh).
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "exp/export.hh"
#include "exp/figures.hh"
#include "serve/campaign.hh"

namespace fs = std::filesystem;

namespace
{

void
usage()
{
    std::printf(
        "usage: fuse_serve --store DIR (--once SUBMISSIONS | --watch SPOOL)\n"
        "  --store DIR       result store directory (created if missing)\n"
        "  --once            process --campaign/--spec submissions, exit\n"
        "  --campaign NAME   submit a paper figure/table campaign\n"
        "  --spec FILE       submit an ExperimentSpec file\n"
        "  --benchmarks L    restrict the last submission's workloads\n"
        "  --kinds L         restrict the last submission's L1D kinds\n"
        "  --json FILE       export the last submission as JSON\n"
        "  --csv FILE        export the last submission as CSV\n"
        "  --watch SPOOL     daemon mode: poll SPOOL/incoming for *.job\n"
        "  --poll-ms N       watch poll interval (default 200)\n"
        "  --max-polls N     stop watching after N polls (0 = forever)\n"
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

std::string
readFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fuse_fatal("cannot read '%s'", path.c_str());
    std::stringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

/** Build the submission's spec; false (with @p error set) on a bad
 *  figure name so a daemon can reject the job instead of dying. */
bool
buildSpec(const Submission &sub, fuse::ExperimentSpec &spec,
          std::string &error)
{
    if (!sub.figure.empty()) {
        const fuse::Figure *fig = fuse::findFigure(sub.figure);
        if (!fig) {
            error = "unknown figure '" + sub.figure + "'";
            return false;
        }
        spec = fig->makeSpec();
    } else {
        // ExperimentSpec::parse is fatal on malformed text by design
        // (same contract as fuse_sweep --spec).
        spec = fuse::ExperimentSpec::parse(readFile(sub.specPath));
    }
    if (!sub.benchmarks.empty()) {
        spec.benchmarks.clear();
        for (const auto &word : fuse::splitList(sub.benchmarks))
            for (const auto &name :
                 fuse::ExperimentSpec::resolveBenchmarks(word))
                spec.benchmarks.push_back(name);
    }
    if (!sub.kinds.empty()) {
        spec.kinds.clear();
        for (const auto &word : fuse::splitList(sub.kinds))
            for (fuse::L1DKind k : fuse::ExperimentSpec::resolveKinds(word))
                spec.kinds.push_back(k);
    }
    return true;
}

void
exportTo(const std::string &path, const fuse::ResultSet &results,
         void (*write)(std::ostream &, const fuse::ResultSet &))
{
    if (path == "-") {
        write(std::cout, results);
        return;
    }
    std::ofstream os(path);
    if (!os)
        fuse_fatal("cannot open '%s' for writing", path.c_str());
    write(os, results);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/** Serve one submission; false when it added failures. */
bool
processSubmission(fuse::CampaignService &service, const Submission &sub,
                  std::string &error)
{
    fuse::ExperimentSpec spec;
    if (!buildSpec(sub, spec, error))
        return false;

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
        exportTo(sub.jsonPath, results, fuse::writeJson);
    if (!sub.csvPath.empty())
        exportTo(sub.csvPath, results, fuse::writeCsv);

    if (after.failures > before.failures) {
        error = "points failed:";
        for (const auto &f : service.failures())
            error += "\n  " + f.label + ": " + f.error;
        return false;
    }
    return true;
}

void
writeStats(const std::string &path, const fuse::ServeStats &stats)
{
    std::ofstream os(path);
    if (!os)
        fuse_fatal("cannot open '%s' for writing", path.c_str());
    os << "{\n  \"bench\": \"serve\",\n  \"serve\": {\n"
       << "    \"campaigns\": " << stats.campaigns << ",\n"
       << "    \"points\": " << stats.points << ",\n"
       << "    \"hits\": " << stats.hits << ",\n"
       << "    \"misses\": " << stats.misses << ",\n"
       << "    \"simulations\": " << stats.simulations << ",\n"
       << "    \"retries\": " << stats.retries << ",\n"
       << "    \"failures\": " << stats.failures << "\n  }\n}\n";
    std::fprintf(stderr, "wrote %s\n", path.c_str());
}

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

/** Parse a spool job file into a Submission + optional inline spec. */
Submission
parseJob(const std::string &path, std::string &inline_spec)
{
    Submission sub;
    std::istringstream is(readFile(path));
    std::string line;
    while (std::getline(is, line)) {
        const auto colon = line.find(':');
        std::string key, value;
        if (colon != std::string::npos) {
            key = line.substr(0, colon);
            value = line.substr(colon + 1);
            while (!value.empty() && value.front() == ' ')
                value.erase(value.begin());
        }
        if (key == "figure")
            sub.figure = value;
        else if (key == "benchmarks")
            sub.benchmarks = value;
        else if (key == "kinds")
            sub.kinds = value;
        else if (key == "json")
            sub.jsonPath = value;
        else if (key == "csv")
            sub.csvPath = value;
        else
            inline_spec += line + "\n";
    }
    return sub;
}

int
watchSpool(fuse::CampaignService &service, const std::string &spool,
           unsigned poll_ms, unsigned max_polls)
{
    const fs::path incoming = fs::path(spool) / "incoming";
    const fs::path done = fs::path(spool) / "done";
    const fs::path failed = fs::path(spool) / "failed";
    std::error_code ec;
    fs::create_directories(incoming, ec);
    fs::create_directories(done, ec);
    fs::create_directories(failed, ec);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    std::fprintf(stderr, "watching %s (poll %ums)\n", incoming.c_str(),
                 poll_ms);
    bool any_failed = false;
    unsigned polls = 0;
    while (!g_stop) {
        if (fs::exists(fs::path(spool) / "stop", ec)) {
            std::fprintf(stderr, "stop file seen, exiting\n");
            break;
        }

        // Jobs in name order so submission batches process predictably.
        std::vector<fs::path> jobs;
        for (const auto &entry : fs::directory_iterator(incoming, ec))
            if (entry.path().extension() == ".job")
                jobs.push_back(entry.path());
        std::sort(jobs.begin(), jobs.end());

        for (const auto &job : jobs) {
            std::string inline_spec;
            Submission sub = parseJob(job.string(), inline_spec);
            std::string spec_file;
            if (sub.figure.empty()) {
                // Raw spec lines: stage them as a file for buildSpec.
                spec_file = (done / (job.stem().string() + ".spec"))
                                .string();
                std::ofstream os(spec_file);
                os << inline_spec;
                sub.specPath = spec_file;
            }
            // Exports land in done/ next to the processed job.
            if (!sub.jsonPath.empty())
                sub.jsonPath = (done / sub.jsonPath).string();
            if (!sub.csvPath.empty())
                sub.csvPath = (done / sub.csvPath).string();

            std::fprintf(stderr, "job %s\n", job.filename().c_str());
            std::string error;
            const bool ok = processSubmission(service, sub, error);
            if (ok) {
                fs::rename(job, done / job.filename(), ec);
            } else {
                any_failed = true;
                fs::rename(job, failed / job.filename(), ec);
                std::ofstream err(
                    (failed / (job.filename().string() + ".err"))
                        .string());
                err << error << "\n";
                std::fprintf(stderr, "job %s failed: %s\n",
                             job.filename().c_str(), error.c_str());
            }
        }

        if (max_polls > 0 && ++polls >= max_polls)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
    return any_failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string store_dir;
    std::string spool;
    std::vector<Submission> submissions;
    std::string stats_path;
    unsigned workers = 1;
    unsigned poll_ms = 200;
    unsigned max_polls = 0;
    bool once = false;
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
        } else if (arg == "--once") {
            once = true;
        } else if (arg == "--watch") {
            spool = value();
        } else if (arg == "--campaign") {
            submissions.push_back(Submission{});
            submissions.back().figure = value();
        } else if (arg == "--spec") {
            submissions.push_back(Submission{});
            submissions.back().specPath = value();
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
        } else if (arg == "--poll-ms") {
            poll_ms = fuse::parseCount("--poll-ms", value().c_str(), 1,
                                       60000);
        } else if (arg == "--max-polls") {
            max_polls = fuse::parseCount("--max-polls", value().c_str(), 1,
                                         1000000);
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
    if (once == !spool.empty()) {
        usage();
        fuse_fatal("pass exactly one of --once or --watch");
    }
    if (once && submissions.empty())
        fuse_fatal("--once needs at least one --campaign or --spec");

    fuse::ServeOptions options;
    options.storeDir = store_dir;
    options.workers = workers;
    fuse::CampaignService service(options);

    int rc = 0;
    if (once) {
        for (const auto &sub : submissions) {
            std::string error;
            if (!processSubmission(service, sub, error)) {
                std::fprintf(stderr, "error: %s\n", error.c_str());
                rc = 1;
            }
        }
    } else {
        rc = watchSpool(service, spool, poll_ms, max_polls);
    }

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
        writeStats(stats_path, stats);
    if (expect_all_hits && stats.misses > 0) {
        std::fprintf(stderr,
                     "error: --expect-all-hits, but %llu points missed "
                     "the cache\n",
                     static_cast<unsigned long long>(stats.misses));
        rc = 1;
    }
    return rc;
}
