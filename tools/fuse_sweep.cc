/**
 * @file
 * fuse_sweep: the experiment-orchestration CLI. Expresses any paper
 * figure/table as a declarative sweep (shared with the bench/ binaries,
 * so the printed tables are identical), or runs a custom ExperimentSpec
 * file, fanning the (benchmark x variant x organisation) grid across
 * worker threads. Results can additionally be exported as JSON or CSV.
 *
 * Usage:
 *   fuse_sweep --list
 *   fuse_sweep --figure fig13 [--threads N] [--json out.json]
 *   fuse_sweep --spec sweep.spec [--csv out.csv] [--quiet]
 *   fuse_sweep --spec - < sweep.spec
 *
 * Spec files (see exp/experiment.hh for the full key set):
 *   name: my_sweep
 *   base: fermi                 # fermi | volta | test
 *   benchmarks: sensitivity     # all | motivation | sensitivity | list
 *   kinds: L1-SRAM, Dy-FUSE     # all | toString(L1DKind) names
 *   seed: 1
 *   variant: half | l1d.sramAreaFraction=0.5
 */

#include <cstdio>
#include <ostream>
#include <string>

#include "common/log.hh"
#include "exp/export.hh"
#include "exp/figures.hh"
#include "exp/sweep_runner.hh"
#include "prof/prof.hh"
#include "sim/report.hh"

namespace
{

void
usage()
{
    std::printf(
        "usage: fuse_sweep [options]\n"
        "  --list            list the available figures/tables\n"
        "  --figure NAME     run a paper figure/table (e.g. fig13)\n"
        "  --spec FILE       run an ExperimentSpec file ('-' = stdin)\n"
        "  --benchmarks LIST restrict to a comma-separated workload list\n"
        "  --kinds LIST      override the L1D kinds (spec mode)\n"
        "  --threads N       sweep worker threads, N >= 1 (default:\n"
        "                    FUSE_THREADS or all cores)\n"
        "  --json FILE       export results as JSON ('-' = stdout)\n"
        "  --csv FILE        export results as CSV ('-' = stdout)\n"
        "  --profile-out F   write the sweep's exact profiling\n"
        "                    attribution as JSON ('-' = stdout; counts\n"
        "                    are non-zero only in FUSE_PROF=ON builds)\n"
        "  --quiet           skip the rendered tables (exports only)\n"
        "  --keys            list the spec override keys\n");
}

void
listFigures()
{
    fuse::Report report("available figures");
    report.header({"name", "description"});
    for (const auto &fig : fuse::figures())
        report.row({fig.name, fig.title});
    report.print();
}

/** Render a generic metric table for spec-file sweeps. */
void
renderGeneric(const fuse::ResultSet &results)
{
    fuse::Report report("sweep: " + results.name());
    report.header({"workload", "kind", "variant", "IPC", "miss rate",
                   "APKI", "L1D energy (uJ)", "total energy (uJ)"});
    for (const auto &run : results.runs()) {
        report.row({run.benchmark, toString(run.kind), run.variantLabel,
                    fuse::fmt(run.metrics.ipc, 3),
                    fuse::fmt(run.metrics.l1dMissRate, 3),
                    fuse::fmt(run.metrics.apki, 1),
                    fuse::fmt(run.metrics.energy.l1dTotal() / 1000.0, 1),
                    fuse::fmt(run.metrics.energy.total() / 1000.0, 1)});
    }
    report.print();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string figure;
    std::string spec_path;
    std::string benchmarks;
    std::string kinds;
    std::string json_path;
    std::string csv_path;
    std::string profile_path;
    unsigned threads = 0;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fuse_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--list") {
            listFigures();
            return 0;
        } else if (arg == "--keys") {
            for (const auto &key : fuse::overrideKeys())
                std::printf("%s\n", key.c_str());
            return 0;
        } else if (arg == "--figure") {
            figure = value();
        } else if (arg == "--spec") {
            spec_path = value();
        } else if (arg == "--benchmarks") {
            benchmarks = value();
        } else if (arg == "--kinds") {
            kinds = value();
        } else if (arg == "--threads") {
            threads = fuse::parseThreadCount("--threads", value().c_str());
        } else if (arg == "--json") {
            json_path = value();
        } else if (arg == "--csv") {
            csv_path = value();
        } else if (arg == "--profile-out") {
            profile_path = value();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fuse_fatal("unknown option '%s'", arg.c_str());
        }
    }

    if (figure.empty() == spec_path.empty()) {
        usage();
        fuse_fatal("pass exactly one of --figure or --spec");
    }
    if (!figure.empty() && !kinds.empty()) {
        // Figure renderers expect their full kind grid; stripping kinds
        // would waste the sweep and then die in the renderer.
        fuse_fatal("--kinds only applies to --spec sweeps");
    }

    const fuse::Figure *fig = nullptr;
    fuse::ExperimentSpec spec;
    if (!figure.empty()) {
        fig = fuse::findFigure(figure);
        if (!fig)
            fuse_fatal("unknown figure '%s' (see --list)",
                       figure.c_str());
        spec = fig->makeSpec();
    } else {
        spec = fuse::ExperimentSpec::parseFile(spec_path);
    }
    spec.restrictTo(benchmarks, kinds);

    fuse::SweepRunner runner(threads);
    if (spec.runCount() > 0)
        std::fprintf(stderr, "%s: %zu runs on %u threads\n",
                     spec.name.c_str(), spec.runCount(), runner.threads());
    runner.onProgress([](const fuse::RunResult &run, std::size_t done,
                         std::size_t total) {
        std::fprintf(stderr, "  [%zu/%zu] %s %s %s\n", done, total,
                     run.benchmark.c_str(), toString(run.kind),
                     run.variantLabel.c_str());
    });

    if (!profile_path.empty() && !fuse::prof::enabled())
        std::fprintf(stderr,
                     "warning: --profile-out on a FUSE_PROF=OFF build — "
                     "counts will be zero (rebuild with -DFUSE_PROF=ON)\n");
    const fuse::prof::ProfileReport prof_before = fuse::prof::snapshot();
    fuse::ResultSet results = runner.run(spec);

    if (!profile_path.empty()) {
        const fuse::prof::ProfileReport report =
            fuse::prof::snapshot().diffSince(prof_before);
        fuse::exportTo(profile_path, [&](std::ostream &os) {
            fuse::writeProfileJson(os, spec.name, report, results.size());
        });
    }

    if (!quiet) {
        if (fig)
            fig->render(results, runner.threads());
        else
            renderGeneric(results);
    }
    if (!json_path.empty())
        fuse::exportTo(json_path, [&](std::ostream &os) {
            fuse::writeJson(os, results);
        });
    if (!csv_path.empty())
        fuse::exportTo(csv_path, [&](std::ostream &os) {
            fuse::writeCsv(os, results);
        });
    return 0;
}
