/**
 * @file
 * Tests for the experiment-orchestration subsystem: aggregation helpers,
 * spec parsing and override application, thread-pool determinism
 * (an N-thread sweep must be metric-for-metric identical to a serial
 * one), and the JSON/CSV export round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "exp/experiment.hh"
#include "exp/export.hh"
#include "exp/figures.hh"
#include "exp/result_set.hh"
#include "exp/sweep_runner.hh"
#include "sim/simulator.hh"
#include "workload/benchmarks.hh"

namespace fuse
{
namespace
{

// ----------------------------------------------------- aggregation

TEST(Aggregate, GeomeanOfEqualValues)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
}

TEST(Aggregate, GeomeanMixed)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
    EXPECT_NEAR(geomean({0.5, 2.0}), 1.0, 1e-9);
}

TEST(Aggregate, GeomeanEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Aggregate, GeomeanClampsZeros)
{
    // Zeros are clamped to epsilon rather than producing -inf.
    EXPECT_GT(geomean({0.0, 1.0}), 0.0);
}

TEST(Aggregate, GeomeanNeverNan)
{
    // The empty-input guard must return a finite 0.0, not exp(0/0):
    // a NaN would silently poison every normalised figure column.
    EXPECT_FALSE(std::isnan(geomean({})));
    EXPECT_FALSE(std::isnan(geomean({0.0})));
    EXPECT_FALSE(std::isnan(geomean({0.0, 0.0})));
}

TEST(Aggregate, MeanAndNormalize)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    const std::vector<double> norm = normalizeTo({2.0, 9.0}, {4.0, 3.0});
    ASSERT_EQ(norm.size(), 2u);
    EXPECT_DOUBLE_EQ(norm[0], 0.5);
    EXPECT_DOUBLE_EQ(norm[1], 3.0);
    // A zero baseline yields 0, not inf.
    EXPECT_DOUBLE_EQ(normalizeTo({1.0}, {0.0})[0], 0.0);
}

// ---------------------------------------------------- thread counts

TEST(ThreadCount, DefaultThreadCountIsAtLeastOne)
{
    // hardware_concurrency() may legally report 0 ("unknown"); the
    // default must clamp so no zero-thread pool can be constructed.
    EXPECT_GE(defaultThreadCount(), 1u);
}

TEST(ThreadCount, RunnerNeverHasZeroThreads)
{
    EXPECT_GE(SweepRunner(0).threads(), 1u);
    EXPECT_EQ(SweepRunner(3).threads(), 3u);
}

// ---------------------------------------------------- parallelFor

TEST(ParallelFor, CoversEveryIndexOnce)
{
    for (unsigned threads : {0u, 1u, 4u}) {
        std::vector<int> hits(257, 0);
        parallelFor(hits.size(), threads,
                    [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i], 1) << "threads=" << threads << " i=" << i;
    }
}

TEST(ParallelFor, ZeroTasksIsANoop)
{
    bool called = false;
    parallelFor(0, 4, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

// --------------------------------------------------- spec parsing

TEST(ExperimentSpec, ParsesFullSpec)
{
    const ExperimentSpec spec = ExperimentSpec::parse(
        "# a comment\n"
        "name: my_sweep\n"
        "base: test\n"
        "benchmarks: ATAX, BICG\n"
        "kinds: L1-SRAM, Dy-FUSE\n"
        "seed: 7\n"
        "variant: half | l1d.sramAreaFraction=0.5\n"
        "variant: quarter | l1d.sramAreaFraction=0.25, "
        "l1d.tagQueueEntries=8\n");
    EXPECT_EQ(spec.name, "my_sweep");
    EXPECT_EQ(spec.base, "test");
    ASSERT_EQ(spec.benchmarks.size(), 2u);
    EXPECT_EQ(spec.benchmarks[0], "ATAX");
    EXPECT_EQ(spec.benchmarks[1], "BICG");
    ASSERT_EQ(spec.kinds.size(), 2u);
    EXPECT_EQ(spec.kinds[0], L1DKind::L1Sram);
    EXPECT_EQ(spec.kinds[1], L1DKind::DyFuse);
    EXPECT_EQ(spec.seed, 7u);
    ASSERT_EQ(spec.variants.size(), 2u);
    EXPECT_EQ(spec.variants[0].label, "half");
    EXPECT_EQ(spec.variants[1].label, "quarter");
    EXPECT_EQ(spec.runCount(), 2u * 2u * 2u);
}

TEST(ExperimentSpec, ConfigForAppliesOverrides)
{
    const ExperimentSpec spec = ExperimentSpec::parse(
        "base: fermi\n"
        "benchmarks: ATAX\n"
        "kinds: Dy-FUSE\n"
        "seed: 13\n"
        "variant: small | l1d.sramAreaFraction=0.25, "
        "gpu.instructionBudgetPerSm=1234\n");
    const SimConfig config = spec.configFor(0);
    EXPECT_DOUBLE_EQ(config.l1d.sramAreaFraction, 0.25);
    EXPECT_EQ(config.gpu.instructionBudgetPerSm, 1234u);
    // The base preset is untouched otherwise...
    EXPECT_EQ(config.gpu.numSms, SimConfig::fermi().gpu.numSms);
    // ...and the spec seed reaches the trace generator deterministically.
    EXPECT_EQ(config.gpu.traceSeed, 13u);
}

TEST(ExperimentSpec, DefaultsFillBenchmarksAndKinds)
{
    const ExperimentSpec spec = ExperimentSpec::parse("name: defaults\n");
    EXPECT_EQ(spec.benchmarks.size(), allBenchmarks().size());
    EXPECT_FALSE(spec.kinds.empty());
    EXPECT_EQ(spec.variantCount(), 1u);
}

TEST(ExperimentSpec, ResolvesBenchmarkGroups)
{
    EXPECT_EQ(ExperimentSpec::resolveBenchmarks("all").size(),
              allBenchmarks().size());
    EXPECT_EQ(ExperimentSpec::resolveBenchmarks("motivation"),
              motivationWorkloads());
    EXPECT_EQ(ExperimentSpec::resolveBenchmarks("sensitivity"),
              sensitivityWorkloads());
    EXPECT_EQ(ExperimentSpec::resolveBenchmarks("ATAX"),
              std::vector<std::string>{"ATAX"});
}

TEST(ExperimentSpec, ResolvesKinds)
{
    EXPECT_EQ(ExperimentSpec::resolveKinds("all").size(),
              allL1DKinds().size());
    EXPECT_EQ(ExperimentSpec::resolveKinds("Dy-FUSE"),
              std::vector<L1DKind>{L1DKind::DyFuse});
}

TEST(ExperimentSpec, RejectsUnknownOverrideKey)
{
    EXPECT_EXIT(
        {
            ExperimentSpec::parse("benchmarks: ATAX\n"
                                  "kinds: Dy-FUSE\n"
                                  "variant: x | no.such.key=1\n");
        },
        ::testing::ExitedWithCode(1), "unknown config override key");
}

TEST(ExperimentSpec, RejectsMalformedLine)
{
    EXPECT_EXIT({ ExperimentSpec::parse("just some words\n"); },
                ::testing::ExitedWithCode(1), "expected 'key: value'");
    // Numbers parse whole-string: garbage, signs and trailing junk are
    // fatal (naming the line) instead of silently becoming 0, 2^64-1,
    // or a truncated prefix.
    for (const char *seed : {"abc", "-1", "12x", "", "1.5",
                             "99999999999999999999"})
        EXPECT_EXIT(
            { ExperimentSpec::parse(std::string("name: x\nseed: ") + seed
                                    + "\n"); },
            ::testing::ExitedWithCode(1),
            "spec line 2: seed expects a non-negative integer");
    for (const char *value : {"0.5x", "", "abc", "nan", "inf", "1e999"})
        EXPECT_EXIT(
            { ExperimentSpec::parse(
                  std::string("benchmarks: ATAX\nkinds: Dy-FUSE\n"
                              "variant: v | l1d.sramAreaFraction=")
                  + value + "\n"); },
            ::testing::ExitedWithCode(1),
            "spec line 3: l1d.sramAreaFraction expects a number");
}

// A repeated workload or kind would be simulated twice and weigh twice
// in every mean, so every path that builds the grid from text refuses it.
TEST(ExperimentSpec, RejectsRepeatedBenchmarksAndKinds)
{
    for (const char *text :
         {"benchmarks: ATAX, ATAX\n", "benchmarks: motivation, ATAX\n",
          "benchmarks: ATAX\nbenchmarks: BICG, ATAX\n"})
        EXPECT_EXIT({ ExperimentSpec::parse(text); },
                    ::testing::ExitedWithCode(1),
                    "workload 'ATAX' is listed twice");
    for (const char *text :
         {"kinds: Dy-FUSE, Dy-FUSE\n", "kinds: Dy-FUSE, all\n"})
        EXPECT_EXIT({ ExperimentSpec::parse(text); },
                    ::testing::ExitedWithCode(1),
                    "L1D kind 'Dy-FUSE' is listed twice");
}

TEST(ExperimentSpec, RestrictToRejectsRepeats)
{
    ExperimentSpec spec;
    spec.benchmarks = {"ATAX", "GESUM", "MVT"};
    spec.kinds = {L1DKind::L1Sram, L1DKind::DyFuse};
    spec.restrictTo("BICG, ATAX", "Dy-FUSE");
    EXPECT_EQ(spec.benchmarks, (std::vector<std::string>{"BICG", "ATAX"}));
    EXPECT_EQ(spec.kinds, std::vector<L1DKind>{L1DKind::DyFuse});
    spec.restrictTo("", "");
    EXPECT_EQ(spec.benchmarks.size(), 2u);

    EXPECT_EXIT({ spec.restrictTo("ATAX,ATAX,BICG", ""); },
                ::testing::ExitedWithCode(1),
                "workload 'ATAX' is listed twice");
    EXPECT_EXIT({ spec.restrictTo("motivation,ATAX", ""); },
                ::testing::ExitedWithCode(1),
                "workload 'ATAX' is listed twice");
    EXPECT_EXIT({ spec.restrictTo("", "L1-SRAM,Dy-FUSE,L1-SRAM"); },
                ::testing::ExitedWithCode(1),
                "L1D kind 'L1-SRAM' is listed twice");

    // The bench binaries' positional workload arguments too.
    char prog[] = "fig13_ipc", atax[] = "ATAX";
    char *argv[] = {prog, atax, atax, nullptr};
    EXPECT_EXIT({ runFigureMain("fig13", 3, argv); },
                ::testing::ExitedWithCode(1),
                "workload 'ATAX' is listed twice");
}

TEST(L1DKindNames, RoundTrip)
{
    for (L1DKind kind : allL1DKinds()) {
        L1DKind parsed;
        ASSERT_TRUE(l1dKindFromString(toString(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    L1DKind parsed;
    EXPECT_FALSE(l1dKindFromString("not-a-kind", parsed));
}

// ---------------------------------------------------- determinism

/** A small but real sweep: 2 workloads x 2 kinds x 2 variants at test
 *  scale with a reduced instruction budget. */
ExperimentSpec
smallSpec()
{
    ExperimentSpec spec;
    spec.name = "determinism";
    spec.base = "test";
    spec.benchmarks = {"ATAX", "GESUM"};
    spec.kinds = {L1DKind::L1Sram, L1DKind::DyFuse};
    spec.variants = {
        {"a", {{"gpu.instructionBudgetPerSm", 4000}}},
        {"b",
         {{"gpu.instructionBudgetPerSm", 4000},
          {"l1d.sramAreaFraction", 0.25}}},
    };
    spec.seed = 3;
    return spec;
}

void
expectIdenticalResults(const ResultSet &a, const ResultSet &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const RunResult &ra = a.at(i);
        const RunResult &rb = b.at(i);
        ASSERT_TRUE(ra.valid);
        ASSERT_TRUE(rb.valid);
        EXPECT_EQ(ra.benchmark, rb.benchmark);
        EXPECT_EQ(ra.kind, rb.kind);
        EXPECT_EQ(ra.variant, rb.variant);
        for (const auto &field : metricFields())
            EXPECT_EQ(field.get(ra.metrics), field.get(rb.metrics))
                << ra.benchmark << "/" << toString(ra.kind) << "/"
                << ra.variantLabel << " metric " << field.name;
    }
}

TEST(SweepRunner, FourThreadsMatchSerialBitForBit)
{
    const ExperimentSpec spec = smallSpec();
    const ResultSet serial = SweepRunner(1).run(spec);
    const ResultSet parallel = SweepRunner(4).run(spec);
    expectIdenticalResults(serial, parallel);
}

TEST(SweepRunner, MatchesDirectSimulatorRuns)
{
    ExperimentSpec spec = smallSpec();
    spec.variants.resize(1);
    const ResultSet results = SweepRunner(4).run(spec);

    Simulator sim(spec.configFor(0));
    for (const auto &name : spec.benchmarks) {
        for (L1DKind kind : spec.kinds) {
            const Metrics direct = sim.run(name, kind);
            const Metrics &swept = results.metrics(name, kind);
            for (const auto &field : metricFields())
                EXPECT_EQ(field.get(direct), field.get(swept))
                    << name << "/" << toString(kind) << " metric "
                    << field.name;
        }
    }
}

TEST(SweepRunner, ReportsProgressForEveryRun)
{
    const ExperimentSpec spec = smallSpec();
    SweepRunner runner(2);
    std::size_t calls = 0;
    std::size_t last_done = 0;
    runner.onProgress([&](const RunResult &run, std::size_t done,
                          std::size_t total) {
        ++calls;
        EXPECT_TRUE(run.valid);
        EXPECT_EQ(total, spec.runCount());
        EXPECT_GT(done, last_done);
        last_done = done;
    });
    runner.run(spec);
    EXPECT_EQ(calls, spec.runCount());
}

// ---------------------------------------------------------- merge

/** @p results with every cell whose flat index is not congruent to
 *  @p parity mod 2 marked unfilled: a partial grid. */
ResultSet
everyOtherCell(ResultSet results, std::size_t parity)
{
    for (std::size_t i = 0; i < results.size(); ++i)
        if (i % 2 != parity)
            results.at(i).valid = false;
    return results;
}

TEST(ResultSet, MergeOfDisjointPiecesRestoresTheGrid)
{
    const ResultSet full = SweepRunner(2).run(smallSpec());
    ResultSet merged = everyOtherCell(full, 0);
    merged.merge(everyOtherCell(full, 1));
    expectIdenticalResults(full, merged);
}

TEST(ResultSet, MergeRejectsMismatchedGridsAndOverlap)
{
    const ExperimentSpec spec = smallSpec();
    const ResultSet full = SweepRunner(1).run(spec);
    const ResultSet even = everyOtherCell(full, 0);

    // The other cells, but in the grid of another experiment.
    ResultSet alien("different", spec.benchmarks, spec.kinds,
                    spec.variantLabels());
    for (std::size_t i = 1; i < full.size(); i += 2)
        alien.at(i) = full.at(i);

    {
        ResultSet merged = even;
        EXPECT_EXIT({ merged.merge(alien); },
                    ::testing::ExitedWithCode(1), "incompatible grids");
    }
    {
        ResultSet merged = even;
        EXPECT_EXIT({ merged.merge(even); },
                    ::testing::ExitedWithCode(1), "filled by both sides");
    }
}

// ------------------------------------------------------ result set

TEST(ResultSet, SeriesAndNormalisation)
{
    const ResultSet results = SweepRunner(2).run(smallSpec());
    const auto get_ipc = [](const Metrics &m) { return m.ipc; };
    const std::vector<double> base =
        results.series(L1DKind::L1Sram, get_ipc, 0);
    const std::vector<double> dy =
        results.series(L1DKind::DyFuse, get_ipc, 0);
    const std::vector<double> norm =
        results.normalizedSeries(L1DKind::DyFuse, L1DKind::L1Sram,
                                 get_ipc, 0, 0);
    ASSERT_EQ(base.size(), 2u);
    ASSERT_EQ(norm.size(), 2u);
    for (std::size_t i = 0; i < norm.size(); ++i)
        EXPECT_DOUBLE_EQ(norm[i], dy[i] / base[i]);
}

TEST(ResultSet, FindMissesGracefully)
{
    const ResultSet results = SweepRunner(2).run(smallSpec());
    EXPECT_NE(results.find("ATAX", L1DKind::DyFuse, 1), nullptr);
    EXPECT_EQ(results.find("MVT", L1DKind::DyFuse), nullptr);
    EXPECT_EQ(results.find("ATAX", L1DKind::Oracle), nullptr);
    EXPECT_EQ(results.find("ATAX", L1DKind::DyFuse, 2), nullptr);
}

// ------------------------------------------------------- exporters

TEST(Export, CsvRoundTripIsValueExact)
{
    const ResultSet results = SweepRunner(2).run(smallSpec());
    std::stringstream ss;
    writeCsv(ss, results);
    const std::vector<FlatRun> readback = readCsv(ss);

    ASSERT_EQ(readback.size(), results.size());
    std::size_t i = 0;
    for (const auto &run : results.runs()) {
        const FlatRun &flat = readback[i++];
        EXPECT_EQ(flat.benchmark, run.benchmark);
        EXPECT_EQ(flat.kind, toString(run.kind));
        EXPECT_EQ(flat.variantLabel, run.variantLabel);
        for (const auto &field : metricFields()) {
            const auto it = flat.values.find(field.name);
            ASSERT_NE(it, flat.values.end()) << field.name;
            EXPECT_EQ(it->second, field.get(run.metrics)) << field.name;
        }
    }
}

TEST(Export, JsonRoundTripIsValueExact)
{
    const ResultSet results = SweepRunner(2).run(smallSpec());
    std::stringstream ss;
    writeJson(ss, results);
    const std::vector<FlatRun> readback = readJson(ss);

    ASSERT_EQ(readback.size(), results.size());
    std::size_t i = 0;
    for (const auto &run : results.runs()) {
        const FlatRun &flat = readback[i++];
        EXPECT_EQ(flat.benchmark, run.benchmark);
        EXPECT_EQ(flat.kind, toString(run.kind));
        EXPECT_EQ(flat.variantLabel, run.variantLabel);
        for (const auto &field : metricFields()) {
            const auto it = flat.values.find(field.name);
            ASSERT_NE(it, flat.values.end()) << field.name;
            EXPECT_EQ(it->second, field.get(run.metrics)) << field.name;
        }
    }
}

TEST(Export, MetricValueLooksUpByName)
{
    Metrics m;
    m.ipc = 1.5;
    m.cycles = 42;
    EXPECT_DOUBLE_EQ(metricValue(m, "ipc"), 1.5);
    EXPECT_DOUBLE_EQ(metricValue(m, "cycles"), 42.0);
}

// --------------------------------------------------------- figures

TEST(Figures, RegistryCoversEveryBenchBinary)
{
    // One entry per figure/table binary in bench/ (micro_components is
    // a host-side google-benchmark suite, not a paper figure).
    EXPECT_EQ(figures().size(), 15u);
    for (const auto &fig : figures()) {
        EXPECT_NE(findFigure(fig.name), nullptr);
        // Specs must materialise without errors.
        const ExperimentSpec spec = fig.makeSpec();
        for (std::size_t v = 0; v < spec.variantCount(); ++v)
            spec.configFor(v);
    }
    EXPECT_EQ(findFigure("not-a-figure"), nullptr);
}

// The repeat checks on spec text and CLI lists must never trip on a
// registered figure, and a figure must not weigh a workload twice.
TEST(Figures, SpecsListEachBenchmarkAndKindOnce)
{
    for (const auto &fig : figures()) {
        const ExperimentSpec spec = fig.makeSpec();
        std::vector<std::string> benchmarks = spec.benchmarks;
        std::sort(benchmarks.begin(), benchmarks.end());
        EXPECT_EQ(std::adjacent_find(benchmarks.begin(), benchmarks.end()),
                  benchmarks.end())
            << fig.name;
        std::vector<L1DKind> kinds = spec.kinds;
        std::sort(kinds.begin(), kinds.end());
        EXPECT_EQ(std::adjacent_find(kinds.begin(), kinds.end()),
                  kinds.end())
            << fig.name;
    }
}

TEST(Figures, Fig13SpecMatchesThePaperGrid)
{
    const Figure *fig = findFigure("fig13");
    ASSERT_NE(fig, nullptr);
    const ExperimentSpec spec = fig->makeSpec();
    EXPECT_EQ(spec.benchmarks.size(), 21u);
    EXPECT_EQ(spec.kinds.size(), 7u);
    EXPECT_EQ(spec.runCount(), 21u * 7u);
    EXPECT_EQ(spec.base, "fermi");
}

} // namespace
} // namespace fuse
