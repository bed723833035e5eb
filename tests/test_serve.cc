/**
 * @file
 * Tests for the campaign service stack: canonical point serialization
 * and its committed content-hash goldens, the shared strict count
 * parser, the content-addressed ResultStore, and CampaignService end to
 * end — cold/warm cache behaviour, byte-identical cached-vs-fresh
 * exports, the failure ledger, fingerprint-keyed cache invalidation,
 * and the build identity the fingerprint is.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/bitops.hh"
#include "common/cli.hh"
#include "exp/canonical.hh"
#include "exp/export.hh"
#include "exp/sweep_runner.hh"
#include "serve/campaign.hh"
#include "serve/result_store.hh"

namespace fuse
{
namespace
{

namespace fs = std::filesystem;

/** A fresh temp directory the test owns (removed by ~TempDir). */
struct TempDir
{
    TempDir()
    {
        char tmpl[] = "/tmp/fuse_serve_test_XXXXXX";
        const char *dir = ::mkdtemp(tmpl);
        if (!dir)
            throw std::runtime_error("mkdtemp failed");
        path = dir;
    }
    ~TempDir() { fs::remove_all(path); }
    std::string path;
};

/** The fixed spec behind the committed hash goldens: base "test" with a
 *  pinned instruction budget, so neither FUSE_FAST nor preset drift in
 *  fermi()/volta() can move the goldens. */
ExperimentSpec
goldenSpec()
{
    ExperimentSpec spec;
    spec.name = "golden";
    spec.base = "test";
    spec.benchmarks = {"ATAX", "BICG"};
    spec.kinds = {L1DKind::L1Sram, L1DKind::DyFuse};
    spec.seed = 7;
    spec.variants = {ConfigVariant{
        "probe", {ConfigOverride{"gpu.instructionBudgetPerSm", 2000.0}}}};
    return spec;
}

/** Distinct, non-round values in every exported metric field. */
Metrics
syntheticMetrics(double seed)
{
    Metrics m;
    double i = 1.0;
    for (const auto &f : metricFields()) {
        f.set(m, seed + i / 3.0);
        i += 1.0;
    }
    return m;
}

RunResult
syntheticRun(const std::string &benchmark, L1DKind kind, double seed)
{
    RunResult run;
    run.benchmark = benchmark;
    run.kind = kind;
    run.variant = 0;
    run.variantLabel = "";
    run.metrics = syntheticMetrics(seed);
    run.valid = true;
    return run;
}

// ----------------------------------------------------- content hashing

TEST(ContentHash, Fnv1a64KnownVectors)
{
    // Offset basis for the empty string; standard FNV-1a test vector
    // for "a".
    EXPECT_EQ(fnv1a64(std::string()), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64(std::string("a")), 0xaf63dc4c8601ec8cull);
}

TEST(ContentHash, HexDigestIsFixedWidthLowercase)
{
    EXPECT_EQ(hexDigest64(0), "0000000000000000");
    EXPECT_EQ(hexDigest64(0xdeadbeefull), "00000000deadbeef");
    EXPECT_EQ(hexDigest64(~0ull), "ffffffffffffffff");
}

// ----------------------------------------------------- canonical points

TEST(Canonical, ConfigTextIsDeterministic)
{
    const SimConfig config = SimConfig::testScale();
    EXPECT_EQ(canonicalConfig(config), canonicalConfig(config));
    EXPECT_NE(canonicalConfig(config).find("gpu.numSms = 4"),
              std::string::npos);
}

TEST(Canonical, BehaviouralFieldsSplitTheCache)
{
    SimConfig a = SimConfig::testScale();
    SimConfig b = SimConfig::testScale();
    b.l1d.sramAreaFraction = 0.25;
    EXPECT_NE(canonicalConfig(a), canonicalConfig(b));
    b = SimConfig::testScale();
    b.gpu.traceSeed = 99;
    EXPECT_NE(canonicalConfig(a), canonicalConfig(b));
}

TEST(Canonical, PointTextNamesWorkloadAndKind)
{
    const ExperimentSpec spec = goldenSpec();
    const std::string text = canonicalSpecPoint(spec, 0, 0, 0);
    EXPECT_NE(text.find("benchmark = ATAX"), std::string::npos);
    EXPECT_NE(text.find("kind = L1-SRAM"), std::string::npos);
    // The spec's seed reaches the point through the materialised config.
    EXPECT_NE(text.find("gpu.traceSeed = 7"), std::string::npos);
    // The variant override is applied, not merely named.
    EXPECT_NE(text.find("gpu.instructionBudgetPerSm = 2000"),
              std::string::npos);
}

TEST(Canonical, CommittedHashGoldens)
{
    // Committed goldens: these pin the canonical format itself. A
    // mismatch means the cache-key definition changed — every existing
    // store goes cold. If that is intentional, update the goldens AND
    // bump the store record format in serve/result_store.cc.
    const ExperimentSpec spec = goldenSpec();
    EXPECT_EQ(hexDigest64(pointContentHash(spec, 0, 0, 0)),
              "57a14b7af3f6472e");
    EXPECT_EQ(hexDigest64(pointContentHash(spec, 0, 0, 1)),
              "957660b0a0de68e0");
    EXPECT_EQ(hexDigest64(pointContentHash(spec, 1, 0, 0)),
              "57fdabaa57dbc145");
    EXPECT_EQ(hexDigest64(pointContentHash(spec, 1, 0, 1)),
              "644d95d4892f5487");
}

TEST(Canonical, HashGoldensAreFastModeIndependent)
{
    // FUSE_FAST scales preset budgets; the golden spec pins its budget
    // by override, so the hashes must not move.
    const ExperimentSpec spec = goldenSpec();
    const std::uint64_t plain = pointContentHash(spec, 0, 0, 0);
    ::setenv("FUSE_FAST", "1", 1);
    const std::uint64_t fast = pointContentHash(spec, 0, 0, 0);
    ::unsetenv("FUSE_FAST");
    EXPECT_EQ(plain, fast);
}

// ----------------------------------------------------- parseCount

TEST(ParseCount, AcceptsBounds)
{
    EXPECT_EQ(parseCount("--threads", "1"), 1u);
    EXPECT_EQ(parseCount("--threads", "4096"), 4096u);
    EXPECT_EQ(parseCount("--threads", "17"), 17u);
    EXPECT_EQ(parseCount("--poll-ms", "60000", 1, 60000), 60000u);
}

TEST(ParseCountDeathTest, RejectsOutOfRangeAndGarbage)
{
    EXPECT_EXIT({ parseCount("--threads", "0"); },
                ::testing::ExitedWithCode(1), "--threads expects");
    EXPECT_EXIT({ parseCount("--threads", "4097"); },
                ::testing::ExitedWithCode(1), "\\[1, 4096\\]");
    EXPECT_EXIT({ parseCount("--threads", "-1"); },
                ::testing::ExitedWithCode(1), "--threads expects");
    EXPECT_EXIT({ parseCount("--threads", "abc"); },
                ::testing::ExitedWithCode(1), "--threads expects");
    EXPECT_EXIT({ parseCount("--threads", "1.5"); },
                ::testing::ExitedWithCode(1), "--threads expects");
    EXPECT_EXIT({ parseCount("--threads", ""); },
                ::testing::ExitedWithCode(1), "--threads expects");
    EXPECT_EXIT({ parseCount("--threads", "12x"); },
                ::testing::ExitedWithCode(1), "--threads expects");
    EXPECT_EXIT({ parseCount("--q", "5", 1, 4); },
                ::testing::ExitedWithCode(1), "\\[1, 4\\]");
}

TEST(ParseCount, ThreadCountForwarderKeepsTheContract)
{
    EXPECT_EQ(parseThreadCount("--threads", "8"), 8u);
}

// ----------------------------------------------------- ResultStore

TEST(ResultStore, PutGetRoundTripsEveryExportedField)
{
    TempDir tmp;
    ResultStore store(tmp.path + "/store");
    const RunResult put = syntheticRun("ATAX", L1DKind::DyFuse, 3.0);
    store.put("00000000000000aa", put, "point text\n");

    RunResult got;
    ASSERT_TRUE(store.get("00000000000000aa", got));
    EXPECT_TRUE(got.valid);
    EXPECT_EQ(got.benchmark, "ATAX");
    EXPECT_EQ(got.kind, L1DKind::DyFuse);
    // %.17g round-trips doubles bit for bit.
    for (const auto &f : metricFields())
        EXPECT_EQ(f.get(got.metrics), f.get(put.metrics)) << f.name;
}

TEST(ResultStore, MissesEvictionAndSize)
{
    TempDir tmp;
    ResultStore store(tmp.path + "/store");
    RunResult out;
    EXPECT_FALSE(store.contains("00000000000000aa"));
    EXPECT_FALSE(store.get("00000000000000aa", out));
    EXPECT_EQ(store.size(), 0u);

    store.put("00000000000000aa",
              syntheticRun("ATAX", L1DKind::L1Sram, 1.0), "a\n");
    store.put("00000000000000bb",
              syntheticRun("BICG", L1DKind::DyFuse, 2.0), "b\n");
    EXPECT_EQ(store.size(), 2u);
    EXPECT_TRUE(store.contains("00000000000000aa"));

    EXPECT_TRUE(store.evict("00000000000000aa"));
    EXPECT_FALSE(store.evict("00000000000000aa"));
    EXPECT_FALSE(store.contains("00000000000000aa"));
    EXPECT_EQ(store.size(), 1u);

    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.contains("00000000000000bb"));
}

TEST(ResultStore, PersistsAcrossInstances)
{
    TempDir tmp;
    {
        ResultStore store(tmp.path + "/store");
        store.put("00000000000000cc",
                  syntheticRun("MVT", L1DKind::Hybrid, 5.0), "c\n");
    }
    ResultStore reopened(tmp.path + "/store");
    RunResult out;
    EXPECT_TRUE(reopened.get("00000000000000cc", out));
    EXPECT_EQ(out.benchmark, "MVT");
}

TEST(ResultStore, WritesAnAuditSidecar)
{
    TempDir tmp;
    ResultStore store(tmp.path + "/store");
    store.put("00000000000000dd",
              syntheticRun("ATAX", L1DKind::L1Sram, 1.0),
              "the canonical text\n");
    std::ifstream is(tmp.path + "/store/00000000000000dd.point");
    std::stringstream buffer;
    buffer << is.rdbuf();
    EXPECT_EQ(buffer.str(), "the canonical text\n");
}

TEST(ResultStore, ClearRemovesRecordsSidecarsAndStagedRecords)
{
    TempDir tmp;
    ResultStore store(tmp.path + "/store");
    store.put("00000000000000ab",
              syntheticRun("ATAX", L1DKind::L1Sram, 1.0), "a\n");
    // What a writer killed between staging and rename leaves behind.
    const std::string staged =
        tmp.path + "/store/00000000000000ab.json.tmp7";
    std::ofstream(staged) << "{";
    // A file the store did not write stays.
    const std::string foreign = tmp.path + "/store/README";
    std::ofstream(foreign) << "notes\n";

    store.clear();
    EXPECT_FALSE(fs::exists(tmp.path + "/store/00000000000000ab.json"));
    EXPECT_FALSE(fs::exists(tmp.path + "/store/00000000000000ab.point"));
    EXPECT_FALSE(fs::exists(staged));
    EXPECT_TRUE(fs::exists(foreign));
}

TEST(ResultStoreDeathTest, CorruptRecordIsFatalNotAMiss)
{
    TempDir tmp;
    ResultStore store(tmp.path + "/store");
    {
        std::ofstream os(tmp.path + "/store/00000000000000ee.json");
        os << "{\"experiment\": \"something_else\", \"runs\": []}\n";
    }
    RunResult out;
    EXPECT_EXIT({ store.get("00000000000000ee", out); },
                ::testing::ExitedWithCode(1), "not a fuse_serve/v1");
}

// ----------------------------------------------------- CampaignService

/** Service over a synthetic point runner: fast, deterministic, and
 *  per-point distinct (the metrics encode the grid coordinates). */
ServeOptions
pinnedOptions(const std::string &store_dir, std::uint64_t fingerprint = 42)
{
    ServeOptions options;
    options.storeDir = store_dir;
    options.workers = 2;
    options.fingerprint = fingerprint;
    return options;
}

CampaignService::PointRunner
syntheticRunner()
{
    return [](const ExperimentSpec &, std::size_t b, std::size_t v,
              std::size_t k) {
        return syntheticMetrics(1.0 + 100.0 * static_cast<double>(b)
                                + 10.0 * static_cast<double>(v)
                                + static_cast<double>(k));
    };
}

TEST(Campaign, ColdThenWarmServesByteIdenticalExports)
{
    TempDir tmp;
    const ExperimentSpec spec = goldenSpec();

    CampaignService cold(pinnedOptions(tmp.path + "/store"));
    cold.setPointRunner(syntheticRunner());
    const ResultSet first = cold.serve(spec);
    EXPECT_EQ(cold.stats().points, 4u);
    EXPECT_EQ(cold.stats().hits, 0u);
    EXPECT_EQ(cold.stats().misses, 4u);
    EXPECT_EQ(cold.stats().simulations, 4u);

    CampaignService warm(pinnedOptions(tmp.path + "/store"));
    warm.setPointRunner([](const ExperimentSpec &, std::size_t,
                           std::size_t, std::size_t) -> Metrics {
        throw std::runtime_error("warm pass must not simulate");
    });
    const ResultSet second = warm.serve(spec);
    EXPECT_EQ(warm.stats().hits, 4u);
    EXPECT_EQ(warm.stats().misses, 0u);
    EXPECT_EQ(warm.stats().simulations, 0u);
    EXPECT_TRUE(warm.failures().empty());

    std::ostringstream a, b;
    writeJson(a, first);
    writeJson(b, second);
    EXPECT_EQ(a.str(), b.str());
    std::ostringstream ca, cb;
    writeCsv(ca, first);
    writeCsv(cb, second);
    EXPECT_EQ(ca.str(), cb.str());
}

TEST(Campaign, OverlappingCampaignsShareTheStore)
{
    TempDir tmp;
    ExperimentSpec spec = goldenSpec();
    CampaignService service(pinnedOptions(tmp.path + "/store"));
    service.setPointRunner(syntheticRunner());

    spec.benchmarks = {"ATAX", "BICG"};
    service.serve(spec);
    EXPECT_EQ(service.stats().simulations, 4u);

    // BICG's two points are warm; MVT's two are cold.
    spec.benchmarks = {"BICG", "MVT"};
    service.serve(spec);
    EXPECT_EQ(service.stats().campaigns, 2u);
    EXPECT_EQ(service.stats().points, 8u);
    EXPECT_EQ(service.stats().hits, 2u);
    EXPECT_EQ(service.stats().simulations, 6u);
    EXPECT_EQ(service.store().size(), 6u);
}

TEST(Campaign, VariantsDecodeIntoTheRightCells)
{
    TempDir tmp;
    ExperimentSpec spec = goldenSpec();
    // 0.25 differs from the preset default: variants that materialise
    // to the same config intentionally share one cache key, so a
    // meaningful second variant must actually change the machine.
    spec.variants.push_back(ConfigVariant{
        "quarter", {ConfigOverride{"l1d.sramAreaFraction", 0.25},
                    ConfigOverride{"gpu.instructionBudgetPerSm", 2000.0}}});
    CampaignService service(pinnedOptions(tmp.path + "/store"));
    service.setPointRunner(syntheticRunner());

    const ResultSet results = service.serve(spec);
    EXPECT_EQ(service.stats().points, 8u);
    for (const auto &run : results.runs()) {
        ASSERT_TRUE(run.valid);
        EXPECT_EQ(run.variantLabel,
                  run.variant == 0 ? "probe" : "quarter");
        // The synthetic metrics encode (b, v, k): rebuild the expected
        // record through the same setters (integral fields truncate)
        // and compare a genuinely-double field.
        const std::size_t b = run.benchmark == "ATAX" ? 0 : 1;
        const std::size_t k = run.kind == L1DKind::L1Sram ? 0 : 1;
        const Metrics expect = syntheticRunner()(spec, b, run.variant, k);
        EXPECT_DOUBLE_EQ(metricValue(run.metrics, "ipc"),
                         metricValue(expect, "ipc"));
    }

    // And the warm pass hits every variant cell.
    CampaignService warm(pinnedOptions(tmp.path + "/store"));
    warm.serve(spec);
    EXPECT_EQ(warm.stats().hits, 8u);
}

TEST(Campaign, FingerprintChangeGoesColdWithoutCrossServing)
{
    TempDir tmp;
    const ExperimentSpec spec = goldenSpec();
    CampaignService old_build(pinnedOptions(tmp.path + "/store", 42));
    old_build.setPointRunner(syntheticRunner());
    old_build.serve(spec);

    // Same store, "rebuilt" binary: every point must re-simulate.
    CampaignService new_build(pinnedOptions(tmp.path + "/store", 43));
    new_build.setPointRunner(syntheticRunner());
    new_build.serve(spec);
    EXPECT_EQ(new_build.stats().hits, 0u);
    EXPECT_EQ(new_build.stats().simulations, 4u);
    EXPECT_EQ(new_build.store().size(), 8u);
}

TEST(Campaign, ThrowingPointsLandInTheLedgerAndStayInvalid)
{
    TempDir tmp;
    const ExperimentSpec spec = goldenSpec();
    ServeOptions options = pinnedOptions(tmp.path + "/store");
    options.workers = 4;
    CampaignService service(options);
    service.setPointRunner([](const ExperimentSpec &s, std::size_t b,
                              std::size_t v, std::size_t k) -> Metrics {
        // Grid points 1 and 2 throw. The earlier one throws last, so
        // the ledger's grid order cannot come from completion order.
        if (b == 0 && k == 1) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            throw std::runtime_error("ATAX is cursed");
        }
        if (b == 1 && k == 0)
            throw std::runtime_error("BICG is cursed");
        return syntheticRunner()(s, b, v, k);
    });

    const ResultSet results = service.serve(spec);
    EXPECT_EQ(service.stats().failures, 2u);
    EXPECT_EQ(service.stats().simulations, 2u);
    EXPECT_EQ(service.stats().retries, 0u);
    ASSERT_EQ(service.failures().size(), 2u);
    EXPECT_EQ(service.failures()[0].label, "ATAX/Dy-FUSE/probe");
    EXPECT_EQ(service.failures()[0].error, "ATAX is cursed");
    EXPECT_EQ(service.failures()[1].label, "BICG/L1-SRAM/probe");
    EXPECT_EQ(service.failures()[1].error, "BICG is cursed");

    EXPECT_TRUE(results.at(0).valid);
    EXPECT_FALSE(results.at(1).valid);
    EXPECT_FALSE(results.at(2).valid);
    EXPECT_TRUE(results.at(3).valid);
    RunResult stored;
    EXPECT_FALSE(service.store().get(service.cacheKey(spec, 0, 0, 1),
                                     stored));
    EXPECT_FALSE(service.store().get(service.cacheKey(spec, 1, 0, 0),
                                     stored));
    EXPECT_EQ(service.store().size(), 2u);

    // The failed points were never stored, so a resubmission with a
    // healthy runner re-simulates only the two holes.
    CampaignService repaired(options);
    repaired.setPointRunner(syntheticRunner());
    repaired.serve(spec);
    EXPECT_EQ(repaired.stats().hits, 2u);
    EXPECT_EQ(repaired.stats().simulations, 2u);
    EXPECT_TRUE(repaired.failures().empty());
}

TEST(Campaign, ServedGridMatchesADirectSweepByteForByte)
{
    // The real integration property behind the CI round trip: a served
    // campaign (real simulations, then real cache reads) exports the
    // same bytes a plain SweepRunner sweep does, with the cold points
    // simulated serially or across worker threads. The first full pass
    // stitches cached ATAX cells and fresh BICG cells through
    // ResultSet::merge, so a partial grid merged back must equal the
    // full run. Tiny grid: test-scale preset at a 2000-instruction
    // budget.
    const ExperimentSpec spec = goldenSpec();
    SweepRunner runner(1);
    std::ostringstream direct;
    writeJson(direct, runner.run(spec));

    for (unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(workers);
        TempDir tmp;
        ServeOptions options = pinnedOptions(tmp.path + "/store");
        options.workers = workers;
        CampaignService service(options);
        ExperimentSpec atax = spec;
        atax.benchmarks = {"ATAX"};
        service.serve(atax);
        std::ostringstream mixed, warm;
        writeJson(mixed, service.serve(spec));
        EXPECT_EQ(service.stats().hits, 2u);
        writeJson(warm, service.serve(spec));
        EXPECT_EQ(service.stats().hits, 6u);
        EXPECT_EQ(service.stats().simulations, 4u);

        EXPECT_EQ(mixed.str(), direct.str());
        EXPECT_EQ(warm.str(), direct.str());
    }
}

TEST(Campaign, BinaryFingerprintIsStable)
{
    const std::uint64_t first = binaryFingerprint();
    EXPECT_NE(first, 0u);
    EXPECT_EQ(binaryFingerprint(), first);
    // Two uncached computations of the build identity agree with it.
    EXPECT_EQ(buildIdentity(), first);
    EXPECT_EQ(buildIdentity(), first);
}

// ------------------------------------------------------- build identity

/** Write @p bytes to @p path, replacing any previous content. */
void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
}

TEST(BuildIdentity, EveryByteLengthAndOrderCounts)
{
    TempDir tmp;
    const std::string a = tmp.path + "/a.so";
    const std::string b = tmp.path + "/b.so";
    // Lengths that end mid-word and past a 64 KiB read buffer.
    std::string bytes_a(70000 + 3, '\0');
    for (std::size_t i = 0; i < bytes_a.size(); ++i)
        bytes_a[i] = static_cast<char>(i * 131 % 251);
    const std::string bytes_b = "a second object";
    writeBytes(a, bytes_a);
    writeBytes(b, bytes_b);
    const std::uint64_t base = hashBuildObjects({a, b}, 0);
    EXPECT_EQ(hashBuildObjects({a, b}, 0), base);

    EXPECT_NE(hashBuildObjects({b, a}, 0), base);   // order
    EXPECT_NE(hashBuildObjects({a, b}, 1), base);   // CPU features
    EXPECT_NE(hashBuildObjects({a}, 0), base);      // object set

    for (std::size_t at : {std::size_t{0}, std::size_t{65537},
                           bytes_a.size() - 1}) {
        SCOPED_TRACE(at);
        std::string flipped = bytes_a;
        flipped[at] = static_cast<char>(flipped[at] ^ 0x80);
        writeBytes(a, flipped);
        EXPECT_NE(hashBuildObjects({a, b}, 0), base);
    }
    writeBytes(a, bytes_a);
    EXPECT_EQ(hashBuildObjects({a, b}, 0), base);

    // One appended byte, even a zero one, changes the hash.
    writeBytes(a, bytes_a + std::string(1, '\0'));
    EXPECT_NE(hashBuildObjects({a, b}, 0), base);
    writeBytes(a, bytes_a + "x");
    EXPECT_NE(hashBuildObjects({a, b}, 0), base);
}

TEST(BuildIdentityDeathTest, UnreadableObjectIsFatal)
{
    TempDir tmp;
    EXPECT_EXIT(hashBuildObjects({tmp.path + "/missing.so"}, 0),
                ::testing::ExitedWithCode(1), "cannot read build object");
    // A directory opens but cannot be read.
    EXPECT_EXIT(hashBuildObjects({tmp.path}, 0),
                ::testing::ExitedWithCode(1), "cannot read build object");
}

} // namespace
} // namespace fuse
