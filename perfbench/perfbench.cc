/**
 * @file
 * perfbench: the measuring program behind `python3 perfbench/run.py`.
 * One process runs one workload closed-loop for a fixed time, checks
 * what it produced, and writes its raw samples as a JSON document that
 * run.py turns into the reported metrics. Every simulation builds a fresh
 * Gpu, so the modelled caches start empty on every point.
 *
 * Workloads (see README.md for why each exists):
 *   headline      21 Table II workloads x {L1-SRAM, Dy-FUSE}, Fermi, full
 *                 budgets, through one SweepRunner
 *   compute_sram  6 compute-bound workloads x {L1-SRAM, FA-SRAM}
 *   serve_dse     overlapping fig18 campaigns through one CampaignService
 *
 * Modes:
 *   setup    build the workload's inputs, stop at the first timed call
 *   measure  setup, timed passes, correctness gate, paper-comparison
 *            cells, host capacity record
 *   trace    measure, then time calls into each src/ layer from here
 *   counts   setup and timed passes only, reading the src/prof site
 *            counters (needs the FUSE_PROF build, perfbench_prof)
 *
 * Usage:
 *   perfbench --workload NAME --mode MODE --out FILE --scratch DIR
 *             [--seed N] [--seconds S]
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/log.hh"
#include "energy/energy_model.hh"
#include "exp/canonical.hh"
#include "exp/export.hh"
#include "exp/figures.hh"
#include "exp/sweep_runner.hh"
#include "fuse/hybrid_l1d.hh"
#include "fuse/l1d_factory.hh"
#include "gpu/coalescer.hh"
#include "gpu/gpu.hh"
#include "mem/hierarchy.hh"
#include "prof/prof.hh"
#include "serve/campaign.hh"
#include "serve/result_store.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"

namespace
{

using namespace fuse;
using Clock = std::chrono::steady_clock;

/** Per-SM budget pinned on every serve_dse point by override, so it is
 *  part of each cache key, as binaryFingerprint() pins its probe. A third
 *  of the full Fermi budget keeps a pass near two seconds while each point
 *  stays long enough (~0.1 s) that a brief host stall does not set its
 *  latency. */
constexpr double kServeBudgetPerSm = 10000;

/** Instructions decoded per benchmark by the layer replays. */
constexpr std::uint64_t kReplayInstructions = 16384;

/** A replayed transaction stalling this often means the replay is stuck. */
constexpr unsigned kMaxStallRetries = 1u << 20;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** CPU time of the calling thread. It leaves out time the thread waited
 *  for a CPU and, on a guest with steal-time accounting, time the
 *  hypervisor ran something else on its vCPU. */
double
threadCpuMs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

/** CPU time of every thread of this process, as threadCpuMs(). */
double
processCpuMs()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::string
exportJson(const ResultSet &results)
{
    std::ostringstream os;
    writeJson(os, results);
    return os.str();
}

unsigned
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return 1;
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** binaryFingerprint()'s first-call cost; later calls return the first
 *  measurement (the fingerprint itself is computed once per process). */
double
timedFingerprintMs()
{
    static const double ms = []() {
        const auto t0 = Clock::now();
        binaryFingerprint();
        return msBetween(t0, Clock::now());
    }();
    return ms;
}

/** One headline cell pair, the input of the paper-gap metrics. */
struct FidelityRow
{
    std::string benchmark;
    double ipc[2] = {0, 0};       ///< {L1-SRAM, Dy-FUSE}.
    double offchip[2] = {0, 0};
    double energy[2] = {0, 0};    ///< Total modelled energy.
};

/** Raw samples of one process, in the units run.py expects. */
struct Record
{
    double setupS = 0.0;
    std::vector<double> runMs;          ///< Per simulated point.
    std::vector<double> runCpuMs;       ///< Same points, thread CPU.
    std::vector<double> campaignMs;     ///< Per timed grid submission.
    std::vector<double> campaignCpuMs;  ///< Same, process CPU.
    std::vector<double> warmCampaignMs; ///< serve_dse all-hit resubmits.
    double busyS = 0.0;                 ///< Sum of submission latencies.
    double cpuS = 0.0;                  ///< Process CPU of submissions.
    std::uint64_t passes = 0;
    std::uint64_t points = 0;           ///< Grid points delivered.
    std::uint64_t simInstructions = 0;  ///< Warp instructions simulated.
    std::uint64_t invalidRuns = 0;      ///< Invalid or wrong-length points.
    std::uint64_t serveFailures = 0;
    std::uint64_t serveRetries = 0;
    std::vector<std::pair<std::string, bool>> checks;
    double sweepWallS = 0.0;            ///< Sum of SweepRunner::run walls.
    double sweepPointS = 0.0;           ///< Sum of point walls / workers.
    double peakRssMb = 0.0;
    std::string simDigest;
    std::vector<FidelityRow> fidelity;
    std::vector<double> capacity;       ///< Spin-loop capacity at 1..nproc.
    std::map<std::string, double> layers;
};

/** One distinct simulation a workload performs. */
struct Point
{
    SimConfig config;
    std::string benchmark;
    L1DKind kind = L1DKind::L1Sram;
};

/** Invalid cells, or cells that did not retire their full budget. */
std::uint64_t
countInvalid(const ResultSet &results, const ExperimentSpec &spec)
{
    std::uint64_t bad = 0;
    for (const RunResult &run : results.runs()) {
        const GpuConfig &gpu = spec.configFor(run.variant).gpu;
        if (!run.valid
            || run.metrics.instructions
                   != gpu.numSms * gpu.instructionBudgetPerSm)
            ++bad;
    }
    return bad;
}

std::vector<Point>
specPoints(const ExperimentSpec &spec)
{
    std::vector<Point> points;
    for (const std::string &b : spec.benchmarks)
        for (std::size_t v = 0; v < spec.variantCount(); ++v)
            for (L1DKind k : spec.kinds)
                points.push_back({spec.configFor(v), b, k});
    return points;
}

/** fig13's spec restricted to its L1-SRAM and Dy-FUSE columns. Cells are
 *  seeded from the spec alone, so they equal the full figure's cells. */
ExperimentSpec
headlineSpec(std::uint64_t seed)
{
    ExperimentSpec spec = findFigure("fig13")->makeSpec();
    spec.kinds = {L1DKind::L1Sram, L1DKind::DyFuse};
    spec.seed = seed;
    return spec;
}

std::vector<FidelityRow>
fidelityRows(const ResultSet &results)
{
    std::vector<FidelityRow> rows;
    const L1DKind kinds[2] = {L1DKind::L1Sram, L1DKind::DyFuse};
    for (const std::string &name : results.benchmarks()) {
        FidelityRow row;
        row.benchmark = name;
        for (int i = 0; i < 2; ++i) {
            const Metrics &m = results.metrics(name, kinds[i]);
            row.ipc[i] = m.ipc;
            row.offchip[i] = static_cast<double>(m.offchipRequests);
            row.energy[i] = m.energy.total();
        }
        rows.push_back(row);
    }
    return rows;
}

class Workload
{
  public:
    explicit Workload(unsigned workers) : workers_(workers) {}
    virtual ~Workload() = default;

    unsigned workers() const { return workers_; }

    /** One closed-loop round of submissions; the timed unit. */
    virtual void pass(Record &rec) = 0;

    /** Correctness gate over everything the passes produced. */
    virtual void verify(Record &rec) = 0;

    /** The grid whose writeJson export is the workload's sim_digest. */
    virtual const ResultSet &digestResults() const = 0;
    virtual const ExperimentSpec &digestSpec() const = 0;

    /** Every spec the workload submits. */
    virtual std::vector<const ExperimentSpec *> specs() const = 0;

  protected:
    unsigned workers_;
};

/** headline and compute_sram: whole grids through one SweepRunner. */
class GridWorkload : public Workload
{
  public:
    GridWorkload(ExperimentSpec spec, unsigned workers, bool serial_check)
        : Workload(workers), spec_(std::move(spec)), runner_(workers),
          serialCheck_(serial_check)
    {}

    void pass(Record &rec) override
    {
        // Each point's latency is the gap between consecutive completions
        // on one worker thread (the first measured from the pass start).
        // Callbacks are serialised by the runner, so no lock is needed.
        // The runner starts its other workers afresh each pass, so their
        // first point's CPU time is all of their CPU time.
        std::map<std::thread::id, Clock::time_point> last;
        std::map<std::thread::id, double> lastCpu = {
            {std::this_thread::get_id(), threadCpuMs()}};
        double point_ms = 0.0;
        const Clock::time_point start = Clock::now();
        const double start_cpu = processCpuMs();
        runner_.onProgress([&](const RunResult &run, std::size_t,
                               std::size_t) {
            const Clock::time_point now = Clock::now();
            const double cpu = threadCpuMs();
            const auto it = last.find(std::this_thread::get_id());
            const double ms =
                msBetween(it == last.end() ? start : it->second, now);
            last[std::this_thread::get_id()] = now;
            double &prev_cpu = lastCpu[std::this_thread::get_id()];
            rec.runCpuMs.push_back(cpu - prev_cpu);
            prev_cpu = cpu;
            rec.runMs.push_back(ms);
            point_ms += ms;
            rec.simInstructions += run.metrics.instructions;
        });
        ResultSet results = runner_.run(spec_);
        const double ms = msBetween(start, Clock::now());
        const double cpu_ms = processCpuMs() - start_cpu;
        runner_.onProgress(nullptr);

        rec.campaignMs.push_back(ms);
        rec.campaignCpuMs.push_back(cpu_ms);
        rec.cpuS += cpu_ms / 1000.0;
        rec.busyS += ms / 1000.0;
        rec.points += results.size();
        rec.invalidRuns += countInvalid(results, spec_);
        const double workers = static_cast<double>(
            std::min<std::size_t>(workers_, results.size()));
        rec.sweepWallS += ms / 1000.0;
        rec.sweepPointS += point_ms / 1000.0 / workers;

        std::string json = exportJson(results);
        if (firstExport_.empty()) {
            firstExport_ = std::move(json);
            first_ = std::move(results);
        } else if (json != firstExport_) {
            ++divergentPasses_;
        }
    }

    void verify(Record &rec) override
    {
        rec.checks.emplace_back("passes_byte_identical",
                                divergentPasses_ == 0);
        if (serialCheck_) {
            SweepRunner serial(1);
            rec.checks.emplace_back(
                "cells_match_serial_fig13",
                exportJson(serial.run(spec_)) == firstExport_);
        }
    }

    const ResultSet &digestResults() const override { return first_; }
    const ExperimentSpec &digestSpec() const override { return spec_; }
    std::vector<const ExperimentSpec *> specs() const override
    {
        return {&spec_};
    }

  private:
    ExperimentSpec spec_;
    SweepRunner runner_;
    bool serialCheck_;
    std::string firstExport_;
    ResultSet first_;
    std::uint64_t divergentPasses_ = 0;
};

/**
 * serve_dse: one client submits a sliding window of 3 of the 9
 * sensitivity workloads x fig18's 5 SRAM-area variants x Dy-FUSE (each
 * window shares 2 workloads with the previous one), then resubmits the
 * whole grid, which must be all hits. The store is emptied at the start
 * of every pass.
 */
class ServeWorkload : public Workload
{
  public:
    ServeWorkload(std::uint64_t seed, unsigned workers,
                  const std::string &store_dir)
        : Workload(workers)
    {
        grid_ = findFigure("fig18")->makeSpec();
        grid_.name = "serve_dse";
        grid_.seed = seed;
        for (ConfigVariant &variant : grid_.variants)
            variant.overrides.push_back(
                {"gpu.instructionBudgetPerSm", kServeBudgetPerSm});
        for (std::size_t w = 0; w + 3 <= grid_.benchmarks.size(); ++w) {
            ExperimentSpec window = grid_;
            window.name = "serve_dse_" + std::to_string(w);
            window.benchmarks.assign(grid_.benchmarks.begin() + w,
                                     grid_.benchmarks.begin() + w + 3);
            windows_.push_back(std::move(window));
        }

        timedFingerprintMs();
        ServeOptions options;
        options.storeDir = store_dir;
        options.workers = workers;
        service_ = std::make_unique<CampaignService>(options);
        service_->setPointRunner(
            [this](const ExperimentSpec &spec, std::size_t b, std::size_t v,
                   std::size_t k) { return timedPoint(spec, b, v, k); });
    }

    void pass(Record &rec) override
    {
        rec_ = &rec;
        service_->store().clear();
        const ServeStats before = service_->stats();
        for (std::size_t w = 0; w < windows_.size(); ++w)
            submit(windows_[w], w, rec.campaignMs);
        const ServeStats cold = service_->stats();
        submit(grid_, windows_.size(), rec.warmCampaignMs);
        const ServeStats after = service_->stats();
        if (after.hits - cold.hits != grid_.runCount()
            || after.simulations != cold.simulations)
            ++warmMisses_;
        rec.serveFailures += after.failures - before.failures;
        rec.serveRetries += after.retries - before.retries;
        rec_ = nullptr;
    }

    void verify(Record &rec) override
    {
        rec.checks.emplace_back("passes_byte_identical",
                                divergentPasses_ == 0);
        rec.checks.emplace_back("warm_resubmission_all_hit",
                                warmMisses_ == 0);
        SweepRunner direct(workers_);
        bool match = true;
        for (std::size_t w = 0; w < windows_.size(); ++w)
            match = match
                    && exportJson(direct.run(windows_[w])) == exports_[w];
        match = match && exportJson(direct.run(grid_)) == exports_.back();
        rec.checks.emplace_back("campaigns_match_direct_sweep", match);
    }

    const ResultSet &digestResults() const override { return gridResults_; }
    const ExperimentSpec &digestSpec() const override { return grid_; }
    std::vector<const ExperimentSpec *> specs() const override
    {
        std::vector<const ExperimentSpec *> all;
        for (const ExperimentSpec &w : windows_)
            all.push_back(&w);
        all.push_back(&grid_);
        return all;
    }

    const ServeStats &stats() const { return service_->stats(); }

  private:
    void submit(const ExperimentSpec &spec, std::size_t index,
                std::vector<double> &latencies)
    {
        const Clock::time_point t0 = Clock::now();
        const double cpu0 = processCpuMs();
        ResultSet results = service_->serve(spec);
        const double ms = msBetween(t0, Clock::now());
        const double cpu_ms = processCpuMs() - cpu0;
        latencies.push_back(ms);
        if (&latencies == &rec_->campaignMs)
            rec_->campaignCpuMs.push_back(cpu_ms);
        rec_->cpuS += cpu_ms / 1000.0;
        rec_->busyS += ms / 1000.0;
        rec_->points += results.size();
        rec_->invalidRuns += countInvalid(results, spec);

        std::string json = exportJson(results);
        if (exports_.size() == index) {
            exports_.push_back(std::move(json));
            if (&spec == &grid_)
                gridResults_ = std::move(results);
        } else if (json != exports_[index]) {
            ++divergentPasses_;
        }
    }

    /** The service's own point runner (a one-cell subspec through a
     *  serial SweepRunner), timed. Runs on the service's worker threads. */
    Metrics timedPoint(const ExperimentSpec &spec, std::size_t b,
                       std::size_t v, std::size_t k)
    {
        ExperimentSpec sub = spec;
        sub.benchmarks = {spec.benchmarks.at(b)};
        sub.kinds = {spec.kinds.at(k)};
        if (!spec.variants.empty())
            sub.variants = {spec.variants.at(v)};
        SweepRunner runner(1);
        Clock::time_point simulated;
        runner.onProgress([&](const RunResult &, std::size_t, std::size_t) {
            simulated = Clock::now();
        });
        const Clock::time_point t0 = Clock::now();
        const double cpu0 = threadCpuMs();
        ResultSet results = runner.run(sub);
        const double cpu_ms = threadCpuMs() - cpu0;
        const Clock::time_point t1 = Clock::now();

        std::lock_guard<std::mutex> lock(recMutex_);
        rec_->runMs.push_back(msBetween(t0, t1));
        rec_->runCpuMs.push_back(cpu_ms);
        rec_->sweepWallS += msBetween(t0, t1) / 1000.0;
        rec_->sweepPointS += msBetween(t0, simulated) / 1000.0;
        rec_->simInstructions += results.at(0).metrics.instructions;
        return results.at(0).metrics;
    }

    ExperimentSpec grid_;
    std::vector<ExperimentSpec> windows_;
    std::unique_ptr<CampaignService> service_;
    std::mutex recMutex_; ///< Guards *rec_ against the service's workers.
    Record *rec_ = nullptr;
    std::vector<std::string> exports_; ///< First pass, per submission.
    ResultSet gridResults_;
    std::uint64_t divergentPasses_ = 0;
    std::uint64_t warmMisses_ = 0;
};

// ------------------------------------------------------------- host record

/** Wall time of @p threads threads each running the same fixed spin. */
double
spinWallMs(unsigned threads)
{
    std::vector<std::uint64_t> sinks(threads, 0);
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i) {
        pool.emplace_back([&sinks, i]() {
            std::uint64_t x = 1;
            for (std::uint32_t n = 0; n < 20'000'000; ++n)
                x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            sinks[i] = x;
        });
    }
    for (std::thread &th : pool)
        th.join();
    const double ms = msBetween(t0, Clock::now());
    if (std::count(sinks.begin(), sinks.end(), 0u) != 0)
        fuse_fatal("spin calibration produced no result");
    return ms;
}

/** Effective parallel capacity at 1..nproc threads: t x wall(1) / wall(t)
 *  for a fixed per-thread spin loop, each wall the median of 3 after one
 *  warm-up. t means t idle CPUs; less means other load shares them. */
std::vector<double>
parallelCapacity(unsigned max_threads)
{
    spinWallMs(1);
    std::vector<double> capacity;
    double single = 0.0;
    for (unsigned t = 1; t <= max_threads; ++t) {
        const double wall =
            median({spinWallMs(t), spinWallMs(t), spinWallMs(t)});
        if (t == 1)
            single = wall;
        capacity.push_back(t * single / wall);
    }
    return capacity;
}

// ------------------------------------------------------------ layer timing

/** Simulated statistics of one point, from a Gpu built here. */
struct GpuSample
{
    double buildMs = 0, runMs = 0, evaluateUs = 0;
    double instructions = 0, smCycles = 0, ipc = 0, memWait = 0;
    double l1dStall = 0;
    double hits = 0, misses = 0, bypasses = 0, stallStt = 0;
    double stallTagSearch = 0, swapHits = 0, tagQueueFull = 0;
    double tagQueuePushes = 0, predTrue = 0, predOutcomes = 0;
    double searchCycles = 0, searches = 0;
    double mshrAllocated = 0, mshrSecondary = 0, stallMshrFull = 0;
    double offchip = 0, l2HitRate = 0, roundTrip = 0, roundTrips = 0;
    double rowHits = 0, dramRequests = 0, networkShare = 0;
    double energyL1d = 0, energyOffchip = 0, energyTotal = 0;
};

GpuSample
sampleGpu(const Point &p)
{
    GpuSample s;
    const BenchmarkSpec &bench = benchmarkByName(p.benchmark);
    const Clock::time_point t0 = Clock::now();
    Gpu gpu(p.config.gpu, p.kind, p.config.l1d, bench);
    const Clock::time_point t1 = Clock::now();
    gpu.run();
    const Clock::time_point t2 = Clock::now();
    const EnergyBreakdown energy = EnergyModel(p.config.energy).evaluate(gpu);
    const Clock::time_point t3 = Clock::now();
    s.buildMs = msBetween(t0, t1);
    s.runMs = msBetween(t1, t2);
    s.evaluateUs = msBetween(t2, t3) * 1000.0;

    s.instructions = static_cast<double>(gpu.totalInstructions());
    s.smCycles = static_cast<double>(gpu.cycles()) * gpu.sms().size();
    s.ipc = gpu.ipc();
    s.memWait = gpu.sumSmStat("mem_wait_cycles");
    s.l1dStall = gpu.sumSmStat("l1d_stall_cycles");
    s.hits = gpu.sumL1dStat("hits");
    s.misses = gpu.sumL1dStat("misses");
    s.bypasses = gpu.sumL1dStat("bypasses");
    s.stallStt = gpu.sumL1dStat("stall_stt");
    s.stallTagSearch = gpu.sumL1dStat("stall_tag_search");
    s.swapHits = gpu.sumL1dStat("swap_buffer_hits");
    s.tagQueueFull = gpu.sumL1dStat("tag_queue_full");
    s.tagQueuePushes = gpu.sumL1dStat("tag_queue_pushes");
    s.mshrAllocated = gpu.sumL1dStat("mshr_allocated");
    s.mshrSecondary = gpu.sumL1dStat("mshr_secondary");
    s.stallMshrFull = gpu.sumL1dStat("stall_mshr_full");
    for (auto &sm : gpu.sms()) {
        if (const StatGroup *pred = sm->l1d().predictorStats()) {
            s.predTrue += pred->get("pred_true");
            s.predOutcomes += pred->get("outcomes");
        }
        auto *hybrid = dynamic_cast<HybridL1D *>(&sm->l1d());
        if (hybrid && hybrid->approx()) {
            const StatGroup::Average *search =
                hybrid->approx()->stats().findAverage("search_cycles");
            if (search) {
                s.searchCycles += search->sum();
                s.searches += static_cast<double>(search->count());
            }
        }
    }

    const MemoryHierarchy &hier = gpu.hierarchy();
    s.offchip = static_cast<double>(hier.offchipRequests());
    s.l2HitRate = 1.0 - hier.l2().missRate();
    if (const StatGroup::Average *rt = hier.stats().findAverage("round_trip")) {
        s.roundTrip = rt->sum();
        s.roundTrips = static_cast<double>(rt->count());
    }
    s.rowHits = hier.dram().stats().get("row_hits");
    s.dramRequests = hier.dram().stats().get("requests");
    // The network/DRAM split of the off-chip round trip, as the metrics
    // path computes it for Fig. 1a.
    const StatGroup::Average *dram_lat =
        hier.dram().stats().findAverage("service_latency");
    const double all_reqs = hier.stats().get("requests");
    const double rt_mean = ratio(s.roundTrip, s.roundTrips);
    if (rt_mean > 0 && all_reqs > 0 && dram_lat) {
        s.networkShare =
            1.0 - std::min(1.0, dram_lat->mean() * (s.dramRequests / all_reqs)
                                    / rt_mean);
    }
    s.energyL1d = energy.l1dTotal();
    s.energyOffchip = energy.offchip();
    s.energyTotal = energy.total();
    return s;
}

void
simulatedLayers(const std::vector<Point> &points, unsigned workers,
                Record &rec)
{
    std::vector<GpuSample> samples(points.size());
    parallelFor(points.size(), workers,
                [&](std::size_t i) { samples[i] = sampleGpu(points[i]); });

    GpuSample sum;
    std::vector<double> build, run, evaluate;
    double ipc = 0, l2_hit = 0, network = 0;
    for (const GpuSample &s : samples) {
        build.push_back(s.buildMs);
        run.push_back(s.runMs);
        evaluate.push_back(s.evaluateUs);
        ipc += s.ipc;
        l2_hit += s.l2HitRate;
        network += s.networkShare;
        sum.instructions += s.instructions;
        sum.smCycles += s.smCycles;
        sum.memWait += s.memWait;
        sum.l1dStall += s.l1dStall;
        sum.hits += s.hits;
        sum.misses += s.misses;
        sum.bypasses += s.bypasses;
        sum.stallStt += s.stallStt;
        sum.stallTagSearch += s.stallTagSearch;
        sum.swapHits += s.swapHits;
        sum.tagQueueFull += s.tagQueueFull;
        sum.tagQueuePushes += s.tagQueuePushes;
        sum.predTrue += s.predTrue;
        sum.predOutcomes += s.predOutcomes;
        sum.searchCycles += s.searchCycles;
        sum.searches += s.searches;
        sum.mshrAllocated += s.mshrAllocated;
        sum.mshrSecondary += s.mshrSecondary;
        sum.stallMshrFull += s.stallMshrFull;
        sum.offchip += s.offchip;
        sum.roundTrip += s.roundTrip;
        sum.roundTrips += s.roundTrips;
        sum.rowHits += s.rowHits;
        sum.dramRequests += s.dramRequests;
        sum.energyL1d += s.energyL1d;
        sum.energyOffchip += s.energyOffchip;
        sum.energyTotal += s.energyTotal;
    }
    const double n = static_cast<double>(samples.size());
    const double accesses = sum.hits + sum.misses + sum.bypasses;
    auto &l = rec.layers;
    l["gpu.build_ms"] = median(build);
    l["gpu.run_ms"] = median(run);
    l["gpu.ipc"] = ipc / n;
    l["gpu.mem_wait_frac"] = ratio(sum.memWait, sum.smCycles);
    l["gpu.l1d_stall_cycles_per_instr"] =
        ratio(sum.l1dStall, sum.instructions);
    l["fuse.hit_rate"] = ratio(sum.hits, accesses);
    l["fuse.bypass_ratio"] = ratio(sum.bypasses, accesses);
    l["fuse.stall_stt_per_access"] = ratio(sum.stallStt, accesses);
    l["fuse.stall_tag_search_per_access"] =
        ratio(sum.stallTagSearch, accesses);
    l["fuse.swap_buffer_hit_ratio"] = ratio(sum.swapHits, accesses);
    l["fuse.tag_queue_full_ratio"] =
        ratio(sum.tagQueueFull, sum.tagQueuePushes);
    l["fuse.pred_true_rate"] = ratio(sum.predTrue, sum.predOutcomes);
    l["fuse.approx_search_cycles"] = ratio(sum.searchCycles, sum.searches);
    l["cache.mshr_merge_ratio"] =
        ratio(sum.mshrSecondary, sum.mshrAllocated + sum.mshrSecondary);
    l["cache.mshr_full_stalls_per_kaccess"] =
        1000.0 * ratio(sum.stallMshrFull, accesses);
    l["mem.offchip_per_kinstr"] = 1000.0 * ratio(sum.offchip,
                                                 sum.instructions);
    l["mem.l2_hit_rate"] = l2_hit / n;
    l["mem.round_trip_cycles"] = ratio(sum.roundTrip, sum.roundTrips);
    l["mem.dram_row_hit_rate"] = ratio(sum.rowHits, sum.dramRequests);
    l["mem.network_share"] = network / n;
    l["energy.evaluate_us"] = median(evaluate);
    l["energy.l1d_share"] = ratio(sum.energyL1d, sum.energyTotal);
    l["energy.offchip_share"] = ratio(sum.energyOffchip, sum.energyTotal);
}

/** Simulator::run's own work beyond building, running and pricing the
 *  Gpu, on the first point at a small pinned budget (median of
 *  interleaved pairs, so the difference is not swamped by Gpu::run). */
double
extractUs(Point p)
{
    p.config.gpu.instructionBudgetPerSm = 256;
    const Simulator sim(p.config);
    const BenchmarkSpec &bench = benchmarkByName(p.benchmark);
    std::vector<double> diffs;
    for (int r = 0; r < 31; ++r) {
        const Clock::time_point t0 = Clock::now();
        sim.run(bench, p.kind);
        const Clock::time_point t1 = Clock::now();
        Gpu gpu(p.config.gpu, p.kind, p.config.l1d, bench);
        gpu.run();
        EnergyModel(p.config.energy).evaluate(gpu);
        diffs.push_back((msBetween(t0, t1) - msBetween(t1, Clock::now()))
                        * 1000.0);
    }
    return median(diffs);
}

/** Replays: each layer's public entry point driven alone on the
 *  workload's own decoded instructions at the run's seed. */
void
replayLayers(const std::vector<std::string> &benchmarks,
             const SimConfig &config, Record &rec)
{
    const GpuConfig &gpu = config.gpu;
    double gen_ms = 0, coalesce_ms = 0;
    std::uint64_t instructions = 0;
    std::vector<MemRequest> requests;
    for (const std::string &name : benchmarks) {
        KernelGenerator generator(benchmarkByName(name), 0, gpu.numSms,
                                  gpu.warpsPerSm, gpu.traceSeed);
        std::vector<InstructionBatch> batches;
        batches.reserve(kReplayInstructions);
        std::uint64_t decoded = 0;
        const Clock::time_point t0 = Clock::now();
        for (WarpId w = 0; decoded < kReplayInstructions;
             w = (w + 1) % gpu.warpsPerSm) {
            batches.emplace_back();
            generator.nextBatch(w, batches.back());
            decoded += batches.back().size;
        }
        const Clock::time_point t1 = Clock::now();
        Coalescer coalescer;
        for (InstructionBatch &batch : batches)
            coalescer.coalesceBatch(batch);
        gen_ms += msBetween(t0, t1);
        coalesce_ms += msBetween(t1, Clock::now());
        instructions += decoded;

        for (std::size_t i = 0; i < batches.size(); ++i) {
            const InstructionBatch &batch = batches[i];
            for (std::uint32_t j = 0; j < batch.size; ++j) {
                const InstructionBatch::Decoded &d = batch.instr[j];
                if (!d.isMem)
                    continue;
                for (std::uint16_t t = d.txBegin; t < d.txEnd; ++t) {
                    MemRequest req;
                    req.addr = batch.addrs[t];
                    req.pc = d.pc;
                    req.warpId = static_cast<WarpId>(i % gpu.warpsPerSm);
                    req.type = d.type;
                    requests.push_back(req);
                }
            }
        }
    }
    const double n_instr = static_cast<double>(instructions);
    rec.layers["workload.replay_gen_ns_per_instr"] = gen_ms * 1e6 / n_instr;
    rec.layers["gpu.replay_coalesce_ns_per_instr"] =
        coalesce_ms * 1e6 / n_instr;

    NocConfig noc = gpu.noc;
    noc.numSmPorts = gpu.numSms;
    const double n_req = static_cast<double>(requests.size());
    const std::pair<L1DKind, const char *> kinds[] = {
        {L1DKind::L1Sram, "fuse.l1sram.replay_ns_per_access"},
        {L1DKind::FaSram, "fuse.fasram.replay_ns_per_access"},
        {L1DKind::DyFuse, "fuse.dyfuse.replay_ns_per_access"},
    };
    for (const auto &[kind, metric] : kinds) {
        MemoryHierarchy hierarchy(noc, gpu.l2, gpu.dram);
        std::unique_ptr<L1DCache> l1d = makeL1D(kind, config.l1d, hierarchy);
        Cycle now = 0;
        bool tick_pending = false;
        const Clock::time_point t0 = Clock::now();
        for (MemRequest req : requests) {
            // The SM's order: tick deferred L1D work, then issue; a
            // structural stall retries at its ready cycle.
            for (unsigned tries = 0;; ++tries) {
                if (tick_pending) {
                    l1d->tick(now);
                    tick_pending = !l1d->tickIdle();
                }
                const L1DResult result = l1d->access(req, now);
                tick_pending = true;
                ++now;
                if (result.kind != L1DResult::Kind::Stall)
                    break;
                if (tries > kMaxStallRetries)
                    fuse_fatal("L1D replay stuck at address %llu",
                               static_cast<unsigned long long>(req.addr));
                now = std::max(now, result.readyAt);
                req.retry = true;
            }
        }
        rec.layers[metric] = msBetween(t0, Clock::now()) * 1e6 / n_req;
    }

    MemoryHierarchy hierarchy(noc, gpu.l2, gpu.dram);
    Cycle now = 0;
    const Clock::time_point t0 = Clock::now();
    for (const MemRequest &req : requests)
        hierarchy.access(req, now++);
    rec.layers["mem.replay_ns_per_request"] =
        msBetween(t0, Clock::now()) * 1e6 / n_req;
}

void
expLayers(const Workload &workload, Record &rec)
{
    const ResultSet &results = workload.digestResults();
    std::vector<double> export_ms;
    for (int r = 0; r < 5; ++r) {
        const Clock::time_point t0 = Clock::now();
        std::ostringstream json;
        std::ostringstream csv;
        writeJson(json, results);
        writeCsv(csv, results);
        export_ms.push_back(msBetween(t0, Clock::now()));
    }
    rec.layers["exp.export_ms"] = median(export_ms);

    std::uint64_t points = 0;
    std::uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    while (points < 2000) {
        for (const ExperimentSpec *spec : workload.specs()) {
            for (std::size_t b = 0; b < spec->benchmarks.size(); ++b)
                for (std::size_t v = 0; v < spec->variantCount(); ++v)
                    for (std::size_t k = 0; k < spec->kinds.size(); ++k) {
                        sink += canonicalSpecPoint(*spec, b, v, k).size();
                        sink ^= pointContentHash(*spec, b, v, k);
                        ++points;
                    }
        }
    }
    rec.layers["exp.canonical_us_per_point"] =
        msBetween(t0, Clock::now()) * 1000.0 / static_cast<double>(points);
    if (sink == 0)
        fuse_fatal("canonical serialisation produced nothing");
    rec.layers["exp.sweep_overhead_pct"] =
        100.0 * (ratio(rec.sweepWallS, rec.sweepPointS) - 1.0);
}

/** ResultStore put/get on the workload's own cells, and (for workloads
 *  that do not use the service) an all-hit CampaignService resubmission
 *  of the workload's grid from a store filled without simulating. */
void
serveLayers(const Workload &workload, const ServeWorkload *serve,
            const std::string &scratch, Record &rec)
{
    rec.layers["serve.fingerprint_ms"] = timedFingerprintMs();
    const ExperimentSpec &spec = workload.digestSpec();
    const ResultSet &results = workload.digestResults();

    ResultStore store(scratch + "/replay_store");
    std::vector<double> put_us, get_us;
    for (std::size_t b = 0; b < spec.benchmarks.size(); ++b)
        for (std::size_t v = 0; v < spec.variantCount(); ++v)
            for (std::size_t k = 0; k < spec.kinds.size(); ++k) {
                const std::string key =
                    hexDigest64(pointContentHash(spec, b, v, k));
                const RunResult &run = results.at(results.index(b, v, k));
                const Clock::time_point t0 = Clock::now();
                store.put(key, run, canonicalSpecPoint(spec, b, v, k));
                const Clock::time_point t1 = Clock::now();
                RunResult back;
                if (!store.get(key, back))
                    fuse_fatal("replay store lost key %s", key.c_str());
                put_us.push_back(msBetween(t0, t1) * 1000.0);
                get_us.push_back(msBetween(t1, Clock::now()) * 1000.0);
            }
    rec.layers["serve.replay_put_us"] = median(put_us);
    rec.layers["serve.replay_get_us"] = median(get_us);

    if (serve) {
        const ServeStats &stats = serve->stats();
        rec.layers["serve.warm_campaign_ms"] = median(rec.warmCampaignMs);
        rec.layers["serve.hit_ratio"] = ratio(stats.hits, stats.points);
        rec.layers["serve.simulations_per_pass"] =
            ratio(stats.simulations, rec.passes);
        rec.layers["serve.retries"] = static_cast<double>(stats.retries);
        rec.layers["serve.failures"] = static_cast<double>(stats.failures);
        return;
    }
    ServeOptions options;
    options.storeDir = scratch + "/replay_service";
    options.fingerprint = binaryFingerprint();
    CampaignService service(options);
    service.setPointRunner([&](const ExperimentSpec &, std::size_t b,
                               std::size_t v, std::size_t k) {
        return results.at(results.index(b, v, k)).metrics;
    });
    service.serve(spec);
    std::vector<double> warm_ms;
    bool match = true;
    for (int r = 0; r < 3; ++r) {
        const Clock::time_point t0 = Clock::now();
        const ResultSet warm = service.serve(spec);
        warm_ms.push_back(msBetween(t0, Clock::now()));
        match = match && exportJson(warm) == exportJson(results);
    }
    rec.checks.emplace_back("warm_replay_matches_grid", match);
    rec.layers["serve.warm_campaign_ms"] = median(warm_ms);
    // This workload submits nothing to the service itself.
    rec.layers["serve.hit_ratio"] = 0.0;
    rec.layers["serve.simulations_per_pass"] = 0.0;
    rec.layers["serve.retries"] = 0.0;
    rec.layers["serve.failures"] = 0.0;
}

/** Exact work counts of the timed passes, from the src/prof sites. */
void
countLayers(const prof::ProfileReport &report, Record &rec)
{
    auto count = [&](const char *component, const char *name) {
        return static_cast<double>(report.count(component, name));
    };
    const double ticks = count("gpu", "sm_ticks");
    const double l1d_accesses = count("l1d_sram", "accesses")
                                + count("l1d_hybrid", "accesses")
                                + count("l1d_nvm", "accesses");
    rec.layers["gpu.sm_ticks_per_instr"] =
        ratio(ticks, count("workload", "instructions"));
    rec.layers["gpu.scheduler_wakes_per_tick"] =
        ratio(count("scheduler", "wakes"), ticks);
    rec.layers["cache.tag_lookups_per_access"] =
        ratio(count("tag_array", "lookups"), l1d_accesses);
    rec.layers["cache.mshr_filter_skip_ratio"] =
        ratio(count("mshr", "filter_skips"), count("mshr", "probes"));
}

// ------------------------------------------------------------------ output

void
writeNumbers(std::ostream &os, const std::vector<double> &values)
{
    os << '[';
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i ? ", " : "") << values[i];
    os << ']';
}

void
writeRecord(std::ostream &os, const Record &rec, const std::string &mode,
            unsigned workers)
{
    os.precision(17);
    os << "{\n  \"mode\": \"" << mode << "\",\n"
       << "  \"prof_enabled\": " << (prof::enabled() ? "true" : "false")
       << ",\n  \"workers\": " << workers
       << ",\n  \"nproc\": " << nproc()
       << ",\n  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency()
       << ",\n  \"setup_s\": " << rec.setupS
       << ",\n  \"run_ms\": ";
    writeNumbers(os, rec.runMs);
    os << ",\n  \"run_cpu_ms\": ";
    writeNumbers(os, rec.runCpuMs);
    os << ",\n  \"campaign_ms\": ";
    writeNumbers(os, rec.campaignMs);
    os << ",\n  \"campaign_cpu_ms\": ";
    writeNumbers(os, rec.campaignCpuMs);
    os << ",\n  \"warm_campaign_ms\": ";
    writeNumbers(os, rec.warmCampaignMs);
    os << ",\n  \"busy_s\": " << rec.busyS
       << ",\n  \"cpu_s\": " << rec.cpuS
       << ",\n  \"passes\": " << rec.passes
       << ",\n  \"points\": " << rec.points
       << ",\n  \"sim_instructions\": " << rec.simInstructions
       << ",\n  \"invalid_runs\": " << rec.invalidRuns
       << ",\n  \"serve_failures\": " << rec.serveFailures
       << ",\n  \"serve_retries\": " << rec.serveRetries
       << ",\n  \"peak_rss_mb\": " << rec.peakRssMb

       << ",\n  \"sim_digest\": \"" << rec.simDigest << "\""
       << ",\n  \"capacity\": ";
    writeNumbers(os, rec.capacity);
    os << ",\n  \"checks\": {";
    for (std::size_t i = 0; i < rec.checks.size(); ++i)
        os << (i ? ", " : "") << '"' << rec.checks[i].first
           << "\": " << (rec.checks[i].second ? "true" : "false");
    os << "},\n  \"fidelity\": [";
    for (std::size_t i = 0; i < rec.fidelity.size(); ++i) {
        const FidelityRow &r = rec.fidelity[i];
        os << (i ? ",\n    " : "\n    ") << "{\"benchmark\": \""
           << r.benchmark << "\", \"ipc\": ";
        writeNumbers(os, {r.ipc[0], r.ipc[1]});
        os << ", \"offchip\": ";
        writeNumbers(os, {r.offchip[0], r.offchip[1]});
        os << ", \"energy\": ";
        writeNumbers(os, {r.energy[0], r.energy[1]});
        os << '}';
    }
    os << "],\n  \"layers\": {";
    bool first = true;
    for (const auto &[name, value] : rec.layers) {
        os << (first ? "\n    " : ",\n    ") << '"' << name
           << "\": " << value;
        first = false;
    }
    os << "}\n}\n";
}

struct Options
{
    std::string workload;
    std::string mode;
    std::string out;
    std::string scratch;
    std::uint64_t seed = 1;
    double seconds = 10.0;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            fuse_fatal("%s needs a value", arg.c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--mode") {
            o.mode = value;
        } else if (arg == "--out") {
            o.out = value;
        } else if (arg == "--scratch") {
            o.scratch = value;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (!(o.seconds > 0))
                fuse_fatal("--seconds must be positive");
        } else {
            fuse_fatal("unknown option '%s'", arg.c_str());
        }
        if (end && *end != '\0')
            fuse_fatal("malformed value '%s' for %s", value.c_str(),
                       arg.c_str());
    }
    if (o.out.empty() || o.scratch.empty())
        fuse_fatal("--out and --scratch are required");
    if (o.mode != "setup" && o.mode != "measure" && o.mode != "trace"
        && o.mode != "counts")
        fuse_fatal("unknown mode '%s'", o.mode.c_str());
    if (o.mode == "counts" && !prof::enabled())
        fuse_fatal("counts mode needs the FUSE_PROF build (perfbench_prof)");
    return o;
}

/** Worker threads of every workload, capped at the host's CPUs. Three on
 *  a 4-CPU host leave one CPU to the system: with all four busy the tail
 *  latencies spread about twice as much from run to run. */
constexpr unsigned kWorkers = 3;

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    const unsigned workers = std::min(kWorkers, nproc());
    if (o.workload == "headline")
        return std::make_unique<GridWorkload>(headlineSpec(o.seed), workers,
                                              true);
    if (o.workload == "compute_sram") {
        ExperimentSpec spec;
        spec.name = "compute_sram";
        spec.base = "fermi";
        spec.benchmarks = {"pathf", "mri-g", "srad_v1", "cfd", "gaussian",
                           "histo"};
        spec.kinds = {L1DKind::L1Sram, L1DKind::FaSram};
        spec.seed = o.seed;
        return std::make_unique<GridWorkload>(std::move(spec), workers,
                                              false);
    }
    if (o.workload == "serve_dse")
        return std::make_unique<ServeWorkload>(o.seed, workers,
                                               o.scratch + "/store");
    fuse_fatal("unknown workload '%s'", o.workload.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // Full budgets always: FUSE_FAST scales presets, FUSE_THREADS pools.
    unsetenv("FUSE_FAST");
    unsetenv("FUSE_THREADS");
    const Options opts = parseArgs(argc, argv);
    std::filesystem::create_directories(opts.scratch);

    std::unique_ptr<Workload> workload = makeWorkload(opts);

    Record rec;
    const Clock::time_point first_call = Clock::now();
    // The process CPU clock is not reset by exec, so this counts from the
    // fork in run.py, the dynamic loader included.
    rec.setupS = processCpuMs() / 1000.0;

    if (opts.mode != "setup") {
        const prof::ProfileReport before = prof::snapshot();
        do {
            workload->pass(rec);
            ++rec.passes;
        } while (msBetween(first_call, Clock::now()) < opts.seconds * 1000);
        rec.peakRssMb = peakRssMb();
        if (opts.mode == "counts")
            countLayers(prof::snapshot().diffSince(before), rec);
        rec.simDigest = hexDigest64(
            fnv1a64(exportJson(workload->digestResults())));
    }

    if (opts.mode == "measure" || opts.mode == "trace") {
        workload->verify(rec);
        if (opts.workload == "headline") {
            rec.fidelity = fidelityRows(workload->digestResults());
        } else {
            // The paper gaps are properties of the build and seed; other
            // workloads compute them off the clock from the same grid.
            SweepRunner runner(nproc());
            rec.fidelity = fidelityRows(runner.run(headlineSpec(opts.seed)));
        }
        rec.capacity = parallelCapacity(nproc());
    }

    if (opts.mode == "trace") {
        const std::vector<Point> points =
            specPoints(workload->digestSpec());
        simulatedLayers(points, workload->workers(), rec);
        rec.layers["sim.extract_us"] = extractUs(points.front());
        replayLayers(workload->digestSpec().benchmarks,
                     points.front().config, rec);
        expLayers(*workload, rec);
        serveLayers(*workload,
                    dynamic_cast<const ServeWorkload *>(workload.get()),
                    opts.scratch, rec);
        rec.layers["host.parallel_capacity"] =
            rec.capacity.at(workload->workers() - 1);
    }

    std::ofstream out(opts.out);
    writeRecord(out, rec, opts.mode, workload->workers());
    out.close();
    if (!out)
        fuse_fatal("cannot write %s", opts.out.c_str());
    return 0;
}
