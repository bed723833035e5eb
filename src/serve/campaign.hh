/**
 * @file
 * CampaignService: expands an ExperimentSpec's (benchmark x variant x
 * kind) grid into run points, serves every point it has already
 * simulated from the ResultStore, and simulates only the cold points,
 * once each, across parallelFor workers. The assembled
 * campaign is byte-identical to a fresh fuse_sweep of the same spec:
 * cached cells round-trip the exporters' %.17g format exactly, and the
 * cached and fresh pieces are stitched with the overlap-fatal
 * ResultSet::merge, which proves they are disjoint.
 *
 * Cache key = FNV-1a over (canonical point text, binary fingerprint).
 * The point text captures the *materialised* configuration — presets,
 * overrides, seeds and FUSE_FAST budget scaling included — so any
 * change that would alter the simulation changes the key. The
 * fingerprint is the build identity: a hash of the bytes of the running
 * executable and of every shared object it has loaded, plus the CPU
 * features libm dispatches on. A result depends on nothing else, so a
 * record can only be served to the exact build and host class that
 * produced it. Any rebuild, library update or CPU-feature change —
 * a pure refactor included — goes cold, which is safe by construction;
 * computing the identity simulates nothing and takes a few ms.
 */

#ifndef FUSE_SERVE_CAMPAIGN_HH
#define FUSE_SERVE_CAMPAIGN_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "exp/result_set.hh"
#include "serve/result_store.hh"

namespace fuse
{

/**
 * Hash step of the build identity: folds @p cpu_features, then the
 * bytes and length of each file in @p paths, in order, into one 64-bit
 * value (8-byte words, each file read through a 64 KiB buffer, never
 * mapped). Fatal if a file cannot be read.
 */
std::uint64_t hashBuildObjects(const std::vector<std::string> &paths,
                               std::uint64_t cpu_features);

/**
 * Build identity of this process, computed afresh on every call:
 * hashBuildObjects over the executable (/proc/self/exe) and every
 * shared object dl_iterate_phdr lists (the vDSO skipped), with the
 * x86-64 fma/avx2/avx512f bits glibc's libm picks its exp/log/pow code
 * by. Linux only. Simulates nothing.
 */
std::uint64_t buildIdentity();

/** buildIdentity(), computed once per process and cached: the
 *  fingerprint every store key of this process carries. */
std::uint64_t binaryFingerprint();

/** Cumulative counters across every campaign a service has served. */
struct ServeStats
{
    std::uint64_t campaigns = 0;
    std::uint64_t points = 0;       ///< Grid points requested.
    std::uint64_t hits = 0;         ///< Served from the store.
    std::uint64_t misses = 0;       ///< Not in the store at submit time.
    std::uint64_t simulations = 0;  ///< Cold points actually simulated.
    /** Always 0: a cold point runs exactly once, since a deterministic
     *  point that throws would throw again. Kept because the committed
     *  serve_baseline and perfbench's serve records read it. */
    std::uint64_t retries = 0;
    std::uint64_t failures = 0;     ///< Cold points whose run threw.
};

struct ServeOptions
{
    std::string storeDir;           ///< Required: ResultStore root.
    unsigned workers = 1;           ///< Cold-point simulation threads.
    /** Non-zero skips the build-identity hash and uses this
     *  fingerprint — tests pin it so store layouts stay deterministic. */
    std::uint64_t fingerprint = 0;
};

class CampaignService
{
  public:
    /** A cold point whose run threw; its cell stays invalid. */
    struct Failure
    {
        std::string label;   ///< "benchmark/kind[/variant]".
        std::string error;   ///< what() of the exception.
    };

    explicit CampaignService(const ServeOptions &options);

    /**
     * Test seam: simulate one grid point of @p spec and return its
     * metrics. The default runs a single-threaded SweepRunner on the
     * point's one-cell subspec; tests inject failing runners to
     * exercise the failure ledger without touching the simulator.
     */
    using PointRunner = std::function<Metrics(
        const ExperimentSpec &spec, std::size_t b, std::size_t v,
        std::size_t k)>;
    void setPointRunner(PointRunner runner);

    /**
     * Serve @p spec's full grid: store hits become cached cells, misses
     * are simulated (and stored) across options.workers threads. A miss
     * whose run throws is appended to failures() in grid order and its
     * cell stays invalid.
     */
    ResultSet serve(const ExperimentSpec &spec);

    /** Cache key of one grid point (16 lowercase hex digits). */
    std::string cacheKey(const ExperimentSpec &spec, std::size_t b,
                         std::size_t v, std::size_t k) const;

    const ServeStats &stats() const { return stats_; }
    const std::vector<Failure> &failures() const { return failures_; }
    ResultStore &store() { return store_; }
    std::uint64_t fingerprint() const { return fingerprint_; }

  private:
    ServeOptions options_;
    std::uint64_t fingerprint_;
    ResultStore store_;
    PointRunner runPoint_;
    ServeStats stats_;
    std::vector<Failure> failures_;
};

} // namespace fuse

#endif // FUSE_SERVE_CAMPAIGN_HH
