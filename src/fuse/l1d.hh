/**
 * @file
 * The L1D cache interface every organisation implements (L1-SRAM, FA-SRAM,
 * By-NVM, Hybrid, Base-FUSE, FA-FUSE, Dy-FUSE, Oracle). The SM model talks
 * only to this interface; the factory in l1d_factory.hh builds the concrete
 * organisation from a SimConfig.
 */

#ifndef FUSE_FUSE_L1D_HH
#define FUSE_FUSE_L1D_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/hierarchy.hh"
#include "mem/request.hh"

namespace fuse
{

/** The seven evaluated L1D organisations plus the Oracle motivation config. */
enum class L1DKind : std::uint8_t
{
    L1Sram,     ///< 4-way set-associative SRAM baseline (GTX480-like).
    FaSram,     ///< Idealised fully-associative SRAM (circuit-infeasible).
    ByNvm,      ///< Pure STT-MRAM with dead-write bypass (DASCA-style).
    PureNvm,    ///< Pure STT-MRAM, no bypass ("STT-MRAM GPU" of Fig. 3).
    Hybrid,     ///< 2-way SRAM + 2-way STT-MRAM, no FUSE plumbing.
    BaseFuse,   ///< Hybrid + swap buffer + tag queue.
    FaFuse,     ///< Base-FUSE + approximated fully-associative STT bank.
    DyFuse,     ///< FA-FUSE + read-level predictor placement.
    Oracle      ///< Infinite, 1-cycle L1D (motivation only).
};

const char *toString(L1DKind kind);

/** Inverse of toString(L1DKind). Returns false if @p name is unknown. */
bool l1dKindFromString(const std::string &name, L1DKind &kind);

/** All nine organisations, in declaration order. */
const std::vector<L1DKind> &allL1DKinds();

/** Outcome of presenting one transaction to the L1D. */
struct L1DResult
{
    enum class Kind : std::uint8_t
    {
        Hit,      ///< Serviced on chip; data ready at readyAt.
        Miss,     ///< Sent off chip (or merged); data ready at readyAt.
        Stall,    ///< Structural hazard (MSHR full, bank busy): retry.
        /** accessPrivate() only: serving the transaction would reach the
         *  shared MemoryHierarchy. Nothing changed; present it again
         *  through access() at the same cycle. */
        Deferred
    };
    Kind kind = Kind::Stall;
    Cycle readyAt = 0;
};

/**
 * Base class for all L1D organisations. Non-blocking by contract: access()
 * never blocks the caller; a Stall result tells the SM to retry next cycle
 * (and is what the paper counts as an L1D stall).
 */
class L1DCache
{
  public:
    L1DCache(std::string name, MemoryHierarchy &hierarchy)
        : stats_(std::move(name)), hierarchy_(&hierarchy)
    {
        statHits_ = &stats_.scalar("hits");
        statReadHits_ = &stats_.scalar("read_hits");
        statWriteHits_ = &stats_.scalar("write_hits");
        statMisses_ = &stats_.scalar("misses");
        statReadMisses_ = &stats_.scalar("read_misses");
        statWriteMisses_ = &stats_.scalar("write_misses");
        statBypasses_ = &stats_.scalar("bypasses");
        statReadBypasses_ = &stats_.scalar("read_bypasses");
        statWriteBypasses_ = &stats_.scalar("write_bypasses");
        statMshrSecondary_ = &stats_.scalar("mshr_secondary");
        statStallMshrFull_ = &stats_.scalar("stall_mshr_full");
        statWritebacks_ = &stats_.scalar("writebacks");
    }
    virtual ~L1DCache() = default;

    L1DCache(const L1DCache &) = delete;
    L1DCache &operator=(const L1DCache &) = delete;

    /** Present one coalesced transaction at cycle @p now. */
    virtual L1DResult access(const MemRequest &req, Cycle now) = 0;

    /**
     * access(), restricted to outcomes private to this L1D: when serving
     * the transaction needs nothing below the L1D it behaves exactly like
     * access(); otherwise it returns Kind::Deferred with no observable
     * state change (re-presenting the same transaction at the same cycle
     * is then indistinguishable from a single access()). The SM uses
     * this to run ahead of the shared clock, which must see every
     * hierarchy access in (cycle, smId) order. Default: defer every
     * transaction.
     */
    virtual L1DResult accessPrivate(const MemRequest &req, Cycle now)
    {
        (void)req;
        (void)now;
        return {L1DResult::Kind::Deferred, 0};
    }

    /** Per-cycle housekeeping (tag-queue drain etc.). Default: none. */
    virtual void tick(Cycle now) { (void)now; }

    /**
     * True when tick() is guaranteed to be a no-op at every cycle until
     * the next access() — the GPU loop uses this to fast-forward across
     * all-warps-asleep windows. Organisations with deferred work (a
     * non-empty tag queue) must return false.
     */
    virtual bool tickIdle() const { return true; }

    /** Organisation identity (for reports). */
    virtual L1DKind kind() const = 0;

    /**
     * Stats of the read-level predictor, when this organisation has one
     * whose accuracy the paper reports (Dy-FUSE family). Replaces the
     * per-SM dynamic_cast the metrics extraction used to do per run.
     */
    virtual const StatGroup *predictorStats() const { return nullptr; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** hits / (hits + misses); bypassed accesses count as misses. */
    double missRate() const;

  protected:
    /** Record a hit/miss in the common stats vocabulary. */
    void countHit(const MemRequest &req);
    void countMiss(const MemRequest &req);
    void countBypass(const MemRequest &req);

    StatGroup stats_;
    MemoryHierarchy *hierarchy_;

    // Counters shared by every MSHR-bearing organisation, cached once at
    // construction (see the StatGroup handle-stability contract).
    StatGroup::Scalar *statMshrSecondary_;
    StatGroup::Scalar *statStallMshrFull_;
    StatGroup::Scalar *statWritebacks_;

  private:
    // Hot-path counters cached out of the string-keyed map.
    StatGroup::Scalar *statHits_;
    StatGroup::Scalar *statReadHits_;
    StatGroup::Scalar *statWriteHits_;
    StatGroup::Scalar *statMisses_;
    StatGroup::Scalar *statReadMisses_;
    StatGroup::Scalar *statWriteMisses_;
    StatGroup::Scalar *statBypasses_;
    StatGroup::Scalar *statReadBypasses_;
    StatGroup::Scalar *statWriteBypasses_;
};

} // namespace fuse

#endif // FUSE_FUSE_L1D_HH
