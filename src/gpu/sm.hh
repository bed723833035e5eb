/**
 * @file
 * Streaming multiprocessor model: an in-order issue pipeline over many
 * resident warps, a load/store unit that serialises coalesced transactions
 * into the private L1D, and memory-dependence blocking (a warp cannot run
 * past an outstanding load). This is the GPGPU-Sim-shaped core the paper's
 * evaluation stands on, reduced to what the memory system can observe.
 */

#ifndef FUSE_GPU_SM_HH
#define FUSE_GPU_SM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "fuse/l1d.hh"
#include "gpu/coalescer.hh"
#include "gpu/scheduler.hh"
#include "workload/generator.hh"

namespace fuse
{

/** Per-SM runtime parameters. */
struct SmConfig
{
    std::uint32_t warpsPerSm = 48;    ///< Table I.
    SchedPolicy scheduler = SchedPolicy::RoundRobin;
    /** Warp instructions this SM must retire before the kernel ends. */
    std::uint64_t instructionBudget = 200000;
};

/** One SM: warps + scheduler + LSU + private L1D. */
class Sm
{
  public:
    Sm(SmId id, const SmConfig &config, std::unique_ptr<L1DCache> l1d,
       std::unique_ptr<KernelGenerator> kernel);

    /**
     * Simulate cycle @p now — the GPU clock's visit, at which this SM
     * may reach the shared MemoryHierarchy in (cycle, smId) order — and
     * then run ahead through now+1, now+2, ... while every cycle's
     * outcome stays private to this SM: compute issue, and L1D accesses
     * that L1DCache::accessPrivate() serves on chip (SRAM hits, MSHR
     * merges, MSHR-full stalls). Run-ahead stops before the first cycle
     * that would touch shared state (a deferred access, whose pick is
     * carried to the next visit, or per-cycle L1D tick work such as a
     * tag-queue drain), and after a cycle on which every warp falls
     * asleep or the SM retires its budget. Never simulates a cycle at or
     * past @p limit. Returns the first cycle not yet accounted in this
     * SM's state: the GPU revisits the SM at that cycle (or at its
     * sleep bound).
     */
    Cycle tick(Cycle now, Cycle limit);

    /** All warps retired their share of the instruction budget. */
    bool done() const { return instructionsIssued_ >= config_.instructionBudget; }

    /** No warp becomes ready before this cycle (values <= now mean the
     *  SM is active). The GPU's next-event clock skips an SM's cycles up
     *  to this bound, crediting them through skipIdle(). */
    Cycle sleepUntil() const { return sleepUntil_; }

    /**
     * Account @p cycles skipped by the GPU fast-forward: each would have
     * taken the all-warps-asleep path in tick() (one idle + one mem-wait
     * cycle, no other state change). Caller guarantees the SM is not done
     * and sleeps through the whole window, and that the L1D is tick-idle.
     */
    void skipIdle(Cycle cycles)
    {
        statIdle_->add(cycles);
        statMemWait_->add(cycles);
    }

    /**
     * Flush warp-local transaction counters into the stat group. The
     * issue path batches the per-transaction l1d_transactions /
     * l1d_transactions_missed increments per instruction and flushes
     * them in one add at instruction exit; warps holding a partially
     * issued instruction when the run ends still carry unflushed counts,
     * so Gpu::run() calls this before returning. Idempotent (counters
     * drain on flush) — stats are exact at every external observation
     * point, i.e. after run() returns.
     */
    void flushIssueStats()
    {
        for (WarpContext &warp : warps_)
            flushWarpTransactions(warp);
    }

    std::uint64_t instructionsIssued() const { return instructionsIssued_; }
    L1DCache &l1d() { return *l1d_; }
    const L1DCache &l1d() const { return *l1d_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    SmId id() const { return id_; }

    /** IPC over @p cycles. */
    double ipc(Cycle cycles) const
    {
        return cycles ? static_cast<double>(instructionsIssued_) / cycles
                      : 0.0;
    }

  private:
    struct WarpContext
    {
        bool hasPending = false;    ///< Mid-way through a mem instruction.
        /** Decoded-instruction queue: one nextBatch() + coalesceBatch()
         *  refill hands the issue path kCapacity instructions, keeping
         *  the generator and coalescer off the per-cycle path. */
        InstructionBatch batch;
        std::uint32_t cur = 0;      ///< Batch slot of the in-flight instr.
        /** Next transaction to issue — absolute index into batch.addrs. */
        std::uint32_t nextTransaction = 0;
        Cycle maxFillReady = 0;     ///< Latest load-data arrival.
        bool stalledTransaction = false;  ///< Current txn is a retry.
        /** Transactions issued (and missed) since the last stat flush:
         *  the per-transaction increment cluster lands in these warp-
         *  local counters and drains in one Scalar add at instruction
         *  exit (or flushIssueStats at end of run). */
        std::uint32_t uncountedTransactions = 0;
        std::uint32_t uncountedMissed = 0;
    };

    /**
     * Issue (or continue) warp @p w's instruction. When @p kRunAhead, a
     * memory transaction goes through accessPrivate(); if the L1D defers
     * it, returns false with the transaction unissued (the instruction
     * stays popped, so re-issuing at the same cycle resumes it).
     */
    template <bool kRunAhead>
    bool issueWarp(std::uint32_t w, Cycle now);

    /** One all-warps-asleep cycle: what skipIdle() credits per cycle. */
    void countIdleCycle()
    {
        ++(*statIdle_);
        ++(*statMemWait_);
    }

    /** Drain @p warp's batched transaction counters into the group. */
    void flushWarpTransactions(WarpContext &warp)
    {
        if (warp.uncountedTransactions) {
            statTransactions_->add(warp.uncountedTransactions);
            warp.uncountedTransactions = 0;
        }
        if (warp.uncountedMissed) {
            statTransactionsMissed_->add(warp.uncountedMissed);
            warp.uncountedMissed = 0;
        }
    }

    SmId id_;
    SmConfig config_;
    std::unique_ptr<L1DCache> l1d_;
    std::unique_ptr<KernelGenerator> kernel_;
    /** Declared before coalescer_, whose constructor caches stat handles
     *  out of this group (member construction order matters here). */
    StatGroup stats_;
    Coalescer coalescer_;
    /** Owns warp readiness: issueWarp reports every blocked-until change
     *  as a wake event and tick() asks for the pick in O(1), replacing
     *  the per-cycle scan over a readyAt array. */
    WarpScheduler scheduler_;
    std::vector<WarpContext> warps_;
    std::uint64_t instructionsIssued_ = 0;
    /** No warp becomes ready before this cycle (idle fast path). */
    Cycle sleepUntil_ = 0;
    /** Warp picked at the cycle run-ahead stopped on (its transaction
     *  was deferred), issued at the next visit without a second pick;
     *  kNone otherwise. */
    std::uint32_t deferredWarp_ = WarpScheduler::kNone;
    /** The L1D may have deferred work (tag-queue drain): tick it. Set
     *  after every access, cleared when the L1D reports tick-idle —
     *  skips the virtual tick() call on the (dominant) idle cycles. */
    bool l1dTickPending_ = false;

    // Cached references for the per-cycle hot path (StatGroup::scalar is
    // a map lookup; references stay valid for the group's lifetime).
    StatGroup::Scalar *statIdle_;
    StatGroup::Scalar *statMemWait_;
    StatGroup::Scalar *statL1dStall_;
    StatGroup::Scalar *statCompute_;
    StatGroup::Scalar *statMemInstr_;
    StatGroup::Scalar *statTransactions_;
    StatGroup::Scalar *statTransactionsMissed_;
    StatGroup::Scalar *statLoadBlock_;
};

} // namespace fuse

#endif // FUSE_GPU_SM_HH
