/**
 * @file
 * Warp schedulers: round-robin (GPGPU-Sim's "loose round robin" default)
 * and greedy-then-oldest. The scheduler picks which ready warp issues each
 * cycle; the choice shifts thrashing behaviour slightly but the FUSE
 * results hold under both (the paper uses the simulator default).
 *
 * The scheduler is event-driven: the SM pushes wake events (onWake) as it
 * blocks/unblocks warps and pickReady() answers from a ready bitmap plus a
 * pending-warp bitmap with a cached earliest wake, instead of re-scanning
 * every warp's ready time each cycle. A pick costs O(1) until the clock
 * reaches that earliest wake; one pass over the pending bitmap then
 * promotes every due warp at once, so a storm of warps stalled to the same
 * cycle costs one pass, not one queue operation per warp. Pick order is
 * bit-exact with the historical readiness scan (the scan survives as the
 * reference model in tests/test_scheduler_parity.cc). The whole hot path
 * lives in this header so the SM's per-cycle calls inline.
 */

#ifndef FUSE_GPU_SCHEDULER_HH
#define FUSE_GPU_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/types.hh"
#include "prof/prof.hh"

namespace fuse
{

/** Scheduling policy. */
enum class SchedPolicy : std::uint8_t { RoundRobin, GreedyThenOldest };

/**
 * Selects the next warp to issue among the ready set.
 *
 * Usage: the SM reports every change of a warp's ready time as an event
 * (onWake/onSleep) and asks pickReady(now) for the issue choice. Warps
 * start ready at cycle 0, matching an SM whose warps can all issue on the
 * first cycle.
 */
class WarpScheduler
{
  public:
    WarpScheduler(SchedPolicy policy, std::uint32_t num_warps);

    /**
     * Warp @p warp becomes issue-eligible at cycle @p at (its blocking
     * load returns, its structural stall clears, or it simply finished an
     * instruction and can issue again next cycle). Replaces any earlier
     * wake time for the warp — later *or* earlier; the last event wins.
     */
    void onWake(std::uint32_t warp, Cycle at)
    {
        FUSE_PROF_COUNT(scheduler, wakes);
        wakeAt_[warp] = at;
        clearBit(readyBits_, warp);
        if (staged_ != warp) {
            clearBit(pendingBits_, warp);
            if (staged_ != kNone) {
                // A second wake before the staged one drained: the
                // staged warp is genuinely sleeping, park it.
                setBit(pendingBits_, staged_);
                minPending_ = std::min(minPending_, stagedAt_);
            }
            staged_ = warp;
        }
        stagedAt_ = at;
    }

    /** Warp @p warp leaves the ready set with no known wake time. */
    void onSleep(std::uint32_t warp)
    {
        // A stale cached minimum stays a valid lower bound: the next
        // drain that reaches it finds nothing due and recomputes it.
        wakeAt_[warp] = kNever;
        clearBit(readyBits_, warp);
        clearBit(pendingBits_, warp);
        if (staged_ == warp)
            staged_ = kNone;
    }

    /**
     * Choose the warp to issue at cycle @p now — the warp the historical
     * per-cycle readiness scan would have picked, in O(1) except on the
     * cycles a parked wake comes due (one pass over the pending bitmap):
     * round-robin walks a ready-bit ring from the last issued warp;
     * greedy-then-oldest prefers the last issued warp, then the oldest
     * (lowest-id) ready one. When no warp is ready, returns kNone and
     * stores the earliest pending wake time in @p min_ready (the SM's
     * sleep-until bound; kNever when every warp sleeps forever).
     */
    std::uint32_t
    pickReady(Cycle now, Cycle *min_ready)
    {
        FUSE_PROF_COUNT(scheduler, picks);
        drainWakes(now);

        std::uint32_t w;
        switch (policy_) {
          case SchedPolicy::GreedyThenOldest:
            // Keep issuing the same warp while it stays ready, else the
            // oldest (lowest-id) ready warp.
            if (lastIssued_ < numWarps_ && isReady(lastIssued_)) {
                w = lastIssued_;
            } else {
                w = findReadyFrom(0);
            }
            break;
          case SchedPolicy::RoundRobin:
          default:
            // Ring order: the warp after the last issued one first; the
            // last issued warp itself has lowest priority. The wrapped
            // probe from 0 can only surface warps at or below
            // lastIssued_, because the first probe covered everything
            // above it.
            w = findReadyFrom(lastIssued_ + 1 < numWarps_
                                  ? lastIssued_ + 1
                                  : 0);
            if (w == kNone)
                w = findReadyFrom(0);
            break;
        }
        if (w != kNone)
            return w;
        *min_ready = minPendingWake();
        return kNone;
    }

    /** Notify that @p warp actually issued (updates policy state). */
    void issued(std::uint32_t warp) { lastIssued_ = warp; }

    static constexpr std::uint32_t kNone = ~std::uint32_t(0);
    static constexpr Cycle kNever = ~Cycle(0);

  private:
    /** Promote every warp whose wake time has arrived into the ready
     *  set. The dominant wake is "can issue again next cycle", staged
     *  outside the pending set and consumed here by the very next pick;
     *  a wake is parked in the pending set only when another arrives
     *  before it drains (a genuinely sleeping warp), and the pending set
     *  is walked only once the clock reaches its cached minimum. */
    void
    drainWakes(Cycle now)
    {
        if (staged_ != kNone && stagedAt_ <= now) {
            setBit(readyBits_, staged_);
            staged_ = kNone;
        }
        if (now >= minPending_)
            promoteDue(now);
    }

    /** One pass over the pending set: promote the warps due at @p now
     *  and recompute the cached minimum over the rest. */
    void promoteDue(Cycle now);

    /** Exact earliest pending wake (recomputes the cached minimum, which
     *  onWake/onSleep may have left stale-low). */
    Cycle minPendingWake();

    /** Lowest ready warp id >= @p start, or kNone. */
    std::uint32_t
    findReadyFrom(std::uint32_t start) const
    {
        if (start >= numWarps_)
            return kNone;
        std::size_t i = start / 64;
        std::uint64_t word =
            readyBits_[i] & (~std::uint64_t(0) << (start % 64));
        for (;;) {
            if (word)
                return static_cast<std::uint32_t>(i * 64)
                       + countTrailingZeros(word);
            if (++i >= readyBits_.size())
                return kNone;
            word = readyBits_[i];
        }
    }

    static void setBit(std::vector<std::uint64_t> &bits,
                       std::uint32_t warp)
    {
        bits[warp / 64] |= std::uint64_t(1) << (warp % 64);
    }
    static void clearBit(std::vector<std::uint64_t> &bits,
                         std::uint32_t warp)
    {
        bits[warp / 64] &= ~(std::uint64_t(1) << (warp % 64));
    }
    bool isReady(std::uint32_t warp) const
    {
        return (readyBits_[warp / 64] >> (warp % 64)) & 1;
    }

    SchedPolicy policy_;
    std::uint32_t numWarps_;
    std::uint32_t lastIssued_ = 0;

    /** Bit w set = warp w can issue now (its wake time has passed). */
    std::vector<std::uint64_t> readyBits_;
    /** Bit w set = warp w sleeps until wakeAt_[w] (> the last drain) and
     *  is not the staged warp. Every warp is in exactly one of: ready,
     *  pending, staged, or asleep with no wake time (kNever). */
    std::vector<std::uint64_t> pendingBits_;
    /** Current wake time per warp; <= the drain cycle once ready, kNever
     *  while sleeping with no pending wake. */
    std::vector<Cycle> wakeAt_;
    /** The most recently woken warp (kNone when drained), kept outside
     *  the pending set, and its wake time (see drainWakes). */
    std::uint32_t staged_ = kNone;
    Cycle stagedAt_ = 0;
    /** Lower bound on every pending warp's wake time; exact after each
     *  promoteDue/minPendingWake pass, stale-low once the warp holding
     *  it is re-woken or put to sleep. */
    Cycle minPending_ = kNever;
};

} // namespace fuse

#endif // FUSE_GPU_SCHEDULER_HH
