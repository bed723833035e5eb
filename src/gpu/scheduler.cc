#include "gpu/scheduler.hh"

namespace fuse
{

WarpScheduler::WarpScheduler(SchedPolicy policy, std::uint32_t num_warps)
    : policy_(policy), numWarps_(num_warps),
      readyBits_((num_warps + 63) / 64), pendingBits_(readyBits_.size()),
      wakeAt_(num_warps, 0)
{
    // All warps start issue-eligible at cycle 0.
    for (std::uint32_t w = 0; w < num_warps; ++w)
        setBit(readyBits_, w);
}

void
WarpScheduler::promoteDue(Cycle now)
{
    Cycle next = kNever;
    for (std::size_t i = 0; i < pendingBits_.size(); ++i) {
        std::uint64_t due = 0;
        for (std::uint64_t word = pendingBits_[i]; word; word &= word - 1) {
            const std::uint32_t b = countTrailingZeros(word);
            const Cycle at = wakeAt_[i * 64 + b];
            if (at <= now)
                due |= std::uint64_t(1) << b;
            else
                next = std::min(next, at);
        }
        pendingBits_[i] &= ~due;
        readyBits_[i] |= due;
    }
    minPending_ = next;
}

Cycle
WarpScheduler::minPendingWake()
{
    // Only reached when the SM is about to go to sleep — out of line so
    // the inlined pick stays small.
    Cycle next = kNever;
    for (std::size_t i = 0; i < pendingBits_.size(); ++i) {
        for (std::uint64_t word = pendingBits_[i]; word; word &= word - 1)
            next = std::min(next,
                            wakeAt_[i * 64 + countTrailingZeros(word)]);
    }
    minPending_ = next;
    return staged_ != kNone ? std::min(next, stagedAt_) : next;
}

} // namespace fuse
