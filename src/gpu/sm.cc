#include "gpu/sm.hh"

#include <algorithm>

#include "prof/prof.hh"

namespace fuse
{

Sm::Sm(SmId id, const SmConfig &config, std::unique_ptr<L1DCache> l1d,
       std::unique_ptr<KernelGenerator> kernel)
    : id_(id), config_(config), l1d_(std::move(l1d)),
      kernel_(std::move(kernel)),
      stats_("sm" + std::to_string(id)),
      coalescer_(&stats_),
      scheduler_(config.scheduler, config.warpsPerSm),
      warps_(config.warpsPerSm)
{
    statIdle_ = &stats_.scalar("idle_cycles");
    statMemWait_ = &stats_.scalar("mem_wait_cycles");
    statL1dStall_ = &stats_.scalar("l1d_stall_cycles");
    statCompute_ = &stats_.scalar("compute_instructions");
    statMemInstr_ = &stats_.scalar("mem_instructions");
    statTransactions_ = &stats_.scalar("l1d_transactions");
    statTransactionsMissed_ = &stats_.scalar("l1d_transactions_missed");
    statLoadBlock_ = &stats_.scalar("load_block_cycles");
}

template <bool kRunAhead>
bool
Sm::issueWarp(std::uint32_t w, Cycle now)
{
    WarpContext &warp = warps_[w];
    InstructionBatch &batch = warp.batch;

    if (!warp.hasPending) {
        // Pop the next decoded instruction, refilling the warp's batch
        // from the generator + coalescer when it runs dry: one refill
        // hands the issue path kCapacity pre-coalesced instructions.
        if (batch.exhausted()) {
            // Clamp decode-ahead to the SM's remaining budget so the
            // run's tail generates no instruction nobody will issue.
            // (In-flight popped instructions of other warps make this
            // bound slightly loose; exactness comes from counting at
            // the pop, the bound only trims generator work.)
            kernel_->nextBatch(w, batch,
                               config_.instructionBudget
                                   - instructionsIssued_);
            coalescer_.coalesceBatch(batch);
        }
        // One count per consumed instruction — exactly the scalar
        // engine's one next() per begun instruction, independent of how
        // far the batch frontend decodes ahead.
        FUSE_PROF_COUNT(workload, instructions);
        warp.cur = batch.consumed++;
        warp.hasPending = true;
        const InstructionBatch::Decoded &popped = batch.instr[warp.cur];
        warp.nextTransaction = popped.txBegin;
        warp.maxFillReady = 0;
        // Coalesce statistics count at consumption, not at batch refill:
        // pre-decoded but never-issued instructions must stay invisible.
        if (popped.isMem)
            coalescer_.noteConsumed(popped.lanes,
                                    popped.txEnd - popped.txBegin);
    }

    const InstructionBatch::Decoded &instr = batch.instr[warp.cur];
    if (!instr.isMem) {
        ++instructionsIssued_;
        ++(*statCompute_);
        warp.hasPending = false;
        scheduler_.onWake(w, now + 1);
        scheduler_.issued(w);
        return true;
    }

    // Memory instruction: the LSU issues one coalesced transaction per
    // cycle; an L1D structural stall blocks the LSU for this cycle (the
    // paper's L1D stall).
    MemRequest req;
    req.addr = batch.addrs[warp.nextTransaction];
    req.pc = instr.pc;
    req.smId = id_;
    req.warpId = w;
    req.type = instr.type;
    req.retry = warp.stalledTransaction;

    const L1DResult result = kRunAhead ? l1d_->accessPrivate(req, now)
                                       : l1d_->access(req, now);
    if (kRunAhead && result.kind == L1DResult::Kind::Deferred)
        return false;
    l1dTickPending_ = true;
    if (result.kind == L1DResult::Kind::Stall) {
        // The warp parks at this transaction until the structural hazard
        // clears; the wait counts as L1D stall cycles.
        const Cycle retry = std::max(now + 1, result.readyAt);
        statL1dStall_->add(retry - now);
        scheduler_.onWake(w, retry);
        warp.stalledTransaction = true;
        scheduler_.issued(w);
        return true;
    }
    warp.stalledTransaction = false;

    warp.maxFillReady = std::max(warp.maxFillReady, result.readyAt);
    // Batched into the warp context; one Scalar add at instruction exit.
    ++warp.uncountedTransactions;
    if (result.kind == L1DResult::Kind::Miss)
        ++warp.uncountedMissed;
    ++warp.nextTransaction;

    if (warp.nextTransaction < instr.txEnd) {
        // More transactions to issue next cycle.
        scheduler_.onWake(w, now + 1);
        scheduler_.issued(w);
        return true;
    }

    // Instruction complete. Loads block the warp until the data arrives
    // (in-order pipeline, the consumer is the next instruction); stores
    // are posted — the warp proceeds once the requests are accepted.
    ++instructionsIssued_;
    ++(*statMemInstr_);
    flushWarpTransactions(warp);
    warp.hasPending = false;
    if (instr.type == AccessType::Read) {
        scheduler_.onWake(w, std::max(now + 1, warp.maxFillReady));
        if (warp.maxFillReady > now + 1) {
            statLoadBlock_->add(warp.maxFillReady - (now + 1));
        }
    } else {
        scheduler_.onWake(w, now + 1);
    }
    scheduler_.issued(w);
    return true;
}

Cycle
Sm::tick(Cycle now, Cycle limit)
{
    // The visit cycle. Tick the L1D only while it has deferred work; the
    // flag spares the virtual call on the (dominant) idle cycles.
    if (l1dTickPending_) {
        l1d_->tick(now);
        l1dTickPending_ = !l1d_->tickIdle();
    }
    FUSE_PROF_COUNT(gpu, sm_ticks);
    if (done())
        return now + 1;

    // A transaction deferred by the last run-ahead was picked at this
    // very cycle already: issue it without picking (and counting) again.
    // Otherwise pick, unless every warp is known to sleep past `now`
    // (the GPU visits a sleeping SM only while its L1D has tick work).
    std::uint32_t w = deferredWarp_;
    deferredWarp_ = WarpScheduler::kNone;
    Cycle min_ready = ~Cycle(0);
    if (w == WarpScheduler::kNone && sleepUntil_ <= now) {
        w = scheduler_.pickReady(now, &min_ready);
        if (w == WarpScheduler::kNone)
            sleepUntil_ = min_ready;
    }
    if (w == WarpScheduler::kNone) {
        countIdleCycle();
        return now + 1;
    }
    issueWarp<false>(w, now);

    // Run ahead while each cycle's outcome is private to this SM.
    Cycle c = now + 1;
    for (; c < limit && !done(); ++c) {
        if (l1dTickPending_) {
            // Tick work (a tag-queue drain) may write back to L2: leave
            // it to the shared clock. An idle L1D's tick is a no-op.
            if (!l1d_->tickIdle())
                return c;
            l1dTickPending_ = false;
        }
        w = scheduler_.pickReady(c, &min_ready);
        if (w == WarpScheduler::kNone) {
            FUSE_PROF_COUNT(gpu, sm_ticks);
            sleepUntil_ = min_ready;
            countIdleCycle();
            return c + 1;
        }
        if (!issueWarp<true>(w, c)) {
            deferredWarp_ = w;
            return c;
        }
        FUSE_PROF_COUNT(gpu, sm_ticks);
    }
    return c;
}

} // namespace fuse
