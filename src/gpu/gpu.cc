#include "gpu/gpu.hh"

#include <algorithm>

#include "common/log.hh"
#include "prof/prof.hh"

namespace fuse
{

Gpu::Gpu(const GpuConfig &config, L1DKind l1d_kind, const L1DParams &l1d,
         const BenchmarkSpec &benchmark)
    : config_(config)
{
    NocConfig noc = config.noc;
    noc.numSmPorts = config.numSms;
    hierarchy_ = std::make_unique<MemoryHierarchy>(noc, config.l2,
                                                   config.dram);

    sms_.reserve(config.numSms);
    for (SmId s = 0; s < config.numSms; ++s) {
        SmConfig sm_config;
        sm_config.warpsPerSm = config.warpsPerSm;
        sm_config.scheduler = config.scheduler;
        sm_config.instructionBudget = config.instructionBudgetPerSm;
        auto kernel = std::make_unique<KernelGenerator>(
            benchmark, s, config.numSms, config.warpsPerSm,
            config.traceSeed);
        auto l1d_cache = makeL1D(l1d_kind, l1d, *hierarchy_);
        sms_.push_back(std::make_unique<Sm>(s, sm_config,
                                            std::move(l1d_cache),
                                            std::move(kernel)));
    }
}

Cycle
Gpu::run()
{
    // Next-event clock. Instead of lock-step ticking every SM every
    // cycle, each SM carries the next cycle it must be visited at: the
    // first cycle its last visit left unaccounted while it is executing
    // or its L1D has deferred work (tag-queue drains run per cycle), its
    // wake-up bound while every warp sleeps, and never once it is done.
    // The clock jumps straight to the earliest such event and visits the
    // SMs due there in index order. A visit may run the SM ahead of the
    // clock through every following cycle whose outcome is private to it
    // (compute issue, L1D hits, MSHR merges, MSHR-full stalls; see
    // Sm::tick); it stops before the first cycle that would touch the
    // shared memory hierarchy, which is left to a later visit. Every
    // hierarchy access and writeback therefore still happens in (cycle,
    // smId) order, exactly as under lock-step ticking. The cycles an SM
    // was skipped over while asleep are exactly the cycles its tick would
    // have taken the all-warps-asleep path (one idle + one mem-wait
    // increment, no other state change), so they are credited in bulk
    // through skipIdle() just before its next visit.
    FUSE_PROF_SCOPE(gpu, run);
    constexpr Cycle kNever = ~Cycle(0);
    cycles_ = 0;
    const std::size_t n = sms_.size();
    if (n == 0)
        return 0;
    // next_tick[i]: cycle SM i is next visited at. accounted[i]: cycles
    // below this are already reflected in SM i's stats (simulated, or
    // credited through skipIdle).
    std::vector<Cycle> next_tick(n, 0);
    std::vector<Cycle> accounted(n, 0);

    std::size_t done_count = 0;
    for (const auto &sm : sms_)
        done_count += sm->done();
    // Cycle on which the last SM retired its budget (0 when every SM
    // starts done): the run ends once every event up to it is visited.
    Cycle last_done = 0;

    Cycle now = 0;
    while (now < config_.maxCycles) {
        // Visit the SMs due at `now` in index order, preserving the
        // shared memory hierarchy's arbitration order under lock-step
        // ticking.
        bool dense = false;
        for (std::size_t i = 0; i < n; ++i) {
            if (next_tick[i] > now)
                continue;
            Sm &sm = *sms_[i];
            const bool was_done = sm.done();
            if (now > accounted[i] && !was_done)
                sm.skipIdle(now - accounted[i]);
            const Cycle end = sm.tick(now, config_.maxCycles);
            accounted[i] = end;
            Cycle next;
            if (!sm.l1d().tickIdle())
                next = end;   // Deferred L1D work runs cycle by cycle.
            else if (sm.done())
                next = kNever;
            else
                next = std::max(end, sm.sleepUntil());
            next_tick[i] = next;
            dense |= next == now + 1;
            if (!was_done && sm.done()) {
                ++done_count;
                last_done = std::max(last_done, end - 1);
            }
        }
        // Dense fast path: an SM due again next cycle makes now + 1 the
        // minimum outright (no bound can be below it) — skip the
        // reduction, which runs only when the next event lies further
        // out, where its cost is amortised over the skipped window.
        Cycle next_now = now + 1;
        if (!dense) {
            next_now = next_tick[0];
            for (std::size_t i = 1; i < n; ++i)
                next_now = std::min(next_now, next_tick[i]);
        }
        // An SM that finished ahead of the clock still needs the other
        // SMs' events up to its completion cycle (a done SM's tag-queue
        // drain, say) visited before the run can end there.
        if (done_count == n && next_now > last_done)
            break;
        now = next_now;
    }

    if (done_count == n) {
        // (A zero cap with a zero budget simulates no cycle at all.)
        cycles_ = std::min(last_done + 1, config_.maxCycles);
    } else {
        // The safety cap stopped the clock: account each unfinished SM's
        // idle window up to the cap and stop there.
        for (std::size_t i = 0; i < n; ++i) {
            if (!sms_[i]->done() && config_.maxCycles > accounted[i])
                sms_[i]->skipIdle(config_.maxCycles - accounted[i]);
        }
        cycles_ = config_.maxCycles;
        fuse_warn("simulation hit the %llu-cycle safety cap",
                  static_cast<unsigned long long>(config_.maxCycles));
    }
    // Warps holding a partially issued instruction still carry batched
    // transaction counts; drain them so stats are exact for every reader
    // downstream of run().
    for (const auto &sm : sms_)
        sm->flushIssueStats();
    return cycles_;
}

double
Gpu::ipc() const
{
    if (cycles_ == 0)
        return 0.0;
    double total = 0.0;
    for (const auto &sm : sms_)
        total += static_cast<double>(sm->instructionsIssued());
    return total / static_cast<double>(cycles_) / sms_.size();
}

std::uint64_t
Gpu::totalInstructions() const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->instructionsIssued();
    return total;
}

double
Gpu::l1dMissRate() const
{
    double hits = 0.0;
    double misses = 0.0;
    for (const auto &sm : sms_) {
        const StatGroup &s = sm->l1d().stats();
        hits += s.get("hits");
        misses += s.get("misses") + s.get("bypasses");
    }
    const double total = hits + misses;
    return total > 0 ? misses / total : 0.0;
}

double
Gpu::sumL1dStat(const std::string &name) const
{
    double total = 0.0;
    for (const auto &sm : sms_)
        total += sm->l1d().stats().get(name);
    return total;
}

double
Gpu::sumSmStat(const std::string &name) const
{
    double total = 0.0;
    for (const auto &sm : sms_)
        total += sm->stats().get(name);
    return total;
}

} // namespace fuse
