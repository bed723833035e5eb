/**
 * @file
 * Differential parity tier for the event-driven warp scheduler. The
 * pre-refactor scheduler evaluated readiness by scanning every warp's
 * ready time on each pick; that scan survives here as the reference
 * model, and the event-driven WarpScheduler (ready bitmap + staged wake +
 * pending bitmap with a cached earliest wake) is driven through long
 * random wake/sleep/issue sequences and scripted wake storms against it. Both the picked warp id and the no-warp-ready
 * sleep bound (min_ready) must match exactly on every step — the SM's
 * sleep windows, and through them the GPU's next-event clock, are timing
 * observable, so "almost" is a simulation bug.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "gpu/scheduler.hh"

namespace fuse
{
namespace
{

/**
 * The historical readiness-scan scheduler, verbatim: pickReady walks
 * readyAt_[0..numWarps) under the policy's probe order and accumulates
 * the minimum pending ready time when nothing is eligible.
 */
class LegacyScanScheduler
{
  public:
    LegacyScanScheduler(SchedPolicy policy, std::uint32_t num_warps)
        : policy_(policy), numWarps_(num_warps), readyAt_(num_warps, 0)
    {
    }

    void onWake(std::uint32_t warp, Cycle at) { readyAt_[warp] = at; }
    void onSleep(std::uint32_t warp) { readyAt_[warp] = kNever; }

    std::uint32_t
    pickReady(Cycle now, Cycle *min_ready)
    {
        Cycle min_r = kNever;
        switch (policy_) {
          case SchedPolicy::GreedyThenOldest:
            if (lastIssued_ < numWarps_ && readyAt_[lastIssued_] <= now)
                return lastIssued_;
            for (std::uint32_t w = 0; w < numWarps_; ++w) {
                if (readyAt_[w] <= now)
                    return w;
            }
            for (std::uint32_t w = 0; w < numWarps_; ++w)
                min_r = std::min(min_r, readyAt_[w]);
            *min_ready = min_r;
            return kNone;
          case SchedPolicy::RoundRobin:
          default:
            for (std::uint32_t i = 1; i <= numWarps_; ++i) {
                std::uint32_t w = (lastIssued_ + i) % numWarps_;
                if (readyAt_[w] <= now)
                    return w;
                min_r = std::min(min_r, readyAt_[w]);
            }
            *min_ready = min_r;
            return kNone;
        }
    }

    void issued(std::uint32_t warp) { lastIssued_ = warp; }

    static constexpr std::uint32_t kNone = ~std::uint32_t(0);
    static constexpr Cycle kNever = ~Cycle(0);

  private:
    SchedPolicy policy_;
    std::uint32_t numWarps_;
    std::uint32_t lastIssued_ = 0;
    std::vector<Cycle> readyAt_;
};

/**
 * Drive both schedulers through ~1e5 random steps. Each step advances
 * time, picks (asserting identical choices and, when nothing is ready,
 * identical min_ready), and then perturbs warp state the way an SM would
 * — issue-and-rewake the picked warp — plus adversarial events the SM
 * never generates but the API allows: spontaneous re-wakes that move a
 * pending wake earlier or later, and indefinite sleeps.
 */
void
runParity(SchedPolicy policy, std::uint32_t num_warps, std::uint64_t seed,
          int steps)
{
    LegacyScanScheduler ref(policy, num_warps);
    WarpScheduler sched(policy, num_warps);
    Rng rng(seed);

    Cycle now = 0;
    for (int step = 0; step < steps; ++step) {
        Cycle ref_min = 0;
        Cycle min = 0;
        const std::uint32_t ref_pick = ref.pickReady(now, &ref_min);
        const std::uint32_t pick = sched.pickReady(now, &min);
        ASSERT_EQ(pick, ref_pick)
            << "policy=" << int(policy) << " warps=" << num_warps
            << " step=" << step << " now=" << now;
        if (pick == WarpScheduler::kNone) {
            ASSERT_EQ(min, ref_min)
                << "policy=" << int(policy) << " warps=" << num_warps
                << " step=" << step << " now=" << now;
            // Sleep exactly to the bound, like the SM's idle fast path
            // (when every warp sleeps forever, jump a fixed stretch).
            now = min == WarpScheduler::kNever ? now + 7 : min;
        } else {
            // Issue: block the warp like the SM would — usually "ready
            // again next cycle", sometimes a long memory sleep.
            const Cycle at = rng.chance(0.6)
                                 ? now + 1
                                 : now + 1 + rng.below(300);
            ref.onWake(pick, at);
            ref.issued(pick);
            sched.onWake(pick, at);
            sched.issued(pick);
            ++now;
        }

        // Adversarial extras at a low rate: spontaneous re-wakes (earlier
        // or later than a pending wake) and indefinite sleeps.
        if (rng.chance(0.05)) {
            const auto w =
                static_cast<std::uint32_t>(rng.below(num_warps));
            if (rng.chance(0.25)) {
                ref.onSleep(w);
                sched.onSleep(w);
            } else {
                const Cycle at = now + rng.below(400);
                ref.onWake(w, at);
                sched.onWake(w, at);
            }
        }
        // Occasionally stall time entirely (repeated picks at one cycle
        // would double-issue; instead re-pick after events only).
        if (rng.chance(0.02))
            now += rng.below(5);
    }
}

class SchedulerParity
    : public ::testing::TestWithParam<std::tuple<SchedPolicy, std::uint32_t>>
{
};

TEST_P(SchedulerParity, RandomWakeSleepIssueSequences)
{
    const auto [policy, warps] = GetParam();
    // Several independent sequences per configuration; ~1e5 steps total.
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runParity(policy, warps, seed * 0x9E3779B9ull + warps, 25000);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndWarpCounts, SchedulerParity,
    ::testing::Combine(
        ::testing::Values(SchedPolicy::RoundRobin,
                          SchedPolicy::GreedyThenOldest),
        // 1-warp and 48-warp are the SM edges; 64/65/128 exercise the
        // multi-word bitmaps, 2/3 the tiny-ring wrap-around.
        ::testing::Values(1u, 2u, 3u, 48u, 64u, 65u, 128u)));

/**
 * Drives the event-driven scheduler and the legacy scan with the same
 * events and checks every pick — and, when nothing is ready, the exact
 * sleep bound — against each other.
 */
class Twin
{
  public:
    Twin(SchedPolicy policy, std::uint32_t num_warps)
        : ref_(policy, num_warps), sched_(policy, num_warps)
    {
    }

    void wake(std::uint32_t warp, Cycle at)
    {
        ref_.onWake(warp, at);
        sched_.onWake(warp, at);
    }

    void sleep(std::uint32_t warp)
    {
        ref_.onSleep(warp);
        sched_.onSleep(warp);
    }

    /** Pick at @p now in both; the pick, or kNone with the bound in
     *  *@p min_ready. */
    std::uint32_t pick(Cycle now, Cycle *min_ready)
    {
        Cycle ref_min = 0;
        Cycle min = 0;
        const std::uint32_t ref_pick = ref_.pickReady(now, &ref_min);
        const std::uint32_t got = sched_.pickReady(now, &min);
        EXPECT_EQ(got, ref_pick) << "now=" << now;
        if (got == WarpScheduler::kNone) {
            EXPECT_EQ(min, ref_min) << "now=" << now;
            *min_ready = min;
        }
        return got;
    }

    /** Pick at @p now, expecting nothing ready; returns the bound. */
    Cycle expectIdle(Cycle now)
    {
        Cycle min = 0;
        EXPECT_EQ(pick(now, &min), WarpScheduler::kNone) << "now=" << now;
        return min;
    }

    /** Issue the pick at @p now (if any) and re-wake it at @p again;
     *  returns the picked warp. */
    std::uint32_t issue(Cycle now, Cycle again)
    {
        Cycle min = 0;
        const std::uint32_t w = pick(now, &min);
        if (w != WarpScheduler::kNone) {
            ref_.issued(w);
            sched_.issued(w);
            wake(w, again);
        }
        return w;
    }

  private:
    LegacyScanScheduler ref_;
    WarpScheduler sched_;
};

/** A wake far past every other one in a script. */
constexpr Cycle kFar = 5000;

class SchedulerStorm
    : public ::testing::TestWithParam<std::tuple<SchedPolicy, std::uint32_t>>
{
};

TEST_P(SchedulerStorm, DozensOfWarpsWokenToOneCycleDrainTogether)
{
    const auto [policy, warps] = GetParam();
    for (const Cycle target : {Cycle(300), kFar}) {
        SCOPED_TRACE(target);
        Twin twin(policy, warps);
        // Every warp issues once and stalls to the same cycle, like an
        // MSHR-full storm parked on one retry time.
        Cycle now = 0;
        for (std::uint32_t i = 0; i < warps; ++i)
            twin.issue(now++, target);
        EXPECT_EQ(twin.expectIdle(now), target);
        // The whole storm drains at once; the warps then issue one per
        // cycle in policy order, each stalling to a second shared cycle.
        for (now = target; now < target + warps; ++now)
            ASSERT_NE(twin.issue(now, target + 2 * kFar),
                      WarpScheduler::kNone);
        EXPECT_EQ(twin.expectIdle(now), target + 2 * kFar);
        for (now = target + 2 * kFar; now < target + 2 * kFar + warps; ++now)
            ASSERT_NE(twin.issue(now, now + 1), WarpScheduler::kNone);
    }
}

TEST_P(SchedulerStorm, PendingWarpReWokenEarlierAndLater)
{
    const auto [policy, warps] = GetParam();
    Twin twin(policy, warps);
    // Park every warp: each new wake parks the previously staged one.
    for (std::uint32_t w = 0; w < warps; ++w)
        twin.wake(w, 700 + w);
    EXPECT_EQ(twin.expectIdle(10), 700u);
    // Warp 0, pending at 700 and holding the cached minimum, moves
    // earlier, then later; then the last warp far past everyone.
    twin.wake(0, 200);
    EXPECT_EQ(twin.expectIdle(11), 200u);
    twin.wake(0, 900);
    twin.wake(warps - 1, kFar);
    EXPECT_EQ(twin.expectIdle(12), warps > 1 ? 701u : kFar);
    // A far wake moved back to the front, and a near one far out.
    twin.wake(warps - 1, 150);
    twin.wake(warps / 2, kFar + 3);
    EXPECT_EQ(twin.expectIdle(13), warps > 1 ? 150u : kFar + 3);
    for (Cycle now = 150; now < kFar + 10; ++now)
        twin.issue(now, now + 1 + (now % 7) * 300);
}

TEST_P(SchedulerStorm, SleepOfPendingAndOfStagedWarp)
{
    const auto [policy, warps] = GetParam();
    Twin twin(policy, warps);
    for (std::uint32_t w = 0; w < warps; ++w)
        twin.wake(w, w % 2 ? kFar + w : 400 + w);
    // The last wake is the staged one; the rest are pending.
    twin.sleep(warps - 1);
    twin.sleep(0);   // Pending (or, with one warp, already asleep).
    Cycle min = twin.expectIdle(20);
    if (warps > 2) {
        EXPECT_EQ(min, 402u);
    }
    // Sleep every pending warp holding the earliest wake in turn: the
    // bound must follow exactly.
    for (std::uint32_t w = 2; w < warps; w += 2) {
        twin.sleep(w);
        min = twin.expectIdle(21);
    }
    for (std::uint32_t w = 1; w + 1 < warps; w += 2) {
        twin.sleep(w);
        min = twin.expectIdle(22);
    }
    EXPECT_EQ(min, WarpScheduler::kNever);
    // Everyone wakes again and runs.
    for (std::uint32_t w = 0; w < warps; ++w)
        twin.wake(w, 30);
    for (Cycle now = 30; now < 30 + 2 * warps; ++now)
        ASSERT_NE(twin.issue(now, now + 1), WarpScheduler::kNone);
}

TEST_P(SchedulerStorm, MinReadyExactAfterCachedMinimumGoesStale)
{
    const auto [policy, warps] = GetParam();
    Twin twin(policy, warps);
    // Park near and far wakes, then keep moving whichever warp holds the
    // earliest wake further out: each move leaves the cached minimum
    // below every real wake, and the sleep bound must stay exact.
    std::vector<Cycle> at(warps);
    for (std::uint32_t w = 0; w < warps; ++w) {
        at[w] = w < warps / 2 ? 100 + 3 * w : kFar + w;
        twin.wake(w, at[w]);
    }
    Cycle now = 1;
    for (std::uint32_t step = 0; step < 2 * warps; ++step) {
        const Cycle min = twin.expectIdle(now++);
        const auto holder = static_cast<std::uint32_t>(
            std::min_element(at.begin(), at.end()) - at.begin());
        ASSERT_EQ(min, at[holder]);
        at[holder] = min + (step % 2 ? 7 : kFar);
        twin.wake(holder, at[holder]);
    }
    // Then run the clock through every wake, issuing as the SM would.
    const Cycle end = *std::max_element(at.begin(), at.end()) + warps;
    while (now < end) {
        Cycle min = 0;
        if (twin.pick(now, &min) == WarpScheduler::kNone) {
            if (min == WarpScheduler::kNever)
                break;
            now = min;
            continue;
        }
        twin.issue(now, now + 1 + (now % 5) * 400);
        ++now;
    }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndWarpCounts, SchedulerStorm,
    ::testing::Combine(
        ::testing::Values(SchedPolicy::RoundRobin,
                          SchedPolicy::GreedyThenOldest),
        ::testing::Values(1u, 48u, 64u, 65u, 128u)));

TEST(SchedulerParityEdge, AllWarpsAsleepForever)
{
    for (SchedPolicy policy :
         {SchedPolicy::RoundRobin, SchedPolicy::GreedyThenOldest}) {
        LegacyScanScheduler ref(policy, 4);
        WarpScheduler sched(policy, 4);
        for (std::uint32_t w = 0; w < 4; ++w) {
            ref.onSleep(w);
            sched.onSleep(w);
        }
        Cycle ref_min = 0;
        Cycle min = 0;
        ASSERT_EQ(sched.pickReady(10, &min), WarpScheduler::kNone);
        ASSERT_EQ(ref.pickReady(10, &ref_min), LegacyScanScheduler::kNone);
        EXPECT_EQ(min, ref_min);
        EXPECT_EQ(min, WarpScheduler::kNever);
    }
}

TEST(SchedulerParityEdge, SingleWarpRoundRobinSelfSuccession)
{
    // numWarps == 1: the ring is the warp itself; the scan probes
    // (last + 1) % 1 == 0 and must keep picking warp 0.
    LegacyScanScheduler ref(SchedPolicy::RoundRobin, 1);
    WarpScheduler sched(SchedPolicy::RoundRobin, 1);
    Cycle now = 0;
    for (int i = 0; i < 100; ++i) {
        Cycle ref_min = 0;
        Cycle min = 0;
        const auto a = sched.pickReady(now, &min);
        const auto b = ref.pickReady(now, &ref_min);
        ASSERT_EQ(a, b);
        if (a == WarpScheduler::kNone) {
            ASSERT_EQ(min, ref_min);
            now = min;
            continue;
        }
        sched.onWake(a, now + 3);
        sched.issued(a);
        ref.onWake(b, now + 3);
        ref.issued(b);
        ++now;
    }
}

} // namespace
} // namespace fuse
