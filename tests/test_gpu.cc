/**
 * @file
 * Tests for the GPU model: coalescer, warp scheduler, SM issue/stall
 * behaviour, and the top-level Gpu next-event clock, including its
 * safety-cap and all-done-at-cycle-0 edges.
 */

#include <gtest/gtest.h>

#include "gpu/coalescer.hh"
#include "gpu/gpu.hh"
#include "gpu/scheduler.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

namespace fuse
{
namespace
{

TEST(Coalescer, MergesSameLineLanes)
{
    Coalescer c;
    std::vector<Addr> lanes = {0, 4, 8, 64, 127, 128, 256};
    auto lines = c.coalesce(lanes);
    // Lines 0, 128, 256 remain.
    EXPECT_EQ(lines, (std::vector<Addr>{0, 128, 256}));
}

TEST(Coalescer, PreservesFirstTouchOrder)
{
    Coalescer c;
    std::vector<Addr> lanes = {256, 0, 300, 128, 4};
    auto lines = c.coalesce(lanes);
    EXPECT_EQ(lines, (std::vector<Addr>{256, 0, 128}));
}

TEST(Coalescer, StatsCountMergedLanes)
{
    StatGroup stats("sm");
    Coalescer c(&stats);
    c.coalesce({0, 4, 8});
    EXPECT_DOUBLE_EQ(stats.get("coalesce_transactions"), 1.0);
    EXPECT_DOUBLE_EQ(stats.get("coalesce_lanes_merged"), 2.0);
}

TEST(Coalescer, BatchCoalescesEachSpanInPlace)
{
    Coalescer c;
    InstructionBatch batch;
    // Instruction 0: compute (empty span). Instruction 1: 4 lanes on 2
    // lines. Instruction 2: first-touch-order dedupe (300 shares 256's
    // line).
    batch.size = 3;
    batch.instr[0].isMem = false;
    batch.instr[1].isMem = true;
    batch.instr[1].txBegin = 0;
    batch.addrs = {0, 4, 128, 132, /*instr 2:*/ 256, 0, 300};
    batch.instr[1].txEnd = 4;
    batch.instr[1].lanes = 4;
    batch.instr[2].isMem = true;
    batch.instr[2].txBegin = 4;
    batch.instr[2].txEnd = 7;
    batch.instr[2].lanes = 3;

    c.coalesceBatch(batch);

    // Span 1 shrank to its line bases; span 2 starts at its original
    // offset (spans never move — holes stay, consumers walk
    // [txBegin, txEnd) only).
    EXPECT_EQ(batch.instr[1].txEnd, 2u);
    EXPECT_EQ(batch.addrs[0], 0u);
    EXPECT_EQ(batch.addrs[1], 128u);
    EXPECT_EQ(batch.instr[2].txBegin, 4u);
    EXPECT_EQ(batch.instr[2].txEnd, 6u);
    EXPECT_EQ(batch.addrs[4], 256u);
    EXPECT_EQ(batch.addrs[5], 0u);
    // Pre-coalesce widths survive for consumption-time statistics.
    EXPECT_EQ(batch.instr[1].lanes, 4u);
    EXPECT_EQ(batch.instr[2].lanes, 3u);
}

TEST(Coalescer, BatchRecordsNoStatsUntilConsumption)
{
    StatGroup stats("sm");
    Coalescer c(&stats);
    InstructionBatch batch;
    batch.size = 1;
    batch.instr[0].isMem = true;
    batch.instr[0].txBegin = 0;
    batch.addrs = {0, 4, 8};
    batch.instr[0].txEnd = 3;
    batch.instr[0].lanes = 3;

    c.coalesceBatch(batch);
    EXPECT_DOUBLE_EQ(stats.get("coalesce_instructions"), 0.0);
    EXPECT_DOUBLE_EQ(stats.get("coalesce_transactions"), 0.0);

    // Consumption reports the same totals the scalar path would have.
    c.noteConsumed(batch.instr[0].lanes, batch.instr[0].txEnd - batch.instr[0].txBegin);
    EXPECT_DOUBLE_EQ(stats.get("coalesce_instructions"), 1.0);
    EXPECT_DOUBLE_EQ(stats.get("coalesce_transactions"), 1.0);
    EXPECT_DOUBLE_EQ(stats.get("coalesce_lanes_merged"), 2.0);
}

TEST(Scheduler, RoundRobinRotates)
{
    WarpScheduler sched(SchedPolicy::RoundRobin, 4);
    Cycle min_ready = 0;
    std::uint32_t w0 = sched.pickReady(0, &min_ready);
    sched.issued(w0);
    std::uint32_t w1 = sched.pickReady(0, &min_ready);
    EXPECT_NE(w0, w1);
}

TEST(Scheduler, SkipsSleepingWarps)
{
    WarpScheduler sched(SchedPolicy::RoundRobin, 4);
    const Cycle now = 10;
    sched.onWake(0, now + 5);
    sched.onWake(1, now + 2);
    sched.onWake(3, now + 9);
    // Warp 2 never slept: it is the only one eligible at `now`.
    Cycle min_ready = 0;
    EXPECT_EQ(sched.pickReady(now, &min_ready), 2u);
}

TEST(Scheduler, NoneWhenNothingReadyAndMinReadyIsExact)
{
    WarpScheduler sched(SchedPolicy::RoundRobin, 4);
    const Cycle now = 10;
    sched.onWake(0, now + 5);
    sched.onWake(1, now + 2);
    sched.onWake(2, now + 7);
    sched.onWake(3, now + 9);
    Cycle min_ready = 0;
    EXPECT_EQ(sched.pickReady(now, &min_ready), WarpScheduler::kNone);
    EXPECT_EQ(min_ready, now + 2);
    // At the bound, exactly the earliest waker becomes eligible.
    EXPECT_EQ(sched.pickReady(now + 2, &min_ready), 1u);
}

TEST(Scheduler, ReWakeSupersedesEarlierWakeTime)
{
    // The last wake event wins, even when it moves the warp earlier;
    // the superseded heap record must not resurrect the old time.
    WarpScheduler sched(SchedPolicy::RoundRobin, 1);
    sched.onWake(0, 50);
    sched.onWake(0, 20);
    Cycle min_ready = 0;
    EXPECT_EQ(sched.pickReady(10, &min_ready), WarpScheduler::kNone);
    EXPECT_EQ(min_ready, 20u);
    EXPECT_EQ(sched.pickReady(20, &min_ready), 0u);
}

TEST(Scheduler, SleepingWarpNeverPicked)
{
    WarpScheduler sched(SchedPolicy::RoundRobin, 2);
    sched.onSleep(0);
    Cycle min_ready = 0;
    EXPECT_EQ(sched.pickReady(0, &min_ready), 1u);
    sched.onSleep(1);
    EXPECT_EQ(sched.pickReady(0, &min_ready), WarpScheduler::kNone);
    // Nothing is pending: the sleep bound must say "never".
    EXPECT_EQ(min_ready, WarpScheduler::kNever);
    sched.onWake(0, 3);
    EXPECT_EQ(sched.pickReady(3, &min_ready), 0u);
}

TEST(Scheduler, GreedySticksToIssuingWarp)
{
    WarpScheduler sched(SchedPolicy::GreedyThenOldest, 4);
    Cycle min_ready = 0;
    std::uint32_t w = sched.pickReady(0, &min_ready);
    sched.issued(w);
    EXPECT_EQ(sched.pickReady(0, &min_ready), w);
    sched.onSleep(w);
    EXPECT_NE(sched.pickReady(0, &min_ready), w);
}

GpuConfig
tinyGpu()
{
    SimConfig c = SimConfig::testScale();
    c.gpu.instructionBudgetPerSm = 5000;
    return c.gpu;
}

TEST(Gpu, RunsToCompletion)
{
    Gpu gpu(tinyGpu(), L1DKind::L1Sram, L1DParams{},
            benchmarkByName("2DCONV"));
    Cycle cycles = gpu.run();
    EXPECT_GT(cycles, 0u);
    EXPECT_LT(cycles, tinyGpu().maxCycles);
    EXPECT_EQ(gpu.totalInstructions(),
              tinyGpu().numSms * tinyGpu().instructionBudgetPerSm);
}

TEST(Gpu, IpcBoundedByIssueWidth)
{
    Gpu gpu(tinyGpu(), L1DKind::Oracle, L1DParams{},
            benchmarkByName("2DCONV"));
    gpu.run();
    EXPECT_GT(gpu.ipc(), 0.0);
    EXPECT_LE(gpu.ipc(), 1.0);
}

TEST(Gpu, OracleBeatsBaselineOnMemoryBoundWork)
{
    Gpu base(tinyGpu(), L1DKind::L1Sram, L1DParams{},
             benchmarkByName("ATAX"));
    base.run();
    Gpu oracle(tinyGpu(), L1DKind::Oracle, L1DParams{},
               benchmarkByName("ATAX"));
    oracle.run();
    EXPECT_GT(oracle.ipc(), base.ipc());
    EXPECT_LT(oracle.l1dMissRate(), base.l1dMissRate());
}

TEST(Gpu, DeterministicAcrossRuns)
{
    Gpu a(tinyGpu(), L1DKind::DyFuse, L1DParams{},
          benchmarkByName("MVT"));
    a.run();
    Gpu b(tinyGpu(), L1DKind::DyFuse, L1DParams{},
          benchmarkByName("MVT"));
    b.run();
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_DOUBLE_EQ(a.l1dMissRate(), b.l1dMissRate());
}

TEST(Gpu, StatsAggregationSumsAcrossSms)
{
    Gpu gpu(tinyGpu(), L1DKind::L1Sram, L1DParams{},
            benchmarkByName("2DCONV"));
    gpu.run();
    double manual = 0.0;
    for (const auto &sm : gpu.sms())
        manual += sm->stats().get("l1d_transactions");
    EXPECT_DOUBLE_EQ(gpu.sumSmStat("l1d_transactions"), manual);
    EXPECT_GT(manual, 0.0);
}

TEST(Gpu, MemoryBoundWorkloadWaitsOnMemory)
{
    Gpu gpu(tinyGpu(), L1DKind::L1Sram, L1DParams{},
            benchmarkByName("ATAX"));
    gpu.run();
    const double waits = gpu.sumSmStat("mem_wait_cycles")
                         + gpu.sumSmStat("l1d_stall_cycles");
    EXPECT_GT(waits, 0.0);
}

TEST(Gpu, MaxCyclesCapStopsTheClockAtTheCap)
{
    // A budget no SM can retire under the cap: the clock must stop at
    // exactly maxCycles.
    SimConfig config = SimConfig::testScale();
    config.gpu.maxCycles = 5000;
    const Metrics m = Simulator(config).run("PVC", L1DKind::DyFuse);
    EXPECT_EQ(m.cycles, 5000u);
    EXPECT_LT(m.instructions, config.gpu.instructionBudgetPerSm
                                  * config.gpu.numSms);
}

TEST(Gpu, ZeroBudgetIsDoneAfterOneCycle)
{
    // Every SM is done before cycle 0: the clock still ticks each SM
    // once at cycle 0 and reports one elapsed cycle.
    SimConfig config = SimConfig::testScale();
    config.gpu.instructionBudgetPerSm = 0;
    const Metrics m = Simulator(config).run("ATAX", L1DKind::DyFuse);
    EXPECT_EQ(m.cycles, 1u);
    EXPECT_EQ(m.instructions, 0u);
}

} // namespace
} // namespace fuse
