#include "fuse/sram_l1d.hh"

#include <algorithm>

#include "prof/prof.hh"

namespace fuse
{

namespace
{
SramL1DConfig
normalized(SramL1DConfig config)
{
    if (config.fullyAssociative)
        config.numWays = std::max<std::uint32_t>(
            1, config.sizeBytes / kLineSize);
    return config;
}
} // namespace

SramL1D::SramL1D(const SramL1DConfig &config, MemoryHierarchy &hierarchy)
    : L1DCache("l1d.sram", hierarchy),
      config_(normalized(config)),
      bank_(config_.fullyAssociative
                ? [&] {
                      BankConfig b = makeSramBankConfig(config_.sizeBytes,
                                                        config_.numWays);
                      b.numSets = 1;
                      b.numWays = config_.sizeBytes / kLineSize;
                      return b;
                  }()
                : makeSramBankConfig(config_.sizeBytes, config_.numWays),
            "l1d.sram.bank"),
      mshr_(config_.mshrEntries, &stats_)
{
}

L1DKind
SramL1D::kind() const
{
    return config_.fullyAssociative ? L1DKind::FaSram : L1DKind::L1Sram;
}

L1DResult
SramL1D::access(const MemRequest &req, Cycle now)
{
    return accessImpl<false>(req, now);
}

L1DResult
SramL1D::accessPrivate(const MemRequest &req, Cycle now)
{
    return accessImpl<true>(req, now);
}

template <bool kPrivate>
L1DResult
SramL1D::accessImpl(const MemRequest &req, Cycle now)
{
    FUSE_PROF_COUNT(l1d_sram, accesses);
    // Retiring the fills due by `now` is idempotent at a fixed cycle, so
    // a Deferred private access that already retired them leaves the
    // re-presented access() nothing observable to redo.
    mshr_.retireReady(now);
    const Addr line = req.line();

    // A line with an in-flight fill must not be served from the tag array
    // (the fill was applied eagerly; data arrives at readyAt).
    if (MshrEntry *inflight = mshr_.find(line)) {
        countMiss(req);
        ++(*statMshrSecondary_);
        return {L1DResult::Kind::Miss,
                std::max(now + 1, inflight->readyAt)};
    }

    // The request's one residency resolution: the probe serves the hit
    // path and, on a miss, the eager fill below (nothing between the two
    // mutates the bank). Both consults above are presence-gated: the
    // MSHR find and this lookup each skip their structure entirely when
    // the exact summary (cache/presence.hh) proves the line absent —
    // the common case for a streaming miss.
    const TagArray::Probe probe = bank_.lookup(line);
    Cycle done = 0;
    if (bank_.accessAt(probe, req.type, now, &done)) {
        countHit(req);
        return {L1DResult::Kind::Hit, done};
    }

    // Miss: allocate an MSHR entry and go off chip. Write misses allocate
    // too (write-back, write-allocate). Capacity is checked *before* the
    // off-chip request is issued so a stalled access can retry without
    // double-booking network/DRAM bandwidth.
    if (mshr_.full()) {
        ++(*statStallMshrFull_);
        return {L1DResult::Kind::Stall,
                std::max(now + 1, mshr_.minReadyAt())};
    }
    if constexpr (kPrivate)
        return {L1DResult::Kind::Deferred, 0};
    countMiss(req);
    OffchipResult off = hierarchy_->access(req, now);
    // In-flight check + full() gate above prove a fresh allocation.
    mshr_.allocate(line, off.doneAt, BankId::Sram);

    // Eager fill (tag-array state); data validity is guarded by the MSHR
    // in-flight check above.
    Cycle fill_done = 0;
    auto eviction = bank_.fillAt(probe, line, req.type, now, &fill_done);
    if (eviction && eviction->line.dirty) {
        MemRequest wb;
        wb.addr = eviction->line.tag << kLineShift;
        wb.smId = req.smId;
        wb.type = AccessType::Write;
        hierarchy_->writeback(wb, now);
        ++(*statWritebacks_);
    }
    return {L1DResult::Kind::Miss, off.doneAt};
}

} // namespace fuse
