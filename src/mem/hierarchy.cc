#include "mem/hierarchy.hh"

#include "prof/prof.hh"

namespace fuse
{

MemoryHierarchy::MemoryHierarchy(const NocConfig &noc_config,
                                 const L2Config &l2_config,
                                 const DramConfig &dram_config)
    : noc_(noc_config), l2_(l2_config), dram_(dram_config),
      stats_("offchip")
{
    statRequests_ = &stats_.scalar("requests");
    statReadRequests_ = &stats_.scalar("read_requests");
    statWriteRequests_ = &stats_.scalar("write_requests");
    statDramRequests_ = &stats_.scalar("dram_requests");
    statL2Writebacks_ = &stats_.scalar("l2_writebacks");
    statWritebacks_ = &stats_.scalar("writebacks");
    statRoundTrip_ = &stats_.average("round_trip");
}

OffchipResult
MemoryHierarchy::access(const MemRequest &req, Cycle now)
{
    OffchipResult result;
    FUSE_PROF_COUNT(mem, offchip_requests);
    ++(*statRequests_);
    ++(*(req.isWrite() ? statWriteRequests_ : statReadRequests_));

    const Addr line = req.line();
    const std::uint32_t bank = l2_.bankOf(line);

    // Request network: SM -> L2 bank.
    Cycle at_l2 = noc_.smToL2(req.smId, bank, now);
    Cycle out_net = at_l2 - now;

    // L2 bank access.
    L2Result l2r = l2_.access(line, req.type, at_l2);
    result.l2Hit = l2r.hit;
    Cycle data_ready = l2r.doneAt;

    if (l2r.needsDram) {
        ++(*statDramRequests_);
        Cycle dram_done = dram_.service(line, req.isWrite(), l2r.doneAt);
        result.dramCycles = dram_done - l2r.doneAt;
        data_ready = dram_done;
    }
    if (l2r.writeback) {
        // L2 dirty eviction to DRAM; fire-and-forget bank traffic.
        ++(*statL2Writebacks_);
        dram_.service(*l2r.writeback, true, data_ready);
    }

    // Response network: L2 bank -> SM.
    Cycle at_sm = noc_.l2ToSm(bank, req.smId, data_ready);
    result.networkCycles = out_net + (at_sm - data_ready);
    result.doneAt = at_sm;

    statRoundTrip_->sample(static_cast<double>(at_sm - now));
    return result;
}

void
MemoryHierarchy::writeback(const MemRequest &req, Cycle now)
{
    FUSE_PROF_COUNT(mem, offchip_writebacks);
    ++(*statRequests_);
    ++(*statWritebacks_);
    const Addr line = req.line();
    const std::uint32_t bank = l2_.bankOf(line);
    Cycle at_l2 = noc_.smToL2(req.smId, bank, now);
    L2Result l2r = l2_.access(line, AccessType::Write, at_l2);
    if (l2r.needsDram) {
        ++(*statDramRequests_);
        dram_.service(line, true, l2r.doneAt);
    }
    if (l2r.writeback) {
        ++(*statL2Writebacks_);
        dram_.service(*l2r.writeback, true, l2r.doneAt);
    }
}

} // namespace fuse
