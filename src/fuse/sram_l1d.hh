/**
 * @file
 * SRAM-only L1D organisations: the L1-SRAM baseline (4-way set-associative,
 * GTX480-like) and the idealised FA-SRAM (fully associative with parallel
 * comparators — circuit-infeasible at scale, evaluated for reference).
 */

#ifndef FUSE_FUSE_SRAM_L1D_HH
#define FUSE_FUSE_SRAM_L1D_HH

#include "cache/mshr.hh"
#include "fuse/cache_bank.hh"
#include "fuse/l1d.hh"

namespace fuse
{

/** Configuration for a pure-SRAM L1D. */
struct SramL1DConfig
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t numWays = 4;
    bool fullyAssociative = false;
    std::uint32_t mshrEntries = 32;
};

/**
 * Non-blocking write-back SRAM L1D with an MSHR. This is both the paper's
 * baseline ("Vanilla GPU"/L1-SRAM) and, with fullyAssociative set, FA-SRAM.
 */
class SramL1D : public L1DCache
{
  public:
    SramL1D(const SramL1DConfig &config, MemoryHierarchy &hierarchy);

    L1DResult access(const MemRequest &req, Cycle now) override;
    /** Hits, MSHR merges and MSHR-full stalls are private; only a fresh
     *  miss (off-chip request plus a possible dirty writeback) defers. */
    L1DResult accessPrivate(const MemRequest &req, Cycle now) override;
    L1DKind kind() const override;

    CacheBank &bank() { return bank_; }
    Mshr &mshr() { return mshr_; }

  private:
    /** The access pipeline; with kPrivate set it stops with Deferred
     *  right before the first hierarchy call. */
    template <bool kPrivate>
    L1DResult accessImpl(const MemRequest &req, Cycle now);

    SramL1DConfig config_;
    CacheBank bank_;
    Mshr mshr_;
};

} // namespace fuse

#endif // FUSE_FUSE_SRAM_L1D_HH
