/**
 * @file
 * ResultStore: the persistent, content-addressed half of the campaign
 * service. One record per simulated grid point, named by its cache key
 * (16 hex digits = FNV-1a of canonical point text + binary fingerprint),
 * stored as a one-cell writeJson export so a cached point round-trips
 * the exporters' %.17g discipline bit-for-bit — a campaign assembled
 * from cache is byte-identical to one simulated fresh. Next to every
 * record sits a ".point" sidecar holding the canonical text that hashed
 * to the key, so a store can be audited by hand.
 *
 * Records hold the exported metric set (metricFields()); like shard
 * merges, non-exported diagnostics (predOutcomes, profile) are not
 * preserved across the cache.
 */

#ifndef FUSE_SERVE_RESULT_STORE_HH
#define FUSE_SERVE_RESULT_STORE_HH

#include <cstddef>
#include <string>

#include "exp/result_set.hh"

namespace fuse
{

class ResultStore
{
  public:
    /** Open (creating if needed) the store rooted at @p dir. */
    explicit ResultStore(std::string dir);

    const std::string &dir() const { return dir_; }

    /** True if a record for @p key exists. */
    bool contains(const std::string &key) const;

    /**
     * Load the record for @p key into @p out (valid=true on success).
     * Returns false when no record exists; fatal on a corrupt record —
     * the store only ever holds our own writeJson output, so a parse
     * failure means damage that silent re-simulation would paper over.
     */
    bool get(const std::string &key, RunResult &out) const;

    /**
     * Persist @p run under @p key, with @p point_text as the audit
     * sidecar. Written to a temporary file and renamed into place so a
     * crashed writer can never leave a half-record behind.
     */
    void put(const std::string &key, const RunResult &run,
             const std::string &point_text) const;

    /** Remove @p key's record (and sidecar); false when absent. */
    bool evict(const std::string &key) const;

    /** Number of records currently in the store. */
    std::size_t size() const;

    /** Remove every record and sidecar, and every staged record a
     *  writer killed before its rename left behind. */
    void clear() const;

  private:
    std::string recordPath(const std::string &key) const;
    std::string sidecarPath(const std::string &key) const;

    std::string dir_;
};

} // namespace fuse

#endif // FUSE_SERVE_RESULT_STORE_HH
