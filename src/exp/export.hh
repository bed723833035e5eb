/**
 * @file
 * Machine-readable result export: a named-metric registry over Metrics
 * plus CSV and JSON writers for a ResultSet (and matching minimal readers
 * for round-trip checks and post-processing scripts). Doubles are printed
 * with %.17g so a write/read cycle is value-exact.
 */

#ifndef FUSE_EXP_EXPORT_HH
#define FUSE_EXP_EXPORT_HH

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "exp/result_set.hh"
#include "prof/prof.hh"

namespace fuse
{

/** One exportable scalar of a Metrics record. */
struct MetricField
{
    const char *name;
    double (*get)(const Metrics &);
    /** Inverse of get: writes the field back into a Metrics record (the
     *  result store rebuilds full Metrics from its records with it). */
    void (*set)(Metrics &, double);
};

/** Every exported metric, in column order. */
const std::vector<MetricField> &metricFields();

/** Value of metric @p name on @p metrics (fatal on unknown name). */
double metricValue(const Metrics &metrics, const std::string &name);

/** Write @p results as CSV: benchmark,kind,variant,<metrics...>. */
void writeCsv(std::ostream &os, const ResultSet &results);

/** Write @p results as a JSON document with an array of run objects. */
void writeJson(std::ostream &os, const ResultSet &results);

/**
 * The CLIs' output-file convention: run @p write on stdout when @p path
 * is "-", else on a fresh file at @p path (fatal when it cannot be
 * opened) and note "wrote PATH" on stderr.
 */
void exportTo(const std::string &path,
              const std::function<void(std::ostream &)> &write);

/** A parsed export row, independent of the on-disk format. */
struct FlatRun
{
    std::string benchmark;
    std::string kind;
    std::string variantLabel;
    std::map<std::string, double> values;
};

/**
 * Rebuild a Metrics record from a parsed export row. Every field that
 * writeCsv/writeJson emit is restored exactly (doubles round-trip through
 * %.17g bit-for-bit), so a campaign served from stored records exports
 * byte for byte like a fresh sweep. Unknown value names are fatal.
 */
Metrics metricsFromFlat(const FlatRun &run);

/** Parse writeCsv output (fatal on malformed input). */
std::vector<FlatRun> readCsv(std::istream &is);

/** Parse writeJson output (fatal on malformed input). When
 *  @p experiment is non-null it receives the document's experiment
 *  name. */
std::vector<FlatRun> readJson(std::istream &is,
                              std::string *experiment = nullptr);

/**
 * Write a profiling attribution next to sweep results: a JSON document
 * naming the experiment and build configuration around the report's
 * committed format. In a FUSE_PROF=OFF build the document is still
 * written — with "prof_enabled": false and whatever (usually empty)
 * sites exist — so downstream tooling never has to special-case the
 * default build. The document round-trips through
 * prof::ProfileReport::fromJson.
 */
void writeProfileJson(std::ostream &os, const std::string &experiment,
                      const prof::ProfileReport &report, std::size_t runs);

} // namespace fuse

#endif // FUSE_EXP_EXPORT_HH
