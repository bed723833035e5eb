#include "serve/campaign.hh"

#include <exception>
#include <sstream>
#include <utility>

#include "common/bitops.hh"
#include "common/log.hh"
#include "exp/canonical.hh"
#include "exp/export.hh"
#include "exp/sweep_runner.hh"
#include "fuse/l1d.hh"

namespace fuse
{

namespace
{

/** Canonical point text + fingerprint line: the exact bytes a cache key
 *  hashes (also what the store's .point sidecar records). */
std::string
keyedPointText(const ExperimentSpec &spec, std::size_t b, std::size_t v,
               std::size_t k, std::uint64_t fingerprint)
{
    std::string text = canonicalSpecPoint(spec, b, v, k);
    text += "fingerprint = ";
    text += hexDigest64(fingerprint);
    text += '\n';
    return text;
}

/** Default PointRunner: one-cell subspec through a serial SweepRunner.
 *  Seeding is pure spec state, so the cell is bit-identical to the same
 *  cell of a full-grid sweep. */
Metrics
simulatePoint(const ExperimentSpec &spec, std::size_t b, std::size_t v,
              std::size_t k)
{
    ExperimentSpec sub = spec;
    sub.benchmarks = {spec.benchmarks.at(b)};
    sub.kinds = {spec.kinds.at(k)};
    if (!spec.variants.empty())
        sub.variants = {spec.variants.at(v)};
    SweepRunner runner(1);
    return runner.run(sub).at(0).metrics;
}

} // namespace

std::uint64_t
binaryFingerprint()
{
    // The probe pins its instruction budget by override so FUSE_FAST
    // (which only scales preset budgets) can't make two identical
    // builds disagree; base "test" keeps it to ~18 tiny runs.
    static const std::uint64_t fp = []() {
        ExperimentSpec spec;
        spec.name = "fingerprint_probe";
        spec.base = "test";
        spec.benchmarks = {"ATAX", "BICG"};
        spec.kinds = allL1DKinds();
        spec.seed = 1;
        spec.variants = {ConfigVariant{
            "probe", {ConfigOverride{"gpu.instructionBudgetPerSm", 2000.0}}}};
        SweepRunner runner(1);
        const ResultSet results = runner.run(spec);
        std::ostringstream os;
        writeJson(os, results);
        return fnv1a64(os.str());
    }();
    return fp;
}

CampaignService::CampaignService(const ServeOptions &options)
    : options_(options),
      fingerprint_(options.fingerprint ? options.fingerprint
                                       : binaryFingerprint()),
      store_(options.storeDir),
      runPoint_(simulatePoint)
{
    if (options.storeDir.empty())
        fuse_fatal("CampaignService needs a store directory");
}

void
CampaignService::setPointRunner(PointRunner runner)
{
    runPoint_ = std::move(runner);
}

std::string
CampaignService::cacheKey(const ExperimentSpec &spec, std::size_t b,
                          std::size_t v, std::size_t k) const
{
    return hexDigest64(fnv1a64(keyedPointText(spec, b, v, k, fingerprint_)));
}

ResultSet
CampaignService::serve(const ExperimentSpec &spec)
{
    ++stats_.campaigns;
    const std::vector<std::string> labels = spec.variantLabels();
    ResultSet cached(spec.name, spec.benchmarks, spec.kinds, labels);
    ResultSet fresh(spec.name, spec.benchmarks, spec.kinds, labels);

    const std::size_t kinds = spec.kinds.size();
    const std::size_t variants = spec.variantCount();
    struct Point
    {
        std::size_t i, b, v, k;
        std::string key;
    };

    // Serve every point the store holds; collect the cold ones.
    std::vector<Point> cold;
    for (std::size_t i = 0; i < cached.size(); ++i) {
        const std::size_t k = i % kinds;
        const std::size_t v = (i / kinds) % variants;
        const std::size_t b = i / (kinds * variants);
        ++stats_.points;

        std::string key = cacheKey(spec, b, v, k);
        RunResult record;
        if (store_.get(key, record)) {
            // A key collision or a store pointed at the wrong tree
            // would serve the wrong simulation; refuse loudly.
            if (record.benchmark != spec.benchmarks[b]
                || record.kind != spec.kinds[k])
                fuse_fatal("store record %s holds (%s, %s), campaign "
                           "point is (%s, %s)", key.c_str(),
                           record.benchmark.c_str(),
                           toString(record.kind),
                           spec.benchmarks[b].c_str(),
                           toString(spec.kinds[k]));
            RunResult &cell = cached.at(i);
            cell = record;
            cell.variant = v;
            cell.variantLabel = labels[v];
            ++stats_.hits;
            continue;
        }
        ++stats_.misses;
        cold.push_back(Point{i, b, v, k, std::move(key)});
    }

    // Simulate each cold point once. Workers write disjoint cells of
    // `fresh` and disjoint error slots, and the store's puts are
    // rename-atomic, so nothing here needs a lock.
    std::vector<std::string> errors(cold.size());
    parallelFor(cold.size(), options_.workers, [&](std::size_t c) {
        const Point &p = cold[c];
        try {
            RunResult run;
            run.benchmark = spec.benchmarks[p.b];
            run.kind = spec.kinds[p.k];
            run.variant = p.v;
            run.variantLabel = labels[p.v];
            run.metrics = runPoint_(spec, p.b, p.v, p.k);
            run.valid = true;
            store_.put(p.key, run,
                       keyedPointText(spec, p.b, p.v, p.k, fingerprint_));
            fresh.at(p.i) = std::move(run);
        } catch (const std::exception &e) {
            errors[c] = e.what();
        } catch (...) {
            errors[c] = "unknown exception";
        }
    });

    // Cells a throw left invalid go to the ledger, in grid order.
    for (std::size_t c = 0; c < cold.size(); ++c) {
        const Point &p = cold[c];
        if (fresh.at(p.i).valid) {
            ++stats_.simulations;
            continue;
        }
        std::string label = spec.benchmarks[p.b];
        label += '/';
        label += toString(spec.kinds[p.k]);
        if (!labels[p.v].empty()) {
            label += '/';
            label += labels[p.v];
        }
        ++stats_.failures;
        failures_.push_back(Failure{std::move(label), std::move(errors[c])});
    }

    // Overlap-fatal merge doubles as the disjointness proof: a point
    // served from cache AND simulated would abort here.
    ResultSet merged(spec.name, spec.benchmarks, spec.kinds, labels);
    merged.merge(cached);
    merged.merge(fresh);
    return merged;
}

} // namespace fuse
