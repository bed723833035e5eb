#include "serve/campaign.hh"

#include <link.h>
#include <sys/auxv.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <fstream>
#include <utility>

#include "common/bitops.hh"
#include "common/log.hh"
#include "exp/canonical.hh"
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

/** One step of the build-identity hash: FNV-1a over a 64-bit word,
 *  then an xor-shift fold so a word's high bits reach the low bits. */
std::uint64_t
mixWord(std::uint64_t h, std::uint64_t word)
{
    h = (h ^ word) * 0x100000001b3ull;
    return h ^ (h >> 32);
}

/** Fold every byte of @p path into @p h, 8-byte words at a time, then
 *  its length, so a trailing zero byte or a moved file boundary still
 *  changes the hash. The file is read through a 64 KiB buffer, never
 *  mapped: mapped pages would count toward the process's resident set. */
std::uint64_t
hashFile(std::uint64_t h, const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    constexpr std::size_t kBufferBytes = 64 * 1024;
    std::vector<char> buffer(kBufferBytes);
    std::uint64_t length = 0;
    // read() fills the whole buffer until end of file, so only the last
    // chunk can end mid-word and the words do not depend on chunking.
    while (is) {
        is.read(buffer.data(), kBufferBytes);
        const auto filled = static_cast<std::size_t>(is.gcount());
        for (std::size_t i = 0; i < filled; i += 8) {
            std::uint64_t word = 0;
            std::memcpy(&word, buffer.data() + i,
                        std::min<std::size_t>(8, filled - i));
            h = mixWord(h, word);
        }
        length += filled;
    }
    if (!is.eof() || is.bad())
        fuse_fatal("cannot read build object '%s': %s", path.c_str(),
                   std::strerror(errno));
    return mixWord(h, length);
}

/** The running executable (as /proc/self/exe) and every shared object
 *  it has loaded, in link-map order. The vDSO is skipped: the kernel
 *  provides it and no file backs it. */
std::vector<std::string>
loadedObjectPaths()
{
    struct Walk
    {
        std::uintptr_t vdso;
        std::vector<std::string> paths;
    } walk{static_cast<std::uintptr_t>(getauxval(AT_SYSINFO_EHDR)),
           {"/proc/self/exe"}};
    dl_iterate_phdr(
        [](dl_phdr_info *info, std::size_t, void *data) -> int {
            Walk &w = *static_cast<Walk *>(data);
            // The main program is listed first, with an empty name.
            if (!info->dlpi_name || !info->dlpi_name[0])
                return 0;
            for (ElfW(Half) i = 0; i < info->dlpi_phnum; ++i) {
                const ElfW(Phdr) &ph = info->dlpi_phdr[i];
                if (ph.p_type == PT_LOAD && ph.p_offset == 0
                    && info->dlpi_addr + ph.p_vaddr == w.vdso)
                    return 0;
            }
            w.paths.emplace_back(info->dlpi_name);
            return 0;
        },
        &walk);
    return walk.paths;
}

/** The CPU features glibc's libm dispatches its exp/log/pow variants
 *  on: the same bytes can compute different doubles on another CPU. */
std::uint64_t
libmCpuFeatures()
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    return (__builtin_cpu_supports("fma") ? 1u : 0u)
           | (__builtin_cpu_supports("avx2") ? 2u : 0u)
           | (__builtin_cpu_supports("avx512f") ? 4u : 0u);
#else
    return 0;
#endif
}

} // namespace

std::uint64_t
hashBuildObjects(const std::vector<std::string> &paths,
                 std::uint64_t cpu_features)
{
    std::uint64_t h = fnv1a64(&cpu_features, sizeof cpu_features);
    for (const std::string &path : paths)
        h = hashFile(h, path);
    return h;
}

std::uint64_t
buildIdentity()
{
    return hashBuildObjects(loadedObjectPaths(), libmCpuFeatures());
}

std::uint64_t
binaryFingerprint()
{
    static const std::uint64_t fp = buildIdentity();
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
