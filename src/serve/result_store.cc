#include "serve/result_store.hh"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "exp/export.hh"
#include "fuse/l1d.hh"

namespace fs = std::filesystem;

namespace fuse
{

namespace
{

// Records are one-cell ResultSets; the experiment name doubles as the
// on-disk format version so a future layout change can refuse (or
// migrate) old stores instead of misparsing them.
constexpr const char *kRecordFormat = "fuse_serve/v1";

} // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        fuse_fatal("cannot create result store '%s': %s", dir_.c_str(),
                   ec.message().c_str());
}

std::string
ResultStore::recordPath(const std::string &key) const
{
    return dir_ + "/" + key + ".json";
}

std::string
ResultStore::sidecarPath(const std::string &key) const
{
    return dir_ + "/" + key + ".point";
}

bool
ResultStore::contains(const std::string &key) const
{
    std::error_code ec;
    return fs::exists(recordPath(key), ec);
}

bool
ResultStore::get(const std::string &key, RunResult &out) const
{
    std::ifstream is(recordPath(key));
    if (!is)
        return false;
    std::string experiment;
    const std::vector<FlatRun> runs = readJson(is, &experiment);
    if (experiment != kRecordFormat || runs.size() != 1)
        fuse_fatal("store record '%s' is not a %s record (experiment "
                   "'%s', %zu runs)", recordPath(key).c_str(),
                   kRecordFormat, experiment.c_str(), runs.size());
    const FlatRun &run = runs.front();
    L1DKind kind;
    if (!l1dKindFromString(run.kind, kind))
        fuse_fatal("store record '%s' has unknown L1D kind '%s'",
                   recordPath(key).c_str(), run.kind.c_str());
    out.benchmark = run.benchmark;
    out.kind = kind;
    out.variant = 0;
    out.variantLabel = run.variantLabel;
    out.metrics = metricsFromFlat(run);
    out.valid = true;
    return true;
}

void
ResultStore::put(const std::string &key, const RunResult &run,
                 const std::string &point_text) const
{
    ResultSet record(kRecordFormat, {run.benchmark}, {run.kind},
                     {run.variantLabel});
    RunResult &cell = record.at(0);
    cell = run;
    cell.variant = 0;
    cell.valid = true;

    std::ostringstream os;
    writeJson(os, record);

    // Unique tmp name per writer: concurrent workers may legitimately
    // put the same key (duplicate grid points), and the rename decides
    // the winner — both wrote identical bytes anyway.
    static std::atomic<unsigned> tmpSerial{0};
    const std::string tmp = recordPath(key) + ".tmp"
                            + std::to_string(tmpSerial.fetch_add(1));
    {
        std::ofstream f(tmp);
        if (!f)
            fuse_fatal("cannot write store record '%s'", tmp.c_str());
        f << os.str();
        if (!f.flush())
            fuse_fatal("short write to store record '%s'", tmp.c_str());
    }
    {
        std::ofstream f(sidecarPath(key));
        if (!f)
            fuse_fatal("cannot write store sidecar '%s'",
                       sidecarPath(key).c_str());
        f << point_text;
    }
    std::error_code ec;
    fs::rename(tmp, recordPath(key), ec);
    if (ec)
        fuse_fatal("cannot commit store record '%s': %s",
                   recordPath(key).c_str(), ec.message().c_str());
}

bool
ResultStore::evict(const std::string &key) const
{
    std::error_code ec;
    const bool existed = fs::remove(recordPath(key), ec);
    fs::remove(sidecarPath(key), ec);
    return existed;
}

std::size_t
ResultStore::size() const
{
    std::size_t n = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir_, ec))
        if (entry.path().extension() == ".json")
            ++n;
    return n;
}

void
ResultStore::clear() const
{
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        const fs::path &path = entry.path();
        const std::string ext = path.extension().string();
        // "<key>.json.tmpN" is a record put() staged but a killed
        // writer never renamed into place.
        const bool staged = ext.rfind(".tmp", 0) == 0
                            && path.stem().extension() == ".json";
        if (ext == ".json" || ext == ".point" || staged)
            fs::remove(path, ec);
    }
}

} // namespace fuse
