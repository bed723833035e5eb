#include "exp/experiment.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/log.hh"
#include "workload/benchmarks.hh"

namespace fuse
{

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t first = s.find_first_not_of(" \t\r\n");
    if (first == std::string::npos)
        return "";
    std::size_t last = s.find_last_not_of(" \t\r\n");
    return s.substr(first, last - first + 1);
}

/** Whole-string decimal seed of spec line @p line_no. strtoull alone
 *  reads "abc" as 0 and wraps "-1" to 2^64-1, so only digits pass. */
std::uint64_t
parseSeed(const std::string &text, int line_no)
{
    errno = 0;
    const unsigned long long n = std::strtoull(text.c_str(), nullptr, 10);
    if (text.empty() || text.find_first_not_of("0123456789")
                            != std::string::npos || errno == ERANGE)
        fuse_fatal("spec line %d: seed expects a non-negative integer, "
                   "got '%s'", line_no, text.c_str());
    return n;
}

/** Whole-string finite number for override @p key on spec line
 *  @p line_no: "0.5x" or an empty value is fatal, not 0.5 or 0.0. */
double
parseOverrideValue(const std::string &key, const std::string &text,
                   int line_no)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || errno == ERANGE
        || !std::isfinite(v))
        fuse_fatal("spec line %d: %s expects a number, got '%s'", line_no,
                   key.c_str(), text.c_str());
    return v;
}

/** Table of assignable SimConfig fields, keyed by dotted path. */
struct OverrideField
{
    const char *key;
    void (*set)(SimConfig &, double);
};

const std::vector<OverrideField> &
overrideFields()
{
    static const std::vector<OverrideField> fields = {
        {"gpu.numSms",
         [](SimConfig &c, double v) {
             c.gpu.numSms = static_cast<std::uint32_t>(v);
         }},
        {"gpu.warpsPerSm",
         [](SimConfig &c, double v) {
             c.gpu.warpsPerSm = static_cast<std::uint32_t>(v);
         }},
        {"gpu.instructionBudgetPerSm",
         [](SimConfig &c, double v) {
             c.gpu.instructionBudgetPerSm =
                 static_cast<std::uint64_t>(v);
         }},
        {"gpu.maxCycles",
         [](SimConfig &c, double v) {
             c.gpu.maxCycles = static_cast<Cycle>(v);
         }},
        {"gpu.traceSeed",
         [](SimConfig &c, double v) {
             c.gpu.traceSeed = static_cast<std::uint64_t>(v);
         }},
        {"l1d.areaBudgetBytes",
         [](SimConfig &c, double v) {
             c.l1d.areaBudgetBytes = static_cast<std::uint32_t>(v);
         }},
        {"l1d.sramAreaFraction",
         [](SimConfig &c, double v) { c.l1d.sramAreaFraction = v; }},
        {"l1d.sttDensity",
         [](SimConfig &c, double v) { c.l1d.sttDensity = v; }},
        {"l1d.sramWays",
         [](SimConfig &c, double v) {
             c.l1d.sramWays = static_cast<std::uint32_t>(v);
         }},
        {"l1d.sttWays",
         [](SimConfig &c, double v) {
             c.l1d.sttWays = static_cast<std::uint32_t>(v);
         }},
        {"l1d.baselineWays",
         [](SimConfig &c, double v) {
             c.l1d.baselineWays = static_cast<std::uint32_t>(v);
         }},
        {"l1d.nvmWays",
         [](SimConfig &c, double v) {
             c.l1d.nvmWays = static_cast<std::uint32_t>(v);
         }},
        {"l1d.mshrEntries",
         [](SimConfig &c, double v) {
             c.l1d.mshrEntries = static_cast<std::uint32_t>(v);
         }},
        {"l1d.tagQueueEntries",
         [](SimConfig &c, double v) {
             c.l1d.tagQueueEntries = static_cast<std::uint32_t>(v);
         }},
        {"l1d.swapBufferEntries",
         [](SimConfig &c, double v) {
             c.l1d.swapBufferEntries = static_cast<std::uint32_t>(v);
         }},
        {"l1d.approx.numCbfs",
         [](SimConfig &c, double v) {
             c.l1d.approx.numCbfs = static_cast<std::uint32_t>(v);
         }},
        {"l1d.approx.numHashes",
         [](SimConfig &c, double v) {
             c.l1d.approx.numHashes = static_cast<std::uint32_t>(v);
         }},
        {"l1d.approx.cbfSlots",
         [](SimConfig &c, double v) {
             c.l1d.approx.cbfSlots = static_cast<std::uint32_t>(v);
         }},
        {"l1d.approx.comparators",
         [](SimConfig &c, double v) {
             c.l1d.approx.comparators = static_cast<std::uint32_t>(v);
         }},
        {"l1d.predictor.samplerSets",
         [](SimConfig &c, double v) {
             c.l1d.predictor.samplerSets = static_cast<std::uint32_t>(v);
         }},
        {"l1d.predictor.samplerWays",
         [](SimConfig &c, double v) {
             c.l1d.predictor.samplerWays = static_cast<std::uint32_t>(v);
         }},
        {"l1d.predictor.historyEntries",
         [](SimConfig &c, double v) {
             c.l1d.predictor.historyEntries =
                 static_cast<std::uint32_t>(v);
         }},
        {"l1d.predictor.unusedThreshold",
         [](SimConfig &c, double v) {
             c.l1d.predictor.unusedThreshold =
                 static_cast<std::uint32_t>(v);
         }},
        {"l1d.predictor.counterInit",
         [](SimConfig &c, double v) {
             c.l1d.predictor.counterInit = static_cast<std::uint32_t>(v);
         }},
        {"energy.coreClockHz",
         [](SimConfig &c, double v) { c.energy.coreClockHz = v; }},
    };
    return fields;
}

/** ExperimentSpec::appendBenchmarks for kind words: fatal on a repeated
 *  kind. */
void
appendKinds(std::vector<L1DKind> &out, const std::string &list)
{
    for (const auto &word : splitList(list)) {
        for (L1DKind k : ExperimentSpec::resolveKinds(word)) {
            if (std::find(out.begin(), out.end(), k) != out.end())
                fuse_fatal("L1D kind '%s' is listed twice", toString(k));
            out.push_back(k);
        }
    }
}

} // namespace

const std::vector<std::string> &
overrideKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> out;
        for (const auto &f : overrideFields())
            out.push_back(f.key);
        return out;
    }();
    return keys;
}

void
applyOverride(SimConfig &config, const ConfigOverride &override)
{
    for (const auto &f : overrideFields()) {
        if (override.key == f.key) {
            f.set(config, override.value);
            return;
        }
    }
    fuse_fatal("unknown config override key '%s'", override.key.c_str());
}

std::vector<std::string>
ExperimentSpec::variantLabels() const
{
    std::vector<std::string> labels;
    if (variants.empty()) {
        labels.push_back("");
        return labels;
    }
    for (const auto &v : variants)
        labels.push_back(v.label);
    return labels;
}

SimConfig
ExperimentSpec::baseConfig() const
{
    if (base == "fermi")
        return SimConfig::fermi();
    if (base == "volta")
        return SimConfig::volta();
    if (base == "test")
        return SimConfig::testScale();
    fuse_fatal("unknown base config '%s' (fermi|volta|test)",
               base.c_str());
}

SimConfig
ExperimentSpec::configFor(std::size_t variant) const
{
    SimConfig config = baseConfig();
    // The seed is part of the spec, never of the schedule: an N-thread
    // sweep generates byte-identical traces to a serial one.
    config.gpu.traceSeed = seed;
    if (!variants.empty()) {
        if (variant >= variants.size())
            fuse_fatal("variant index %zu out of range (%zu variants)",
                       variant, variants.size());
        for (const auto &o : variants[variant].overrides)
            applyOverride(config, o);
    }
    return config;
}

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, sep)) {
        item = trim(item);
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

std::vector<std::string>
ExperimentSpec::resolveBenchmarks(const std::string &word)
{
    if (word == "all") {
        std::vector<std::string> names;
        for (const auto &b : allBenchmarks())
            names.push_back(b.name);
        return names;
    }
    if (word == "motivation")
        return motivationWorkloads();
    if (word == "sensitivity")
        return sensitivityWorkloads();
    benchmarkByName(word); // Fatal if unknown.
    return {word};
}

std::vector<L1DKind>
ExperimentSpec::resolveKinds(const std::string &word)
{
    if (word == "all")
        return allL1DKinds();
    L1DKind kind;
    if (!l1dKindFromString(word, kind))
        fuse_fatal("unknown L1D kind '%s'", word.c_str());
    return {kind};
}

void
ExperimentSpec::appendBenchmarks(std::vector<std::string> &out,
                                 const std::string &list)
{
    for (const auto &word : splitList(list)) {
        for (const auto &name : resolveBenchmarks(word)) {
            if (std::find(out.begin(), out.end(), name) != out.end())
                fuse_fatal("workload '%s' is listed twice", name.c_str());
            out.push_back(name);
        }
    }
}

void
ExperimentSpec::restrictTo(const std::string &benchmarks_list,
                           const std::string &kinds_list)
{
    if (!benchmarks_list.empty()) {
        benchmarks.clear();
        appendBenchmarks(benchmarks, benchmarks_list);
    }
    if (!kinds_list.empty()) {
        kinds.clear();
        appendKinds(kinds, kinds_list);
    }
}

ExperimentSpec
ExperimentSpec::parseFile(const std::string &path)
{
    // C stdio for stdin: <iostream>'s static stream set-up would be paid
    // at start-up by every program linking the library.
    if (path == "-") {
        std::string text;
        char chunk[4096];
        std::size_t n;
        while ((n = std::fread(chunk, 1, sizeof(chunk), stdin)) > 0)
            text.append(chunk, n);
        return parse(text);
    }
    std::ifstream is(path);
    if (!is)
        fuse_fatal("cannot read spec file '%s'", path.c_str());
    std::stringstream buffer;
    buffer << is.rdbuf();
    return parse(buffer.str());
}

ExperimentSpec
ExperimentSpec::parse(const std::string &text)
{
    ExperimentSpec spec;
    spec.benchmarks.clear();
    spec.kinds.clear();

    std::stringstream ss(text);
    std::string raw;
    int line_no = 0;
    while (std::getline(ss, raw)) {
        ++line_no;
        std::string line = trim(raw);
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = trim(line.substr(0, hash));
        if (line.empty())
            continue;

        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            fuse_fatal("spec line %d: expected 'key: value', got '%s'",
                       line_no, line.c_str());
        const std::string key = trim(line.substr(0, colon));
        const std::string value = trim(line.substr(colon + 1));

        if (key == "name") {
            spec.name = value;
        } else if (key == "base") {
            spec.base = value;
        } else if (key == "seed") {
            spec.seed = parseSeed(value, line_no);
        } else if (key == "benchmarks") {
            appendBenchmarks(spec.benchmarks, value);
        } else if (key == "kinds") {
            appendKinds(spec.kinds, value);
        } else if (key == "variant") {
            // "label | key=value, key=value" (label optional).
            ConfigVariant variant;
            std::string overrides_text = value;
            const std::size_t bar = value.find('|');
            if (bar != std::string::npos) {
                variant.label = trim(value.substr(0, bar));
                overrides_text = trim(value.substr(bar + 1));
            }
            for (const auto &assign : splitList(overrides_text)) {
                const std::size_t eq = assign.find('=');
                if (eq == std::string::npos)
                    fuse_fatal("spec line %d: expected key=value in "
                               "variant, got '%s'",
                               line_no, assign.c_str());
                ConfigOverride o;
                o.key = trim(assign.substr(0, eq));
                o.value = parseOverrideValue(
                    o.key, trim(assign.substr(eq + 1)), line_no);
                variant.overrides.push_back(std::move(o));
            }
            if (variant.label.empty())
                variant.label = overrides_text;
            spec.variants.push_back(std::move(variant));
        } else {
            fuse_fatal("spec line %d: unknown key '%s'", line_no,
                       key.c_str());
        }
    }

    if (spec.benchmarks.empty())
        spec.benchmarks = resolveBenchmarks("all");
    if (spec.kinds.empty())
        spec.kinds = {L1DKind::L1Sram, L1DKind::DyFuse};
    // Validate override keys up front rather than mid-sweep.
    for (std::size_t v = 0; v < spec.variantCount(); ++v)
        spec.configFor(v);
    return spec;
}

} // namespace fuse
