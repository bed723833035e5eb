/**
 * @file
 * First-party exact profiling: event counters, scoped wall-time timers,
 * and a per-component site registry, attributed to simulator components
 * instead of source lines (the HPCToolkit ambition scaled to a
 * simulator: low-overhead measurement of the fully optimized binary,
 * correlated to program structure). gprof mispriced two perf PRs in a
 * row through mcount inflation; both were rescued by hand-inserted
 * exact counters. This layer makes those counters permanent and
 * queryable: every future perf claim starts from exact, committed
 * numbers instead of sampled percentages.
 *
 * Gating: the measurement macros compile to true no-ops (arguments
 * discarded untokenized) unless the library is built with the
 * FUSE_PROF CMake option, so the default build pays nothing — not even
 * argument evaluation. The registry/report API below the macros is
 * always compiled, so reports can be built, serialized, and parsed by
 * tooling and tests in either configuration; in an OFF build the
 * registry simply never sees a hot-path site.
 *
 * Threading: counters are relaxed atomics and site registration takes a
 * mutex, so the sweep thread pool can profile concurrently. Per-run
 * attribution (snapshot + diffSince around one run) is only meaningful
 * when nothing else increments in between — i.e. single-threaded, the
 * default fuse_bench regime. Scoped timers attribute exclusive wall
 * time per thread: a timer's children are the timers nested inside it
 * on the same thread.
 */

#ifndef FUSE_PROF_PROF_HH
#define FUSE_PROF_PROF_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

/** 1 when the measurement macros are live (FUSE_PROF=ON build). */
#if defined(FUSE_PROF) && FUSE_PROF
#define FUSE_PROF_ENABLED 1
#else
#define FUSE_PROF_ENABLED 0
#endif

namespace fuse
{
namespace prof
{

/** True when the measurement macros were compiled in. */
constexpr bool
enabled()
{
    return FUSE_PROF_ENABLED != 0;
}

/**
 * One named measurement site: a (component, name) pair accumulating an
 * event count and, when driven by a ScopedTimer, inclusive/exclusive
 * wall time. Sites live forever in the process-global registry, so the
 * references the macros cache in function-local statics stay valid.
 */
class Site
{
  public:
    Site(std::string component, std::string name)
        : component_(std::move(component)), name_(std::move(name))
    {}

    Site(const Site &) = delete;
    Site &operator=(const Site &) = delete;

    /** Count @p n events (the hot path: one relaxed fetch_add). */
    void add(std::uint64_t n)
    {
        count_.fetch_add(n, std::memory_order_relaxed);
    }

    /** Fold one finished timer scope into the site. */
    void addTime(std::uint64_t inclusive_ns, std::uint64_t exclusive_ns)
    {
        timed_.fetch_add(1, std::memory_order_relaxed);
        inclusiveNs_.fetch_add(inclusive_ns, std::memory_order_relaxed);
        exclusiveNs_.fetch_add(exclusive_ns, std::memory_order_relaxed);
    }

    const std::string &component() const { return component_; }
    const std::string &name() const { return name_; }
    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    std::uint64_t timedScopes() const
    {
        return timed_.load(std::memory_order_relaxed);
    }
    std::uint64_t inclusiveNs() const
    {
        return inclusiveNs_.load(std::memory_order_relaxed);
    }
    std::uint64_t exclusiveNs() const
    {
        return exclusiveNs_.load(std::memory_order_relaxed);
    }

    void reset()
    {
        count_.store(0, std::memory_order_relaxed);
        timed_.store(0, std::memory_order_relaxed);
        inclusiveNs_.store(0, std::memory_order_relaxed);
        exclusiveNs_.store(0, std::memory_order_relaxed);
    }

  private:
    std::string component_;
    std::string name_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> timed_{0};        ///< Finished scopes.
    std::atomic<std::uint64_t> inclusiveNs_{0};  ///< Scope wall time.
    std::atomic<std::uint64_t> exclusiveNs_{0};  ///< Minus child scopes.
};

/**
 * Fetch (or create) the site for @p component / @p name. Takes the
 * registry mutex; hot paths go through the FUSE_PROF_* macros, which
 * call this once per site and cache the reference.
 */
Site &site(const char *component, const char *name);

/**
 * RAII wall-time scope attributing to @p s. Nesting on one thread is
 * tracked through a thread-local scope stack: a scope's exclusive time
 * is its wall time minus the wall time of scopes nested inside it.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Site &s);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Site &site_;
    ScopedTimer *parent_;       ///< Enclosing scope on this thread.
    std::uint64_t startNs_;
    std::uint64_t childNs_ = 0; ///< Wall time of directly nested scopes.
};

/** One site's values frozen at snapshot time. */
struct SiteSample
{
    std::string component;
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t timedScopes = 0;
    std::uint64_t inclusiveNs = 0;
    std::uint64_t exclusiveNs = 0;

    bool operator==(const SiteSample &o) const
    {
        return component == o.component && name == o.name
               && count == o.count && timedScopes == o.timedScopes
               && inclusiveNs == o.inclusiveNs
               && exclusiveNs == o.exclusiveNs;
    }
};

/**
 * A frozen per-component attribution: every registered site's values,
 * sorted by (component, name) so reports are deterministic regardless
 * of which code path registered a site first.
 */
struct ProfileReport
{
    std::vector<SiteSample> sites;

    /** Sample for @p component / @p name, nullptr when absent. */
    const SiteSample *find(const std::string &component,
                           const std::string &name) const;

    /** Count of @p component / @p name (0 when the site is absent). */
    std::uint64_t count(const std::string &component,
                        const std::string &name) const;

    /**
     * Per-phase attribution: this report (the "after" snapshot) minus
     * @p before, site-wise. Sites absent from @p before keep their full
     * values; sites whose every delta is zero are dropped, so a phase
     * report lists exactly what the phase touched. Pre-condition: no
     * reset() between the two snapshots.
     */
    ProfileReport diffSince(const ProfileReport &before) const;

    /**
     * Committed report format: a JSON object with the site list plus
     * derived per-run consult rates when @p runs is non-zero. Counts
     * and nanosecond totals are emitted as exact integers (they
     * round-trip through fromJson bit for bit); *_ms / per_run fields
     * are derived conveniences readers may ignore.
     * @param indent  spaces prefixed to every line (for embedding the
     *                object inside an enclosing JSON document).
     */
    void writeJson(std::ostream &os, std::size_t runs = 0,
                   int indent = 0) const;

    /** Parse writeJson output (fatal on malformed input). Derived
     *  fields are ignored; the exact integer fields are restored. */
    static ProfileReport fromJson(std::istream &is);
};

/** Freeze every registered site's current values. */
ProfileReport snapshot();

/** Zero every registered site (sites stay registered — cached
 *  references remain valid). */
void reset();

/**
 * Test seam: route the timer clock through @p clock_fn (monotonic
 * nanoseconds); nullptr restores the steady_clock default. Not for use
 * outside tests.
 */
void setClockForTest(std::uint64_t (*clock_fn)());

} // namespace prof
} // namespace fuse

/*
 * Measurement macros. Component and site are bare identifiers, not
 * strings — they are stringized in the ON build and discarded without
 * expansion in the OFF build, so an OFF-build call site costs nothing
 * and requires nothing of its arguments (the no-op contract
 * tests/test_prof.cc compiles against).
 *
 *   FUSE_PROF_COUNT(l1d_bank, demand_resolutions);
 *   FUSE_PROF_ADD(gpu, sm_ticks, batch);
 *   FUSE_PROF_SCOPE(sim, run);   // RAII: times the enclosing scope
 *
 * The ON-build expansion caches the Site reference in a function-local
 * static, so the steady-state cost of a counter is one initialization
 * guard check plus one relaxed fetch_add.
 */
#if FUSE_PROF_ENABLED

#define FUSE_PROF_CONCAT_IMPL(a, b) a##b
#define FUSE_PROF_CONCAT(a, b) FUSE_PROF_CONCAT_IMPL(a, b)

#define FUSE_PROF_ADD(component, site_name, n)                           \
    do {                                                                 \
        static ::fuse::prof::Site &fuse_prof_site_ =                     \
            ::fuse::prof::site(#component, #site_name);                  \
        fuse_prof_site_.add(static_cast<std::uint64_t>(n));              \
    } while (0)

#define FUSE_PROF_COUNT(component, site_name)                            \
    FUSE_PROF_ADD(component, site_name, 1)

#define FUSE_PROF_SCOPE(component, site_name)                            \
    static ::fuse::prof::Site &FUSE_PROF_CONCAT(fuse_prof_scope_site_,   \
                                                __LINE__) =              \
        ::fuse::prof::site(#component, #site_name);                      \
    ::fuse::prof::ScopedTimer FUSE_PROF_CONCAT(                          \
        fuse_prof_scope_timer_,                                          \
        __LINE__)(FUSE_PROF_CONCAT(fuse_prof_scope_site_, __LINE__))

#else // !FUSE_PROF_ENABLED

#define FUSE_PROF_ADD(component, site_name, n) do { } while (0)
#define FUSE_PROF_COUNT(component, site_name) do { } while (0)
#define FUSE_PROF_SCOPE(component, site_name) do { } while (0)

#endif // FUSE_PROF_ENABLED

#endif // FUSE_PROF_PROF_HH
