// Lightweight per-phase wall-clock attribution for the synthesis hot
// path, feeding the bench harness's maze / balance / timing columns.
//
// Scopes nest EXCLUSIVELY: entering an inner phase suspends the outer
// one, so a timing query issued from inside the balance stage counts
// as timing, not both. Accumulators are process-global atomics --
// parallel synthesis threads fold into the same totals -- and the
// whole machinery compiles down to one relaxed atomic load per scope
// when profiling is disabled (the default), so shipping code paths
// pay nothing measurable.
//
// This is bench instrumentation, not an API: totals are reset/read
// by the harness around whole synthesis runs.
#ifndef CTSIM_CTS_PHASE_PROFILE_H
#define CTSIM_CTS_PHASE_PROFILE_H

#include <atomic>
#include <chrono>
#include <cstdint>

namespace ctsim::cts::profile {

enum class Phase : int {
    maze = 0,
    balance = 1,
    timing = 2,
    refine = 3,
    exec_idle = 4,  ///< DAG-executor worker wait time (summed over workers)
};
inline constexpr int kPhaseCount = 5;

enum class Counter : int {
    maze_calls = 0,       ///< maze_route invocations
    c2f_coarse_routes,    ///< coarse-pass attempts
    c2f_refined,          ///< corridor refinements that served the result
    c2f_fallbacks,        ///< full-grid fallbacks (coarse or corridor failed)
    deadline_trips,       ///< cancel/deadline trips observed by the pipeline
    maze_degraded,        ///< maze expansions closed early on a tripped token
    grid_coarsenings,     ///< routes whose label grid the memory ladder coarsened
    dag_tasks,            ///< DAG-executor nodes committed
    dag_steals,           ///< DAG-executor cross-worker steals
    count_,
};
inline constexpr int kCounterCount = static_cast<int>(Counter::count_);

struct Snapshot {
    double maze_s{0.0};
    double balance_s{0.0};
    double timing_s{0.0};
    double refine_s{0.0};
    std::uint64_t maze_calls{0};
    std::uint64_t c2f_coarse_routes{0};
    std::uint64_t c2f_refined{0};
    std::uint64_t c2f_fallbacks{0};
    std::uint64_t deadline_trips{0};
    std::uint64_t maze_degraded{0};
    std::uint64_t grid_coarsenings{0};
    double exec_idle_s{0.0};
    std::uint64_t dag_tasks{0};
    std::uint64_t dag_steals{0};
};

void enable(bool on);
bool enabled();
void reset();
Snapshot snapshot();

namespace detail {
std::atomic<bool>& enabled_flag();
void add_ns(Phase p, std::uint64_t ns);
void bump(Counter c, std::uint64_t n = 1);
}  // namespace detail

/// Per-thread profile collector for multi-tenant serving.
///
/// The global accumulators fold every thread into one total, which is
/// what the bench harness wants -- but a daemon running concurrent
/// requests needs each request's own phase split, and global snapshot
/// deltas would smear simultaneous tenants together. While a
/// ThreadCollector is installed on a thread (RAII), every nanosecond
/// and counter that thread attributes is recorded here IN ADDITION to
/// the globals. A request confined to one worker thread (the serving
/// session pins num_threads = 1) therefore reads its exact private
/// phase profile from snapshot(), regardless of what other workers
/// are doing.
///
/// Collectors nest (the previous one is restored on destruction) and
/// only collect while profiling is enabled -- the disarmed fast path
/// is untouched because add_ns/bump are only reached when enabled.
class ThreadCollector {
  public:
    ThreadCollector();   ///< installs on the calling thread
    ~ThreadCollector();  ///< restores the previously installed collector
    ThreadCollector(const ThreadCollector&) = delete;
    ThreadCollector& operator=(const ThreadCollector&) = delete;

    Snapshot snapshot() const;

    // detail::add_ns / detail::bump use these; not client API.
    void fold_ns(Phase p, std::uint64_t ns) { phase_ns_[static_cast<int>(p)] += ns; }
    void fold_count(Counter c, std::uint64_t n) { counters_[static_cast<int>(c)] += n; }

  private:
    std::uint64_t phase_ns_[kPhaseCount]{};
    std::uint64_t counters_[kCounterCount]{};
    ThreadCollector* prev_{nullptr};
};

/// Count one event (no-op when profiling is disabled).
inline void count_event(Counter c) {
    if (detail::enabled_flag().load(std::memory_order_relaxed)) detail::bump(c);
}

/// Count `n` events at once (no-op when profiling is disabled). Used
/// to fold DAG-executor stats into the totals after each execute().
inline void count_events(Counter c, std::uint64_t n) {
    if (n != 0 && detail::enabled_flag().load(std::memory_order_relaxed))
        detail::bump(c, n);
}

/// Attribute pre-measured seconds to a phase (no-op when profiling is
/// disabled). For durations measured outside a ScopedPhase, like the
/// executor's summed worker idle time.
inline void add_seconds(Phase p, double s) {
    if (s > 0.0 && detail::enabled_flag().load(std::memory_order_relaxed))
        detail::add_ns(p, static_cast<std::uint64_t>(s * 1e9));
}

/// RAII phase scope with exclusive attribution (suspends the
/// enclosing scope for its lifetime).
class ScopedPhase {
  public:
    explicit ScopedPhase(Phase p);
    ~ScopedPhase();
    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

  private:
    void pause();
    void resume();

    bool active_{false};
    Phase phase_{Phase::maze};
    ScopedPhase* parent_{nullptr};
    std::chrono::steady_clock::time_point start_{};
};

}  // namespace ctsim::cts::profile

#endif  // CTSIM_CTS_PHASE_PROFILE_H
