#include "cts/phase_profile.h"

namespace ctsim::cts::profile {

namespace {

std::atomic<std::uint64_t> g_phase_ns[kPhaseCount];
std::atomic<std::uint64_t> g_counters[kCounterCount];
thread_local ScopedPhase* t_current = nullptr;
thread_local ThreadCollector* t_collector = nullptr;

}  // namespace

namespace detail {

std::atomic<bool>& enabled_flag() {
    static std::atomic<bool> flag{false};
    return flag;
}

void add_ns(Phase p, std::uint64_t ns) {
    g_phase_ns[static_cast<int>(p)].fetch_add(ns, std::memory_order_relaxed);
    if (t_collector != nullptr) t_collector->fold_ns(p, ns);
}

void bump(Counter c, std::uint64_t n) {
    g_counters[static_cast<int>(c)].fetch_add(n, std::memory_order_relaxed);
    if (t_collector != nullptr) t_collector->fold_count(c, n);
}

}  // namespace detail

ThreadCollector::ThreadCollector() {
    prev_ = t_collector;
    t_collector = this;
}

ThreadCollector::~ThreadCollector() { t_collector = prev_; }

Snapshot ThreadCollector::snapshot() const {
    Snapshot s;
    const auto secs = [&](Phase p) {
        return static_cast<double>(phase_ns_[static_cast<int>(p)]) * 1e-9;
    };
    s.maze_s = secs(Phase::maze);
    s.balance_s = secs(Phase::balance);
    s.timing_s = secs(Phase::timing);
    s.refine_s = secs(Phase::refine);
    s.exec_idle_s = secs(Phase::exec_idle);
    const auto cnt = [&](Counter c) { return counters_[static_cast<int>(c)]; };
    s.maze_calls = cnt(Counter::maze_calls);
    s.c2f_coarse_routes = cnt(Counter::c2f_coarse_routes);
    s.c2f_refined = cnt(Counter::c2f_refined);
    s.c2f_fallbacks = cnt(Counter::c2f_fallbacks);
    s.deadline_trips = cnt(Counter::deadline_trips);
    s.maze_degraded = cnt(Counter::maze_degraded);
    s.grid_coarsenings = cnt(Counter::grid_coarsenings);
    s.dag_tasks = cnt(Counter::dag_tasks);
    s.dag_steals = cnt(Counter::dag_steals);
    return s;
}

void enable(bool on) { detail::enabled_flag().store(on, std::memory_order_relaxed); }
bool enabled() { return detail::enabled_flag().load(std::memory_order_relaxed); }

void reset() {
    for (auto& a : g_phase_ns) a.store(0, std::memory_order_relaxed);
    for (auto& a : g_counters) a.store(0, std::memory_order_relaxed);
}

Snapshot snapshot() {
    Snapshot s;
    const auto secs = [](const std::atomic<std::uint64_t>& a) {
        return static_cast<double>(a.load(std::memory_order_relaxed)) * 1e-9;
    };
    s.maze_s = secs(g_phase_ns[static_cast<int>(Phase::maze)]);
    s.balance_s = secs(g_phase_ns[static_cast<int>(Phase::balance)]);
    s.timing_s = secs(g_phase_ns[static_cast<int>(Phase::timing)]);
    s.refine_s = secs(g_phase_ns[static_cast<int>(Phase::refine)]);
    s.exec_idle_s = secs(g_phase_ns[static_cast<int>(Phase::exec_idle)]);
    const auto cnt = [](Counter c) {
        return g_counters[static_cast<int>(c)].load(std::memory_order_relaxed);
    };
    s.maze_calls = cnt(Counter::maze_calls);
    s.c2f_coarse_routes = cnt(Counter::c2f_coarse_routes);
    s.c2f_refined = cnt(Counter::c2f_refined);
    s.c2f_fallbacks = cnt(Counter::c2f_fallbacks);
    s.deadline_trips = cnt(Counter::deadline_trips);
    s.maze_degraded = cnt(Counter::maze_degraded);
    s.grid_coarsenings = cnt(Counter::grid_coarsenings);
    s.dag_tasks = cnt(Counter::dag_tasks);
    s.dag_steals = cnt(Counter::dag_steals);
    return s;
}

ScopedPhase::ScopedPhase(Phase p) {
    if (!detail::enabled_flag().load(std::memory_order_relaxed)) return;
    active_ = true;
    phase_ = p;
    parent_ = t_current;
    if (parent_ && parent_->active_) parent_->pause();
    t_current = this;
    start_ = std::chrono::steady_clock::now();
}

ScopedPhase::~ScopedPhase() {
    if (!active_) return;
    pause();
    t_current = parent_;
    if (parent_ && parent_->active_) parent_->resume();
}

void ScopedPhase::pause() {
    const auto now = std::chrono::steady_clock::now();
    detail::add_ns(phase_, static_cast<std::uint64_t>(
                               std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   now - start_)
                                   .count()));
}

void ScopedPhase::resume() { start_ = std::chrono::steady_clock::now(); }

}  // namespace ctsim::cts::profile
