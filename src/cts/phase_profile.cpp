#include "cts/phase_profile.h"

namespace ctsim::cts {

void PhaseProfile::fold(const PhaseProfile& o) {
    maze_s += o.maze_s;
    balance_s += o.balance_s;
    timing_s += o.timing_s;
    refine_s += o.refine_s;
    exec_idle_s += o.exec_idle_s;
    maze_calls += o.maze_calls;
    c2f_coarse_routes += o.c2f_coarse_routes;
    c2f_refined += o.c2f_refined;
    c2f_fallbacks += o.c2f_fallbacks;
    dag_tasks += o.dag_tasks;
    dag_steals += o.dag_steals;
}

double& PhaseProfile::seconds(Phase p) {
    switch (p) {
        case Phase::maze: return maze_s;
        case Phase::balance: return balance_s;
        case Phase::timing: return timing_s;
        case Phase::refine: return refine_s;
    }
    return refine_s;
}

ScopedPhase::ScopedPhase(PhaseProfile* prof, Phase p) : prof_(prof) {
    if (prof_ == nullptr) return;
    seconds_ = &prof_->seconds(p);
    const Clock::time_point now = Clock::now();
    parent_ = prof_->open_;
    if (parent_ != nullptr) parent_->stop(now);
    prof_->open_ = this;
    start_ = now;
}

ScopedPhase::~ScopedPhase() {
    if (prof_ == nullptr) return;
    const Clock::time_point now = Clock::now();
    stop(now);
    prof_->open_ = parent_;
    if (parent_ != nullptr) parent_->start_ = now;
}

void ScopedPhase::stop(Clock::time_point now) {
    *seconds_ += std::chrono::duration<double>(now - start_).count();
}

}  // namespace ctsim::cts
