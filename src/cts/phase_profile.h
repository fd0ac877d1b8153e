// Per-run wall-clock attribution of the synthesis phases, returned as
// SynthesisResult::profile and feeding the bench harness's maze /
// balance / timing / refine columns and the daemon's per-request
// profile.
//
// A PhaseProfile is a plain value owned by one synthesize() call and
// handed down the pipeline through SynthesisContext::profile
// (cts/context.h); a null profile makes every scope a no-op. Scopes
// nest EXCLUSIVELY: entering an inner phase suspends the outer one,
// so a timing query issued from inside the balance stage counts as
// timing, not both. The nesting is tracked in the profile itself, so
// one profile must only ever be written by one thread at a time:
// pooled merges each route into a private profile that the
// rank-ordered commit folds into the run's (synthesizer.cpp), which
// also makes every counter independent of the thread count. Phase
// seconds of a pooled run are summed across workers (CPU time), so
// wall-clock speedups come from the caller's own timers.
#ifndef CTSIM_CTS_PHASE_PROFILE_H
#define CTSIM_CTS_PHASE_PROFILE_H

#include <chrono>
#include <cstdint>

namespace ctsim::cts {

enum class Phase : int { maze, balance, timing, refine };

class ScopedPhase;

struct PhaseProfile {
    double maze_s{0.0};
    double balance_s{0.0};
    double timing_s{0.0};
    double refine_s{0.0};
    double exec_idle_s{0.0};              ///< DAG-executor worker wait (summed over workers)
    std::uint64_t maze_calls{0};          ///< maze_route invocations
    std::uint64_t c2f_coarse_routes{0};   ///< coarse-pass attempts
    std::uint64_t c2f_refined{0};         ///< corridor refinements that served the result
    std::uint64_t c2f_fallbacks{0};       ///< full-grid fallbacks (coarse or corridor failed)
    std::uint64_t dag_tasks{0};           ///< DAG-executor nodes committed
    std::uint64_t dag_steals{0};          ///< DAG-executor cross-worker steals

    /// Add another profile's times and counts (a pooled merge's
    /// private profile, at its commit).
    void fold(const PhaseProfile& o);

  private:
    friend class ScopedPhase;
    double& seconds(Phase p);
    ScopedPhase* open_{nullptr};  ///< innermost open scope on this profile
};

/// RAII phase scope with exclusive attribution (suspends the
/// enclosing scope of the same profile for its lifetime). Does
/// nothing when `prof` is null.
class ScopedPhase {
  public:
    ScopedPhase(PhaseProfile* prof, Phase p);
    ~ScopedPhase();
    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

  private:
    using Clock = std::chrono::steady_clock;
    void stop(Clock::time_point now);

    PhaseProfile* const prof_;
    double* seconds_{nullptr};  ///< the phase's accumulator in *prof_
    ScopedPhase* parent_{nullptr};
    Clock::time_point start_{};
};

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_PHASE_PROFILE_H
