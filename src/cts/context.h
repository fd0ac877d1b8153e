// Run-local synthesis pipeline context.
//
// synthesize() used to install run-local handles (the memory ladder)
// into its SynthesisOptions copy, which leaked an "installed by
// synthesize() itself -- callers leave it null" field into the public
// options struct. SynthesisContext is where such handles live now:
// created by synthesize() (or run_scenario) per run, passed by
// pointer down the pipeline next to the options, and never visible in
// SynthesisOptions. Every downstream signature defaults the context
// to nullptr so direct callers (tests, micro-benchmarks) need not
// thread one.
#ifndef CTSIM_CTS_CONTEXT_H
#define CTSIM_CTS_CONTEXT_H

namespace ctsim::cts {

class MemoryLadder;
struct PhaseProfile;

struct SynthesisContext {
    /// Degradation ladder of this run (cts/memory_ladder.h). Non-null
    /// only when a memory budget is installed; downstream stages read
    /// it like SynthesisOptions::cancel.
    MemoryLadder* memory_ladder{nullptr};
    /// Phase profile the stages attribute to (cts/phase_profile.h):
    /// the run's own, or a pooled merge's private one. Null = not
    /// profiled.
    PhaseProfile* profile{nullptr};
};

/// The profile `ctx` carries; null for a null context.
inline PhaseProfile* profile_of(const SynthesisContext* ctx) {
    return ctx != nullptr ? ctx->profile : nullptr;
}

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_CONTEXT_H
