// The memory degradation ladder: how one synthesize() call lives
// inside a util::MemoryBudget.
//
// Mirrors the deadline contract (docs/robustness.md): under memory
// pressure the pipeline DEGRADES along a documented ladder instead of
// dying, and only raises a typed resource_exhaustion once every rung
// is spent. The rungs, in escalation order:
//
//   drop_c2f      stop allocating coarse-to-fine corridor grids; every
//                 subsequent merge routes on the full grid only (same
//                 fallback path an infeasible coarse route takes).
//   lean_scratch  shrink the pooled per-thread label grids to a single
//                 transient grid: scratch is trimmed after every route
//                 so only the active route's labels stay resident.
//   serial        the last polite rung before exhaustion. A budgeted
//                 run already executes at width 1 (synthesize()
//                 ignores num_threads under a budget), so this rung
//                 only records that the pressure got this deep.
//   exhausted     a reservation the pipeline cannot do without (tree
//                 arena growth, the active route's own label grid)
//                 still failed -- raise resource_exhaustion with the
//                 rung recorded in the message and in
//                 SynthesisResult::diagnostics.
//
// Escalation is one-way and sticky for the run. Optional charges
// (coarse grids, delay rows) refuse politely -- the caller skips the
// allocation; required charges walk the remaining rungs and throw at
// the end. Every outcome is a fully-timed tree or a clean typed error,
// and since budgeted runs are serial the escalation points are a pure
// function of the input -- the budget-degraded goldens pin them.
#ifndef CTSIM_CTS_MEMORY_LADDER_H
#define CTSIM_CTS_MEMORY_LADDER_H

#include <atomic>
#include <cstdint>
#include <mutex>

#include "util/memory_budget.h"

namespace ctsim::cts {

enum class MemoryRung : int { none = 0, drop_c2f, lean_scratch, serial, exhausted };

inline const char* memory_rung_name(MemoryRung r) {
    switch (r) {
        case MemoryRung::none: return "none";
        case MemoryRung::drop_c2f: return "drop_c2f";
        case MemoryRung::lean_scratch: return "lean_scratch";
        case MemoryRung::serial: return "serial";
        case MemoryRung::exhausted: return "exhausted";
    }
    return "unknown";
}

class MemoryLadder {
  public:
    /// `budget` may be null (ladder disabled: every charge succeeds
    /// and nothing is accounted). Must outlive the ladder.
    explicit MemoryLadder(util::MemoryBudget* budget) : budget_(budget) {}
    ~MemoryLadder();

    MemoryLadder(const MemoryLadder&) = delete;
    MemoryLadder& operator=(const MemoryLadder&) = delete;

    bool enabled() const { return budget_ != nullptr; }
    util::MemoryBudget* budget() const { return budget_; }

    MemoryRung rung() const {
        return static_cast<MemoryRung>(rung_.load(std::memory_order_relaxed));
    }
    bool at_least(MemoryRung r) const {
        return rung_.load(std::memory_order_relaxed) >= static_cast<int>(r);
    }

    /// Optional allocation (a coarse corridor grid): reserve or --
    /// escalating one rung, never past serial -- refuse. The caller
    /// skips the allocation on false.
    bool try_charge(std::uint64_t bytes);

    /// Required allocation (tree arena growth, the active route's own
    /// label grid): reserve, walking the remaining rungs on refusal;
    /// throws util::Error{resource_exhaustion} naming `what` and the
    /// final rung once the ladder is spent.
    void charge_required(std::uint64_t bytes, const char* what);

    /// Process-shared structures referenced by this run (the immutable
    /// delay rows): charged once, released when the ladder dies.
    /// Returns whether the run may use them; a refusal escalates and
    /// sticks (rows fall back to the EvalCache, bit-identically).
    bool charge_shared_once(std::uint64_t bytes);

    void release(std::uint64_t bytes) {
        if (budget_ != nullptr) budget_->release(bytes);
    }

    /// Record reaching `r` without a failed charge (the synthesizer
    /// reports the deepest rung through diagnostics).
    void escalate_to(MemoryRung r);

  private:
    /// Bump one rung, saturating at `cap`. Returns false when already
    /// at or past the cap (nothing left to give up).
    bool escalate_one(MemoryRung cap);

    util::MemoryBudget* const budget_;
    std::atomic<int> rung_{static_cast<int>(MemoryRung::none)};
    std::mutex shared_mu_;
    int shared_state_{0};  ///< 0 = unasked, 1 = charged, 2 = refused
    std::uint64_t shared_bytes_{0};
};

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_MEMORY_LADDER_H
