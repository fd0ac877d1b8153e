// Top-level buffered clock tree synthesis (Fig 4.1).
//
// Levelized loop: build the nearest-neighbor pairing of the current
// roots, merge every pair with merge-routing (optionally revisiting
// H-structure pairings first), pass the seed node through on odd
// levels, and repeat until a single root remains.
//
// This is the public entry point of the library:
//
//   auto model = delaylib::FittedLibrary::load_or_characterize(...);
//   cts::SynthesisOptions opt;
//   cts::SynthesisResult res = cts::synthesize(sinks, *model, opt);
//   circuit::Netlist net = res.tree.to_netlist(res.root, tech, lib,
//                                              res.source_buffer);
//   sim::NetlistSimReport rep = sim::simulate_netlist(net, tech, lib);
#ifndef CTSIM_CTS_SYNTHESIZER_H
#define CTSIM_CTS_SYNTHESIZER_H

#include <cstdint>
#include <string>
#include <vector>

#include "cts/clock_tree.h"
#include "cts/hstructure.h"
#include "cts/memory_ladder.h"
#include "cts/merge_routing.h"
#include "cts/options.h"
#include "cts/phase_profile.h"
#include "cts/skew_refine.h"
#include "cts/timing.h"
#include "cts/topology.h"
#include "delaylib/delay_model.h"

namespace ctsim::cts {

struct SinkSpec {
    geom::Pt pos{};
    double cap_ff{10.0};
    std::string name;
};

/// Deepest pipeline stage a tripped deadline / CancelToken cut short
/// (the stages run merging -> refine; everything before the cut
/// completed normally, everything after was skipped).
enum class DegradeStage : int { none = 0, merging, refine };

inline const char* degrade_stage_name(DegradeStage s) {
    switch (s) {
        case DegradeStage::none: return "none";
        case DegradeStage::merging: return "merging";
        case DegradeStage::refine: return "refine";
    }
    return "unknown";
}

/// Robustness report of one synthesize() call: what degraded and
/// what silently fell back. A result with deadline_hit set is still
/// a VALID, fully-timed tree -- the degradation contract
/// (docs/robustness.md) trades optimality, never validity.
struct SynthesisDiagnostics {
    /// The deadline / cancellation token tripped during the run.
    bool deadline_hit{false};
    /// Stage the trip cut short (none when deadline_hit is false).
    DegradeStage degraded_at{DegradeStage::none};
    /// Merges whose maze expansion closed early on its incumbent.
    int degraded_routes{0};
    bool refine_skipped{false};  ///< refine pass skipped or cut short
    /// Coarse-to-fine routes that fell back to the full grid -- the
    /// former silent counter, surfaced: count and first offending
    /// merge node so a report can point at the instance region.
    int c2f_fallbacks{0};
    int first_c2f_fallback_merge{-1};
    /// Merges whose maze label grid the memory ladder coarsened
    /// (fewer candidate buffer locations -- the route-level quality
    /// trade the budget cap buys its bytes with).
    int grid_coarsened_routes{0};
    /// Deepest memory-degradation rung the run reached
    /// (cts/memory_ladder.h; none when no budget was installed or
    /// pressure never materialized). Like the deadline cut, a rung
    /// short of `exhausted` still yields a VALID fully-timed tree --
    /// the ladder trades routing quality and parallelism, never
    /// validity.
    MemoryRung memory_rung{MemoryRung::none};
    /// High-water budget usage [bytes]; 0 when no budget was
    /// installed. An unlimited budget (limit 0) still measures this,
    /// which is how the budget sweep finds its baseline peak.
    std::uint64_t memory_peak_bytes{0};
    /// Checkpoint phase this run resumed from (none = fresh run);
    /// the completed phases were skipped wholesale.
    CheckpointPhase resumed_from{CheckpointPhase::none};
};

struct SynthesisResult {
    ClockTree tree;
    int root{-1};
    int source_buffer{-1};  ///< buffer type to instantiate at the source
    int levels{0};
    HStructureStats hstats;
    RootTiming root_timing;  ///< pessimistic model timing at the root
    SkewRefineStats refine;  ///< what the top-down refinement pass did
    SynthesisDiagnostics diagnostics;  ///< degradations and surfaced fallbacks
    PhaseProfile profile;  ///< where this run's time went (cts/phase_profile.h)
    double wire_length_um{0.0};
    int buffer_count{0};

    circuit::Netlist netlist(const tech::Technology& tech,
                             const tech::BufferLibrary& lib) const {
        return tree.to_netlist(root, tech, lib, source_buffer);
    }
};

/// Synthesize a buffered clock tree over `sinks`.
///
/// Input contract: throws util::Error{invalid_input} on an empty sink
/// list, non-finite coordinates, or non-positive / non-finite sink
/// capacitance -- bad external netlists surface as structured errors
/// before any work happens. util::Error{infeasible_route} propagates
/// from routing when no feasible merge exists even on the full grid.
/// With SynthesisOptions::deadline_ms / ::cancel set, expiry degrades
/// the run per the ladder in docs/robustness.md and the result's
/// `diagnostics` records the cut; the returned tree is always valid
/// and fully timed.
SynthesisResult synthesize(const std::vector<SinkSpec>& sinks,
                           const delaylib::DelayModel& model, const SynthesisOptions& opt);

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_SYNTHESIZER_H
