// H-structure re-estimation and correction (Sec 4.1.2, Fig 4.2).
//
// Before merging two level-k subtrees u and v (both merge nodes), the
// four grandchildren {A, B} = children(u), {C, D} = children(v) admit
// three pairings. The bottom-up flow committed to one of them blindly;
// these checks revisit the choice:
//   Method 1 (re-estimation): score each pairing by the eq. 4.1 edge
//   costs and re-pair when a cheaper pairing exists.
//   Method 2 (correction): actually merge-route all three pairings and
//   keep the one whose worse merge-node skew is smallest.
// A "flipping" is counted whenever the original pairing loses.
#ifndef CTSIM_CTS_HSTRUCTURE_H
#define CTSIM_CTS_HSTRUCTURE_H

#include <unordered_map>

#include "cts/merge_routing.h"
#include "cts/topology.h"

namespace ctsim::cts {

struct HStructureStats {
    int checks{0};
    int flips{0};
};

/// Context the check needs from the synthesis loop.
struct HStructureContext {
    std::unordered_map<int, MergeRecord>* records;  ///< by merge node id
    std::unordered_map<int, RootTiming>* timing;    ///< by root node id
};

/// Re-evaluate the pairing of (u, v)'s four children. Returns the two
/// roots the current level should merge (u and v themselves when the
/// original pairing stands, or two freshly routed merge nodes).
///
/// Every structural move is reported to `engine` (an IncrementalTiming
/// attached to `tree`) through the notification API --
/// subtree_replaced on a child root before it is detached (the
/// containing component and ancestor aggregates go stale while the
/// parent link still exists to walk), wire_changed after it is
/// reattached -- and the candidate routings re-time through it.
std::pair<int, int> hstructure_check(ClockTree& tree, int u, int v, HStructureContext ctx,
                                     const delaylib::DelayModel& model,
                                     const SynthesisOptions& opt, HStructureStats& stats,
                                     IncrementalTiming& engine,
                                     const SynthesisContext* sctx = nullptr);

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_HSTRUCTURE_H
