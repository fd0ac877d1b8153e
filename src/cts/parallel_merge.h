// Isolated merge execution for parallel synthesis.
//
// A merge only reads the two subtrees it joins and only writes new
// nodes (plus the link fields of the two subtree roots), so merges of
// disjoint root pairs are independent -- except that they all append
// to the same ClockTree node arena. To run them concurrently, each
// pair is extracted into a private ClockTree copy, merge-routed there,
// and the private arena is committed back into the shared tree.
//
// Commits happen serially in pairing order, so the shared tree ends up
// with exactly the node ids (and therefore exactly the structure,
// wirelengths and timing) the serial synthesizer produces: results are
// bit-for-bit reproducible at any thread count.
//
// Scheduling lives in synthesizer.cpp: by default each level's pairs
// are DAG-executor nodes (run = extract + route, commit = the pairing-
// order publication; docs/parallelism.md), which overlaps later pairs'
// routing with earlier pairs' commits instead of joining the level at
// a barrier.
#ifndef CTSIM_CTS_PARALLEL_MERGE_H
#define CTSIM_CTS_PARALLEL_MERGE_H

#include <exception>
#include <vector>

#include "cts/merge_routing.h"
#include "cts/phase_profile.h"

namespace ctsim::cts {

/// One pair's private routing context.
struct ExtractedMerge {
    ClockTree local;          ///< copies of both subtrees (+ routing output)
    std::vector<int> to_global;  ///< local id -> shared-tree id, for the copied prefix
    int copied{0};            ///< number of copied nodes (the local prefix)
    int local_a{-1};          ///< local ids of the two roots
    int local_b{-1};
    RootTiming ta;
    RootTiming tb;
    MergeRecord record;       ///< local ids until commit
    PhaseProfile profile;     ///< this route's phases, folded into the run's at commit
    std::exception_ptr error;  ///< set when routing threw
};

/// Snapshot the subtrees of roots `a` and `b` out of `tree`.
ExtractedMerge extract_merge(const ClockTree& tree, int a, int b, const RootTiming& ta,
                             const RootTiming& tb);

/// Route the extracted pair in its private arena (thread-safe with
/// respect to other extractions; exceptions land in `m.error`). `ctx`
/// is the run-local pipeline context (cts/context.h); it carries no
/// memory ladder, since budgeted runs are serial. The route bills its
/// phases to `m.profile`, never to the context's, so no two routes
/// write one profile.
void route_extracted(ExtractedMerge& m, const delaylib::DelayModel& model,
                     const SynthesisOptions& opt, const SynthesisContext* ctx = nullptr);

/// Append the private arena's new nodes to `tree`, replay the link
/// updates on the copied nodes, and return the record with shared-tree
/// ids. Rethrows a routing error. Must be called in pairing order.
MergeRecord commit_extracted(ClockTree& tree, const ExtractedMerge& m);

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_PARALLEL_MERGE_H
