#include "cts/parallel_merge.h"

#include <stdexcept>

#include "cts/incremental_timing.h"

namespace ctsim::cts {

namespace {

/// Copy the subtree of `root` into `m.local`, returning the local root
/// id. Preorder, so parents precede children and links can be wired as
/// nodes are created. Sink names are not copied: the private arena
/// only feeds the router and the timing engine, and the shared tree
/// keeps the originals.
int copy_subtree(const ClockTree& tree, int root, ExtractedMerge& m,
                 std::vector<int>& order, std::vector<int>& local_of) {
    tree.subtree_into(root, order);
    const int local_root = m.local.size();
    for (int g : order) {
        const TreeNode& n = tree.node(g);
        int lid = -1;
        switch (n.kind) {
            case NodeKind::sink:
                lid = m.local.add_sink(n.pos, n.sink_cap_ff);
                break;
            case NodeKind::merge:
                lid = m.local.add_merge(n.pos);
                break;
            case NodeKind::steiner:
                lid = m.local.add_steiner(n.pos);
                break;
            case NodeKind::buffer:
                lid = m.local.add_buffer(n.pos, n.buffer_type);
                break;
        }
        local_of[g] = lid;
        m.to_global.push_back(g);
        if (g != root)
            m.local.connect(local_of[n.parent], lid, n.parent_wire_um);
    }
    return local_root;
}

}  // namespace

ExtractedMerge extract_merge(const ClockTree& tree, int a, int b, const RootTiming& ta,
                             const RootTiming& tb) {
    ExtractedMerge m;
    m.ta = ta;
    m.tb = tb;
    // Global->local id map. Never cleared: every read (a preorder
    // parent lookup) is preceded by a write for the same pair, so
    // stale entries from earlier extractions are unreachable.
    static thread_local std::vector<int> local_of;
    if (local_of.size() < static_cast<std::size_t>(tree.size()))
        local_of.resize(tree.size(), -1);
    static thread_local std::vector<int> order;
    m.local_a = copy_subtree(tree, a, m, order, local_of);
    m.local_b = copy_subtree(tree, b, m, order, local_of);
    m.copied = m.local.size();
    return m;
}

void route_extracted(ExtractedMerge& m, const delaylib::DelayModel& model,
                     const SynthesisOptions& opt, const SynthesisContext* ctx) {
    try {
        // A fresh engine per private arena: no cross-level cache reuse
        // here, but the cached values are pure functions of the
        // subtree, so the numbers (and hence the committed structure)
        // are bit-identical to the serial synthesizer's long-lived
        // engine.
        IncrementalTiming engine(m.local, model, synthesis_timing_options(opt));
        SynthesisContext own = ctx != nullptr ? *ctx : SynthesisContext{};
        own.profile = &m.profile;
        m.record = merge_route(m.local, m.local_a, m.local_b, m.ta, m.tb, model, opt, engine,
                               &own);
    } catch (...) {
        m.error = std::current_exception();
    }
}

MergeRecord commit_extracted(ClockTree& tree, const ExtractedMerge& m) {
    if (m.error) std::rethrow_exception(m.error);

    const int base = tree.size();
    const auto remap = [&](int lid) {
        if (lid < 0) return lid;
        return lid < m.copied ? m.to_global[lid] : base + (lid - m.copied);
    };

    // Append the nodes the merge created, in creation order: that is
    // exactly the id sequence a direct (serial) merge_route on the
    // shared tree would have produced.
    for (int lid = m.copied; lid < m.local.size(); ++lid) {
        const TreeNode& n = m.local.node(lid);
        switch (n.kind) {
            case NodeKind::merge:
                tree.add_merge(n.pos);
                break;
            case NodeKind::steiner:
                tree.add_steiner(n.pos);
                break;
            case NodeKind::buffer:
                tree.add_buffer(n.pos, n.buffer_type);
                break;
            case NodeKind::sink:
                throw std::logic_error("parallel merge: router created a sink");
        }
    }

    // Replay the link state of every local node onto the shared tree.
    // Copied nodes pick up the mutations routing made (snaking above
    // the roots, rebalance wire trims); new nodes get their links for
    // the first time.
    for (int lid = 0; lid < m.local.size(); ++lid) {
        const TreeNode& src = m.local.node(lid);
        TreeNode& dst = tree.node(remap(lid));
        dst.parent = remap(src.parent);
        dst.parent_wire_um = src.parent_wire_um;
        dst.children.clear();
        dst.children.reserve(src.children.size());
        for (int c : src.children) dst.children.push_back(remap(c));
    }

    MergeRecord rec = m.record;
    rec.merge_node = remap(rec.merge_node);
    rec.left_root = remap(rec.left_root);
    rec.right_root = remap(rec.right_root);
    return rec;
}

}  // namespace ctsim::cts
