#include "cts/synthesizer.h"

#include <cmath>
#include <memory>
#include <shared_mutex>
#include <stdexcept>
#include <unordered_map>

#include "cts/checkpoint.h"
#include "cts/context.h"
#include "cts/incremental_timing.h"
#include "cts/memory_ladder.h"
#include "cts/parallel_merge.h"
#include "util/dag_executor.h"
#include "util/memory_budget.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ctsim::cts {

namespace {

/// Reject bad external netlists up front with location-free but
/// sink-identifying structured errors (the sink index and name are
/// the "location" of a netlist).
void validate_sinks(const std::vector<SinkSpec>& sinks) {
    if (sinks.empty())
        util::throw_status(util::Status::invalid_input("synthesize: no sinks"));
    for (std::size_t i = 0; i < sinks.size(); ++i) {
        const SinkSpec& s = sinks[i];
        const auto describe = [&](const char* what) {
            std::string m = "synthesize: sink " + std::to_string(i);
            if (!s.name.empty()) m += " ('" + s.name + "')";
            m += ' ';
            m += what;
            return m;
        };
        if (!std::isfinite(s.pos.x) || !std::isfinite(s.pos.y))
            util::throw_status(
                util::Status::invalid_input(describe("has a non-finite position")));
        if (!std::isfinite(s.cap_ff) || s.cap_ff <= 0.0)
            util::throw_status(util::Status::invalid_input(
                describe("needs a positive finite capacitance")));
    }
}

/// Fold one DAG execution's scheduling stats into the run's profile.
void fold_dag_stats(const util::DagExecutor::Stats& st, PhaseProfile& prof) {
    prof.exec_idle_s += st.idle_s;
    prof.dag_tasks += static_cast<std::uint64_t>(st.committed);
    prof.dag_steals += st.steals;
}

}  // namespace

SynthesisResult synthesize(const std::vector<SinkSpec>& sinks,
                           const delaylib::DelayModel& model,
                           const SynthesisOptions& opt_in) {
    validate_sinks(sinks);

    // Deadline plumbing: a bare deadline_ms gets a run-local token;
    // a caller-provided token additionally picks up the deadline.
    // All downstream stages read opt.cancel, so the local options
    // copy is the only threading needed.
    SynthesisOptions opt = opt_in;
    util::CancelToken deadline_token;
    if (!opt.cancel && opt.deadline_ms > 0.0) opt.cancel = &deadline_token;
    if (opt.cancel && opt.deadline_ms > 0.0) opt.cancel->set_deadline_ms(opt.deadline_ms);

    // Memory plumbing, mirroring the deadline: a bare memory_budget_mb
    // gets a run-local budget; an external budget (possibly unlimited,
    // for peak measurement) overrides it. The ladder is run-local
    // either way, handed down the pipeline through the
    // SynthesisContext (cts/context.h) -- never through the options,
    // which stay exactly what the caller passed. Declared BEFORE the
    // result so the tree's arena binding never outlives the ladder
    // inside this function -- and detached from the result tree
    // before every return, since the result itself does outlive it.
    util::MemoryBudget local_budget(
        opt.memory_budget_mb > 0.0
            ? static_cast<std::uint64_t>(opt.memory_budget_mb * 1024.0 * 1024.0)
            : 0);
    util::MemoryBudget* const budget = opt.memory_budget != nullptr ? opt.memory_budget
                                       : opt.memory_budget_mb > 0.0 ? &local_budget
                                                                    : nullptr;
    MemoryLadder ladder(budget);
    SynthesisContext ctx;
    if (budget != nullptr) ctx.memory_ladder = &ladder;

    SynthesisResult res;
    ctx.profile = &res.profile;
    SynthesisDiagnostics& diag = res.diagnostics;
    res.source_buffer = resolve_driver_type(opt.source_buffer, model);
    if (ctx.memory_ladder != nullptr) res.tree.set_memory_ladder(ctx.memory_ladder);

    const auto finish_robustness = [&] {
        if (budget != nullptr) {
            diag.memory_rung = ladder.rung();
            diag.memory_peak_bytes = budget->peak();
        }
        res.tree.set_memory_ladder(nullptr);
    };

    // Checkpoint/resume (cts/checkpoint.h): a valid snapshot of the
    // SAME sinks and configuration lets the run skip the merge phase;
    // refine is deterministic, so the final tree is node-for-node the
    // uninterrupted run's.
    Checkpointer::Loaded resumed;
    bool have_resume = false;
    if (opt.checkpoint != nullptr) {
        opt.checkpoint->bind(sinks, opt);
        have_resume = opt.checkpoint->load(resumed);
    }

    std::vector<int> roots;
    std::unordered_map<int, RootTiming> timing;
    std::unordered_map<int, MergeRecord> records;
    if (!have_resume) {
        roots.reserve(sinks.size());
        for (const SinkSpec& s : sinks) {
            const int id = res.tree.add_sink(s.pos, s.cap_ff, s.name);
            roots.push_back(id);
            timing[id] = RootTiming{0.0, 0.0};
        }

        if (roots.size() == 1) {
            res.root = roots[0];
            res.root_timing = timing[roots[0]];
            finish_robustness();
            return res;
        }
    }

    std::mt19937 rng(opt.rng_seed);
    HStructureContext hctx{&records, &timing};

    // Merges within a level touch disjoint subtrees, so they can be
    // routed concurrently; commits stay in pairing order, which makes
    // the result bit-for-bit identical at every thread count. A
    // budgeted run is serial: concurrent routes would race for the
    // budget, and where the ladder escalates (and which routes it
    // coarsens) would then depend on the schedule.
    const int nthreads =
        budget != nullptr ? 1 : util::ThreadPool::resolve_thread_count(opt.num_threads);
    std::unique_ptr<util::ThreadPool> pool;
    if (nthreads > 1) pool = std::make_unique<util::ThreadPool>(nthreads);

    // Persistent incremental engine on the shared tree: serial merges
    // re-time through it, so lower levels stay cached across the whole
    // run. It exists ONLY when no pool does: commit_extracted rewrites
    // links of pre-existing nodes without engine notifications, so a
    // long-lived engine must never coexist with parallel commits.
    // Pooled runs instead build a fresh engine per merge -- in the
    // extracted arenas (parallel_merge.cpp) and for the single-pair
    // levels below -- and purity of the cached values keeps every path
    // bit-for-bit identical.
    // (A resumed run skips the merge loop entirely, so it never
    // creates the persistent engine: the refine step builds a fresh
    // one on the adopted tree, and engine purity makes its cached
    // values bit-identical to the long-lived engine's.)
    std::unique_ptr<IncrementalTiming> engine;
    if (!pool && !have_resume)
        engine = std::make_unique<IncrementalTiming>(res.tree, model,
                                                     synthesis_timing_options(opt));
    // The engine for one serial step on the shared tree (an H-structure
    // check, a single-pair merge, the refine pass): the persistent
    // engine, or a fresh one per step when there is none.
    std::unique_ptr<IncrementalTiming> step_engine;
    const auto serial_engine = [&]() -> IncrementalTiming& {
        if (engine) return *engine;
        step_engine = std::make_unique<IncrementalTiming>(res.tree, model,
                                                          synthesis_timing_options(opt));
        return *step_engine;
    };

    // Degradation bookkeeping: every committed merge reports whether
    // its route fell back (c2f) or closed early on a tripped token.
    const auto note_record = [&](const MergeRecord& rec) {
        if (rec.c2f_fallback) {
            if (diag.c2f_fallbacks == 0) diag.first_c2f_fallback_merge = rec.merge_node;
            ++diag.c2f_fallbacks;
        }
        if (rec.degraded_route) ++diag.degraded_routes;
        if (rec.grid_coarsened) ++diag.grid_coarsened_routes;
    };

    while (roots.size() > 1) {
        std::vector<LevelNode> level;
        level.reserve(roots.size());
        for (int r : roots)
            level.push_back({r, res.tree.node(r).pos, timing.at(r).max_ps});

        const Pairing pairing = select_pairs(level, opt, rng);

        // H-structure checks re-route and mutate the shared tree, so
        // they resolve the final pair list serially up front.
        std::vector<std::pair<int, int>> pairs;
        pairs.reserve(pairing.pairs.size());
        for (auto [u, v] : pairing.pairs) {
            if (opt.hstructure != HStructureMode::off)
                std::tie(u, v) = hstructure_check(res.tree, u, v, hctx, model, opt,
                                                  res.hstats, serial_engine(), &ctx);
            pairs.emplace_back(u, v);
        }

        std::vector<int> next;
        next.reserve(pairs.size() + 1);
        if (pool && pairs.size() > 1) {
            // DAG pipeline (docs/parallelism.md): one node per pair,
            // extract+route in the concurrent run phase, commit in the
            // rank-ordered lane. Pairs within a level are independent
            // (no edges); ranks = pairing order reproduce the serial
            // node-id sequence exactly. A worker starts routing the
            // moment it extracts, and commits drain while later routes
            // are still in flight.
            // The shared arena is the one read/write conflict: runs
            // snapshot subtrees under a shared lock, commits append
            // under the exclusive side.
            std::vector<ExtractedMerge> jobs(pairs.size());
            std::shared_mutex tree_mu;
            util::DagExecutor dag;
            for (std::size_t i = 0; i < pairs.size(); ++i) {
                const auto [u, v] = pairs[i];
                // Pairing-time snapshots: commits insert fresh keys
                // into `timing`, so runs must not touch the map.
                const RootTiming ta = timing.at(u);
                const RootTiming tb = timing.at(v);
                dag.add_node(
                    [&, u, v, ta, tb, i] {
                        {
                            std::shared_lock<std::shared_mutex> lk(tree_mu);
                            jobs[i] = extract_merge(res.tree, u, v, ta, tb);
                        }
                        route_extracted(jobs[i], model, opt, &ctx);
                    },
                    [&, i] {
                        MergeRecord rec;
                        {
                            std::unique_lock<std::shared_mutex> lk(tree_mu);
                            rec = commit_extracted(res.tree, jobs[i]);
                        }
                        res.profile.fold(jobs[i].profile);
                        note_record(rec);
                        records[rec.merge_node] = rec;
                        timing[rec.merge_node] = rec.timing;
                        next.push_back(rec.merge_node);
                    });
            }
            // A tripped deadline degrades routes (they close on their
            // incumbent) but every merge of the level still commits --
            // the tree must reach a single root. Route errors rethrow
            // lowest-rank-first, matching the serial first-failure
            // order.
            dag.execute(pool.get());
            fold_dag_stats(dag.stats(), res.profile);
        } else {
            for (auto [u, v] : pairs) {
                const MergeRecord rec = merge_route(res.tree, u, v, timing.at(u), timing.at(v),
                                                    model, opt, serial_engine(), &ctx);
                note_record(rec);
                records[rec.merge_node] = rec;
                timing[rec.merge_node] = rec.timing;
                next.push_back(rec.merge_node);
            }
        }
        if (pairing.seed >= 0) next.push_back(pairing.seed);
        roots = std::move(next);
        res.levels += 1;
        if (res.levels > 64)
            throw std::runtime_error("synthesize: level budget exceeded (non-terminating?)");
    }

    if (!have_resume) {
        res.root = roots[0];
        res.root_timing = timing.at(res.root);
    } else {
        // Adopt the post-merge snapshot: the tree, the merge-phase
        // outputs and the diagnostics accumulated before the cut. The
        // move drops the fresh tree's ladder binding, so re-bind
        // afterwards (charging the adopted nodes).
        res.tree = std::move(resumed.tree);
        if (ctx.memory_ladder != nullptr) res.tree.set_memory_ladder(ctx.memory_ladder);
        res.root = resumed.base.root;
        res.source_buffer = resumed.base.source_buffer;
        res.levels = resumed.base.levels;
        res.hstats = resumed.base.hstats;
        res.root_timing = resumed.base.root_timing;
        diag = resumed.base.diag;
        diag.resumed_from = CheckpointPhase::post_merge;
    }

    // Degradation ladder (docs/robustness.md): a trip during merging
    // still finishes every merge of the committed prefix -- degraded
    // mazes stop at their incumbent, so the tree always reaches a
    // single, fully-timed root -- then skips the refine post-pass. A
    // trip inside refine stops it between merges. A resumed run did
    // no merging, so a pre-tripped token degrades it inside refine
    // instead.
    const bool tripped_during_merge =
        !have_resume && opt.cancel && opt.cancel->cancelled();
    if (tripped_during_merge) {
        diag.deadline_hit = true;
        diag.degraded_at = DegradeStage::merging;
        diag.refine_skipped = opt.skew_refine;
    }

    // Post-merge snapshot -- only when the merge phase completed
    // NOMINALLY: a deadline-degraded prefix is a valid tree but not
    // the one the uninterrupted run would produce, so it must never
    // seed a resume. Resumed runs skip the save (the file already
    // holds this state).
    if (opt.checkpoint != nullptr && !have_resume && !tripped_during_merge) {
        CheckpointBase base;
        base.root = res.root;
        base.source_buffer = res.source_buffer;
        base.levels = res.levels;
        base.hstats = res.hstats;
        base.root_timing = res.root_timing;
        base.diag = diag;
        (void)opt.checkpoint->save(res.tree, base);
    }

    // Top-down skew refinement (skew_refine.h) on the finished tree,
    // always single-threaded. Serial runs reuse the persistent engine;
    // pooled and resumed runs build a fresh one here, and engine
    // purity keeps the result bit-for-bit identical across thread
    // counts.
    if (opt.skew_refine && !tripped_during_merge) {
        IncrementalTiming& eng = serial_engine();
        res.refine = refine_skew(res.tree, res.root, model, opt, eng, &ctx);
        if (res.refine.cancelled) {
            diag.deadline_hit = true;
            diag.degraded_at = DegradeStage::refine;
            diag.refine_skipped = true;
        }
        res.root_timing = eng.root_timing(res.root);
    }

    res.tree.validate_subtree(res.root);
    res.wire_length_um = res.tree.wire_length_below(res.root);
    res.buffer_count = res.tree.buffer_count_below(res.root);
    finish_robustness();
    return res;
}

}  // namespace ctsim::cts
