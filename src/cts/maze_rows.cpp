#include "cts/maze_rows.h"

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace ctsim::cts {

namespace {

/// Runs the router feeds a row are bounded by run_limit plus at most
/// two fine-grid steps (a step lands above the limit, commits, and
/// the new run is one step long), and fine pitches are capped by
/// grid_max_pitch_um. Oversized coarse-to-fine steps beyond the
/// margin fall back to the EvalCache -- coarse grids have few cells,
/// so the fallback stays off the hot path.
constexpr double kRowDomainMarginUm = 700.0;

std::shared_ptr<const DelayRows> fill(delaylib::EvalCache& ec) {
    auto rows = std::make_shared<DelayRows>();
    DelayRows& r = *rows;
    const delaylib::EvalCache::Config& cfg = ec.config();
    const int types = cfg.model->buffers().count();
    r.tmax = cfg.model->buffers().largest();
    r.run_limit.resize(types);
    r.rows.assign(types, {});
    for (int l = 0; l < types; ++l) {
        r.run_limit[l] = maze_run_cap(ec, r.tmax, l);
        const int n = r.index_of(r.run_limit[l] + kRowDomainMarginUm) + 2;
        DelayRows::LoadRow& row = r.rows[l];
        row.wire_delay.resize(n);
        row.stage_delay.resize(n);
        row.choice.resize(n);
        for (int i = 0; i < n; ++i) {
            const double len = i * delaylib::EvalCache::kQuantumUm;
            row.wire_delay[i] = ec.wire_delay(r.tmax, l, len);
            const auto t = ec.choose_buffer(l, len);
            row.choice[i] = static_cast<std::int16_t>(t ? *t : -1);
            row.stage_delay[i] = t ? ec.stage_delay(*t, l, len) : 0.0;
        }
    }
    return rows;
}

struct RowsKey {
    delaylib::EvalCache::Config cfg;
    std::uint64_t model_id{0};

    friend bool operator==(const RowsKey& a, const RowsKey& b) {
        return a.cfg == b.cfg && a.model_id == b.model_id;
    }
};

}  // namespace

const DelayRows& delay_rows_for(delaylib::EvalCache& ec) {
    const RowsKey key{ec.config(), ec.config().model ? ec.config().model->instance_id() : 0};

    // Fast path: this thread already resolved these rows.
    static thread_local RowsKey bound_key;
    static thread_local std::shared_ptr<const DelayRows> bound;
    if (bound && key == bound_key) return *bound;

    // Slow path: process-wide registry, shared across threads (pool
    // workers are fresh threads per synthesize call -- without
    // sharing, each would re-pay the fill). Filling happens under the
    // lock; concurrent first-callers of the SAME configuration wait
    // rather than duplicate the work, and values are pure functions
    // of the key, so whoever fills produces identical rows.
    static std::mutex mu;
    static std::vector<std::pair<RowsKey, std::shared_ptr<const DelayRows>>> registry;
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [k, rows] : registry)
        if (k == key) {
            bound_key = key;
            bound = rows;
            return *bound;
        }
    // Models come and go across tests/instances; keep the registry
    // from accumulating dead configurations.
    if (registry.size() >= 8) registry.erase(registry.begin());
    registry.emplace_back(key, fill(ec));
    bound_key = key;
    bound = registry.back().second;
    return *bound;
}

}  // namespace ctsim::cts
