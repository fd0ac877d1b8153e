#include "cts/balance.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cts/incremental_timing.h"
#include "cts/maze.h"
#include "cts/phase_profile.h"

namespace ctsim::cts {

double estimate_path_delay(const delaylib::DelayModel& model, double dist_um,
                           const SynthesisOptions& opt) {
    if (dist_um <= 0.0) return 0.0;
    const int tmax = model.buffers().largest();
    delaylib::EvalCache& ec = eval_cache_for(model, opt);
    const double run = std::max(100.0, ec.max_feasible_run(tmax, tmax));
    double delay = 0.0;
    double remaining = dist_um;
    while (remaining > run) {
        delay += ec.stage_delay(tmax, tmax, run);
        remaining -= run;
    }
    delay += ec.wire_delay(tmax, tmax, remaining);
    return delay;
}

namespace {

struct SnakeStage {
    int type{0};
    double len_um{0.0};
    double delay_ps{0.0};
};

/// The (type, length) stage snake_delay commits next, given the load
/// type it drives and the remaining burn target. Shared with
/// snake_delay_preview so the dry run can never drift from the
/// mutating loop. Full stages use the type that adds the most delay
/// at its slew-feasible maximum; the last stage prefers a type whose
/// [min, max] stage-delay range brackets the remaining target so a
/// wire-length bisection can land on it exactly (overshoot only when
/// the target is below every type's zero-wire delay).
SnakeStage pick_snake_stage(delaylib::EvalCache& ec, const delaylib::DelayModel& model,
                            int ltype, double remaining) {
    SnakeStage st;
    st.type = model.buffers().smallest();
    double best_delay = -1.0;
    for (int t = 0; t < model.buffers().count(); ++t) {
        const double len = ec.max_feasible_run(t, ltype);
        const double d = ec.stage_delay(t, ltype, len);
        if (d > best_delay) {
            best_delay = d;
            st.type = t;
            st.len_um = len;
        }
    }
    st.delay_ps = best_delay;
    if (best_delay > remaining) {
        // Final stage: choose the type with the smallest zero-wire
        // delay among those whose range covers the target (or the
        // overall smallest zero-wire delay if none covers it).
        int trim_t = -1;
        double trim_min = 0.0;
        double fallback_min = std::numeric_limits<double>::max();
        int fallback_t = st.type;
        for (int t = 0; t < model.buffers().count(); ++t) {
            const double len = ec.max_feasible_run(t, ltype);
            const double dmin = ec.stage_delay(t, ltype, 0.0);
            const double dmax = ec.stage_delay(t, ltype, len);
            if (dmin < fallback_min) {
                fallback_min = dmin;
                fallback_t = t;
            }
            if (dmin <= remaining && remaining <= dmax && (trim_t < 0 || dmin < trim_min)) {
                trim_t = t;
                trim_min = dmin;
            }
        }
        st.type = trim_t >= 0 ? trim_t : fallback_t;
        double lo = 0.0;
        double hi = ec.max_feasible_run(st.type, ltype);
        for (int it = 0; it < 30; ++it) {
            const double mid = 0.5 * (lo + hi);
            if (ec.stage_delay(st.type, ltype, mid) <= remaining)
                lo = mid;
            else
                hi = mid;
        }
        st.len_um = ec.stage_delay(st.type, ltype, lo) <= remaining ? lo : 0.0;
        st.delay_ps = ec.stage_delay(st.type, ltype, st.len_um);
    }
    return st;
}

}  // namespace

SnakeResult snake_delay(ClockTree& tree, int root, double burn_ps,
                        const delaylib::DelayModel& model, const SynthesisOptions& opt,
                        const SynthesisContext* ctx) {
    ScopedPhase phase(profile_of(ctx), Phase::balance);
    SnakeResult res;
    res.new_root = root;
    delaylib::EvalCache& ec = eval_cache_for(model, opt);
    const geom::Pt pos = tree.node(root).pos;

    while (res.added_delay_ps < burn_ps) {
        const int cur = res.new_root;
        const double load_cap =
            tree.root_input_cap_ff(cur, model.technology(), model.buffers());
        const int ltype = model.load_type_for_cap(load_cap);
        const SnakeStage st =
            pick_snake_stage(ec, model, ltype, burn_ps - res.added_delay_ps);

        // Snaked wire: electrically st.len_um, geometrically in place.
        const int buf = tree.add_buffer(pos, st.type);
        tree.connect(buf, cur, st.len_um);
        res.new_root = buf;
        res.added_delay_ps += st.delay_ps;
        res.stages += 1;

        // A zero-length trimmed stage still adds the buffer delay, so
        // progress is guaranteed; bail out defensively regardless.
        if (res.stages > 200) break;
    }
    return res;
}

SnakePreview snake_delay_preview(const ClockTree& tree, int root, double burn_ps,
                                 const delaylib::DelayModel& model,
                                 const SynthesisOptions& opt) {
    delaylib::EvalCache& ec = eval_cache_for(model, opt);
    SnakePreview res;
    int ltype = model.load_type_for_cap(
        tree.root_input_cap_ff(root, model.technology(), model.buffers()));
    while (res.added_delay_ps < burn_ps) {
        const SnakeStage st =
            pick_snake_stage(ec, model, ltype, burn_ps - res.added_delay_ps);
        res.added_delay_ps += st.delay_ps;
        res.stages += 1;
        res.top_type = st.type;
        // The next stage drives the input cap of the buffer just
        // "inserted" (what root_input_cap_ff reports for a buffer).
        ltype = model.load_type_for_cap(
            model.buffers().type(st.type).input_cap_ff(model.technology()));
        if (res.stages > 200) break;
    }
    return res;
}

PrebalanceResult prebalance(ClockTree& tree, int a, int b, const RootTiming& ta,
                            const RootTiming& tb, const delaylib::DelayModel& model,
                            const SynthesisOptions& opt, IncrementalTiming& engine,
                            const SynthesisContext* ctx) {
    PhaseProfile* const prof = profile_of(ctx);
    ScopedPhase phase(prof, Phase::balance);
    PrebalanceResult res;
    res.root_a = a;
    res.root_b = b;
    res.ta = ta;
    res.tb = tb;

    const auto time_root = [&](int root) {
        ScopedPhase tphase(prof, Phase::timing);
        return engine.root_timing(root);
    };

    const double dist = geom::manhattan(tree.node(a).pos, tree.node(b).pos);
    const double reach = estimate_path_delay(model, dist, opt);
    const double diff = ta.max_ps - tb.max_ps;
    if (std::abs(diff) > 0.7 * reach + 1e-9) {
        const double burn = std::abs(diff) - 0.5 * reach;
        if (diff > 0.0) {  // b is faster: snake above b
            const SnakeResult sr = snake_delay(tree, b, burn, model, opt, ctx);
            res.root_b = sr.new_root;
            res.snake_stages = sr.stages;
            res.tb = time_root(sr.new_root);
        } else {
            const SnakeResult sr = snake_delay(tree, a, burn, model, opt, ctx);
            res.root_a = sr.new_root;
            res.snake_stages = sr.stages;
            res.ta = time_root(sr.new_root);
        }
    }
    return res;
}

}  // namespace ctsim::cts
