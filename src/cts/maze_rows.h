// Precomputed per-(driver, load) delay rows for the maze router.
//
// The router's relax loop issues three kinds of delay-model queries,
// all at the assumed slew and at wire lengths quantized to the
// EvalCache quantum: the largest-driver wire delay of the growing run
// (every relaxation), and the buffer choice plus the chosen type's
// stage delay when a run is committed. DelayRows hoists those queries
// out of the loop entirely: per load type it holds dense arrays
// indexed by the quantized run length, pre-filled THROUGH the
// EvalCache so every entry is bit-identical to what the lazy cache
// would have returned. The relax loop then performs pure array
// lookups -- zero cache probes, no filled-bit branches, no stats.
//
// Quantization contract: index i holds the value at length
// i * EvalCache::kQuantumUm, and a query for length L reads index
// round(L / kQuantumUm) -- exactly the EvalCache::hit_slot rule, so
// reading the rows cannot change a single routing decision relative
// to routing through the cache. Lengths beyond a row's domain (runs
// never exceed run_limit plus a couple of grid steps; the domain
// covers that with margin) fall back to the EvalCache.
//
// Rows are built once per (EvalCache configuration, model instance)
// in a process-wide registry and shared immutably across threads:
// values are pure functions of (model, options), so sharing keeps
// parallel synthesis bit-for-bit identical to serial while sparing
// every worker thread the fill (a few thousand model evaluations,
// shared with the cache). A per-thread pointer makes the repeat
// lookup lock-free.
#ifndef CTSIM_CTS_MAZE_ROWS_H
#define CTSIM_CTS_MAZE_ROWS_H

#include <cmath>
#include <cstdint>
#include <vector>

#include "cts/options.h"
#include "delaylib/eval_cache.h"

namespace ctsim::cts {

struct DelayRows {
    int tmax{0};  ///< largest buffer type (the virtual run driver)

    /// Router run cap per load type: maze_run_cap() (see SideDp's
    /// headroom rationale in maze.cpp).
    std::vector<double> run_limit;

    /// Per load type, indexed by round(len / kQuantumUm):
    struct LoadRow {
        std::vector<double> wire_delay;   ///< wire_delay(tmax, l, len)
        std::vector<double> stage_delay;  ///< stage_delay(choice[i], l, len)
        std::vector<std::int16_t> choice; ///< choose_buffer(l, len); -1 = none
    };
    std::vector<LoadRow> rows;

    /// Same division as EvalCache::hit_slot, so both pick the same slot.
    static int index_of(double len_um) {
        return static_cast<int>(std::round(len_um / delaylib::EvalCache::kQuantumUm));
    }
    bool covers(int load, int idx) const {
        return idx < static_cast<int>(rows[load].wire_delay.size());
    }
};

/// The router's run cap for load type `l` under the largest driver
/// `tmax`: deliberately below the slew-limited maximum so downstream
/// stages keep wire-trim headroom (rationale in maze.cpp). The ONE
/// definition both the row fill and the cache-fallback SideDp path
/// use -- the maze.h contract that the rows change no routing
/// decision depends on these being bit-identical.
inline double maze_run_cap(delaylib::EvalCache& ec, int tmax, int l) {
    return 0.60 * ec.max_feasible_run(tmax, l);
}

/// Shared immutable rows for `ec`'s configuration, built on first use
/// per (configuration, model) and looked up lock-free on repeat calls
/// from the same thread. The fill routes through `ec`, so the calling
/// thread's cache is warmed as a side effect.
const DelayRows& delay_rows_for(delaylib::EvalCache& ec);

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_MAZE_ROWS_H
