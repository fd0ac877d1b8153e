// Levelized topology generation (Sec 4.1.1).
//
// Each level pairs the current roots using a nearest-neighbor graph
// whose edge cost is
//     cost(e) = alpha * distance(v1, v2) + beta * |delay(v1) - delay(v2)|
// (eq. 4.1). The paper's matching heuristic repeatedly takes the node
// farthest from the centroid and pairs it with its lowest-cost
// neighbor; with an odd node count, a seed node (the one with maximum
// latency) skips the level. The Drake-Hougardy path-growing matching
// [22] is provided as the comparison policy.
//
// Both policies return exactly what the paper's O(n^2) scans return
// (ties to the lowest index), but answer each lowest-cost-neighbor
// query from a uniform bucket grid over the level, so a level costs
// near-linear time instead of the quadratic bottleneck of Sec 4.3.
#ifndef CTSIM_CTS_TOPOLOGY_H
#define CTSIM_CTS_TOPOLOGY_H

#include <random>
#include <utility>
#include <vector>

#include "cts/options.h"
#include "cts/timing.h"
#include "geom/point.h"

namespace ctsim::cts {

struct LevelNode {
    int id{-1};          ///< tree node id of this root
    geom::Pt pos{};
    double latency_ps{0.0};  ///< cached max delay to sinks
};

struct Pairing {
    std::vector<std::pair<int, int>> pairs;  ///< ids to merge this level
    int seed{-1};                            ///< id passed through (odd levels)
};

double edge_cost(const LevelNode& u, const LevelNode& v, const SynthesisOptions& opt);

Pairing select_pairs(const std::vector<LevelNode>& nodes, const SynthesisOptions& opt,
                     std::mt19937& rng);

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_TOPOLOGY_H
