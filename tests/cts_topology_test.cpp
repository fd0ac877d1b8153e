// Property test of the indexed pair selection (topology.cpp): on every
// level shape, select_pairs must return exactly the pairing of the
// paper's O(n^2) scans -- the same pairs in the same order, the same
// seed, the same random draws. The brute-force oracle below is that
// quadratic reference; it lives only here.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "cts/topology.h"

namespace ctsim::cts {
namespace {

// ---- brute-force oracle: linear scans, strict `<`, lowest index wins ----

int oracle_seed(const std::vector<LevelNode>& nodes, const SynthesisOptions& opt,
                std::mt19937& rng) {
    if (opt.seed_policy == SeedPolicy::random) {
        std::uniform_int_distribution<std::size_t> d(0, nodes.size() - 1);
        return static_cast<int>(d(rng));
    }
    int best = 0;
    for (std::size_t i = 1; i < nodes.size(); ++i)
        if (nodes[i].latency_ps > nodes[best].latency_ps) best = static_cast<int>(i);
    return best;
}

/// Cheapest node with `open[i]`, scanning every index.
int oracle_cheapest(const std::vector<LevelNode>& nodes, const std::vector<char>& open,
                    int q, const SynthesisOptions& opt, double* cost = nullptr) {
    int mate = -1;
    double best = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!open[i] || static_cast<int>(i) == q) continue;
        const double c = edge_cost(nodes[q], nodes[i], opt);
        if (c < best) {
            best = c;
            mate = static_cast<int>(i);
        }
    }
    if (cost != nullptr) *cost = best;
    return mate;
}

Pairing oracle_greedy(const std::vector<LevelNode>& nodes, const SynthesisOptions& opt,
                      std::mt19937& rng) {
    Pairing out;
    const std::size_t n = nodes.size();
    std::vector<char> open(n, 1);
    if (n % 2 == 1) {
        const int s = oracle_seed(nodes, opt, rng);
        open[s] = 0;
        out.seed = nodes[s].id;
    }
    geom::Pt centroid{0.0, 0.0};
    for (const LevelNode& v : nodes) centroid = centroid + v.pos;
    centroid = (1.0 / static_cast<double>(n)) * centroid;
    for (std::size_t remaining = n - (n % 2); remaining >= 2; remaining -= 2) {
        int far = -1;
        double best_d = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!open[i]) continue;
            const double d = geom::manhattan(nodes[i].pos, centroid);
            if (d > best_d) {
                best_d = d;
                far = static_cast<int>(i);
            }
        }
        const int mate = oracle_cheapest(nodes, open, far, opt);
        open[far] = open[mate] = 0;
        out.pairs.emplace_back(nodes[far].id, nodes[mate].id);
    }
    return out;
}

Pairing oracle_path_growing(const std::vector<LevelNode>& nodes, const SynthesisOptions& opt,
                            std::mt19937& rng) {
    Pairing out;
    const std::size_t n = nodes.size();
    std::vector<char> open(n, 1);  // not yet consumed by path growth
    std::vector<char> seeded(n, 0);
    if (n % 2 == 1) {
        const int s = oracle_seed(nodes, opt, rng);
        open[s] = 0;
        seeded[s] = 1;
        out.seed = nodes[s].id;
    }
    std::vector<std::pair<int, int>> m[2];
    double cost[2] = {0.0, 0.0};
    for (std::size_t start = 0; start < n; ++start) {
        if (!open[start]) continue;
        int x = static_cast<int>(start);
        int side = 0;
        while (true) {
            open[x] = 0;
            double c = 0.0;
            const int next = oracle_cheapest(nodes, open, x, opt, &c);
            if (next < 0) break;
            m[side].emplace_back(x, next);
            cost[side] += c;
            side ^= 1;
            x = next;
        }
    }
    const int keep = cost[0] <= cost[1] ? 0 : 1;
    std::vector<char> matched(n, 0);
    for (auto [u, v] : m[keep]) {
        if (matched[u] || matched[v]) continue;
        matched[u] = matched[v] = 1;
        out.pairs.emplace_back(nodes[u].id, nodes[v].id);
    }
    std::vector<int> left;
    for (std::size_t i = 0; i < n; ++i)
        if (!matched[i] && !seeded[i]) left.push_back(static_cast<int>(i));
    while (left.size() >= 2) {
        const int u = left.back();
        left.pop_back();
        std::size_t bi = 0;
        double best = std::numeric_limits<double>::max();
        for (std::size_t i = 0; i < left.size(); ++i) {
            const double c = edge_cost(nodes[u], nodes[left[i]], opt);
            if (c < best) {
                best = c;
                bi = i;
            }
        }
        out.pairs.emplace_back(nodes[u].id, nodes[left[bi]].id);
        left.erase(left.begin() + static_cast<std::ptrdiff_t>(bi));
    }
    if (!left.empty()) {
        if (out.seed >= 0) throw std::runtime_error("oracle: leftover with seed chosen");
        out.seed = nodes[left[0]].id;
    }
    return out;
}

Pairing oracle(const std::vector<LevelNode>& nodes, const SynthesisOptions& opt,
               std::mt19937& rng) {
    return opt.matching == MatchingPolicy::greedy_centroid
               ? oracle_greedy(nodes, opt, rng)
               : oracle_path_growing(nodes, opt, rng);
}

// ---- level shapes ----

enum class Shape { uniform, duplicates, quantized, line, single_point };

const char* shape_name(Shape s) {
    switch (s) {
        case Shape::uniform: return "uniform";
        case Shape::duplicates: return "duplicates";
        case Shape::quantized: return "quantized";
        case Shape::line: return "line";
        case Shape::single_point: return "single_point";
    }
    return "?";
}

/// `n` level nodes of one shape; ids are shuffled so the pairing's id
/// output cannot coincide with indices by accident. With
/// `equal_latency` every latency is the same (the bottom level).
std::vector<LevelNode> make_level(int n, Shape shape, bool equal_latency, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> coord(0.0, 20000.0);
    std::uniform_real_distribution<double> lat(0.0, 300.0);
    std::uniform_int_distribution<int> step(0, 12);
    std::vector<geom::Pt> anchors;
    for (int k = 0; k < std::max(1, n / 5); ++k) anchors.push_back({coord(rng), coord(rng)});
    std::uniform_int_distribution<std::size_t> pick(0, anchors.size() - 1);

    std::vector<LevelNode> nodes(n);
    for (int i = 0; i < n; ++i) {
        geom::Pt p;
        switch (shape) {
            case Shape::uniform: p = {coord(rng), coord(rng)}; break;
            case Shape::duplicates: p = anchors[pick(rng)]; break;
            case Shape::quantized: p = {250.0 * step(rng), 250.0 * step(rng)}; break;
            case Shape::line: p = {coord(rng), 5000.0}; break;
            case Shape::single_point: p = {777.0, 1234.5}; break;
        }
        // Quantized latencies make equal-cost ties common.
        const double l = equal_latency ? 40.0 : std::round(lat(rng) / 5.0) * 5.0;
        nodes[i] = {1000 + 7 * i, p, l};
    }
    std::shuffle(nodes.begin(), nodes.end(), rng);
    return nodes;
}

void expect_same_pairing(const std::vector<LevelNode>& nodes, const SynthesisOptions& opt,
                         unsigned rng_seed, const std::string& what) {
    std::mt19937 ra(rng_seed), rb(rng_seed);
    const Pairing want = oracle(nodes, opt, ra);
    const Pairing got = select_pairs(nodes, opt, rb);
    ASSERT_EQ(got.seed, want.seed) << what;
    ASSERT_EQ(got.pairs, want.pairs) << what;
    EXPECT_EQ(ra(), rb()) << what << ": the generators diverged";
}

struct CostCase {
    double alpha;
    double beta;
};

constexpr CostCase kCosts[] = {
    {1.0, 25.0},  // the shipped default
    {1.0, 0.0},   // distance only
    {0.0, 25.0},  // latency only: no distance bound, every ring scanned
    {0.3, 7.5},
    {-0.5, 10.0},  // negative alpha: the cheapest mate is the farthest
};

TEST(TopologyIndex, MatchesBruteForceOnEveryShape) {
    int checked = 0;
    for (MatchingPolicy match : {MatchingPolicy::greedy_centroid, MatchingPolicy::path_growing})
        for (SeedPolicy seed : {SeedPolicy::max_latency, SeedPolicy::random})
            for (const CostCase& cc : kCosts)
                for (Shape shape : {Shape::uniform, Shape::duplicates, Shape::quantized,
                                    Shape::line, Shape::single_point})
                    for (bool equal_latency : {false, true})
                        for (int n : {2, 3, 4, 5, 7, 16, 33, 64, 101, 200}) {
                            SynthesisOptions o;
                            o.matching = match;
                            o.seed_policy = seed;
                            o.cost_alpha = cc.alpha;
                            o.cost_beta = cc.beta;
                            const unsigned s = 17u * n + static_cast<unsigned>(shape);
                            const auto nodes = make_level(n, shape, equal_latency, s);
                            const std::string what =
                                std::string(match == MatchingPolicy::greedy_centroid
                                                ? "greedy"
                                                : "path") +
                                (seed == SeedPolicy::random ? " random-seed" : " max-seed") +
                                " alpha=" + std::to_string(cc.alpha) +
                                " beta=" + std::to_string(cc.beta) + " " + shape_name(shape) +
                                (equal_latency ? " equal-latency" : "") +
                                " n=" + std::to_string(n);
                            expect_same_pairing(nodes, o, s + 1, what);
                            if (testing::Test::HasFatalFailure()) return;
                            ++checked;
                        }
    EXPECT_EQ(checked, 2 * 2 * 5 * 5 * 2 * 10);
}

TEST(TopologyIndex, MatchesBruteForceOnLargeLevels) {
    // Up to the size of a GSRC r5 bottom level and beyond, odd and even.
    for (MatchingPolicy match : {MatchingPolicy::greedy_centroid, MatchingPolicy::path_growing})
        for (int n : {999, 1000, 3101, 4000}) {
            for (bool equal_latency : {true, false}) {
                SynthesisOptions o;
                o.matching = match;
                const auto nodes = make_level(n, Shape::uniform, equal_latency, 5u * n);
                expect_same_pairing(nodes, o, 3,
                                    "n=" + std::to_string(n) +
                                        (equal_latency ? " equal-latency" : ""));
                if (testing::Test::HasFatalFailure()) return;
            }
        }
    SynthesisOptions o;
    o.cost_alpha = 0.3;
    expect_same_pairing(make_level(2000, Shape::quantized, false, 91), o, 4,
                        "quantized n=2000 alpha=0.3");
}

TEST(TopologyIndex, EverySizeFromTwoToSixtyFour) {
    for (int n = 2; n <= 64; ++n)
        for (MatchingPolicy match :
             {MatchingPolicy::greedy_centroid, MatchingPolicy::path_growing}) {
            SynthesisOptions o;
            o.matching = match;
            expect_same_pairing(make_level(n, Shape::duplicates, false, 300u + n), o, 9,
                                "duplicates n=" + std::to_string(n));
            expect_same_pairing(make_level(n, Shape::uniform, false, 400u + n), o, 9,
                                "uniform n=" + std::to_string(n));
            if (testing::Test::HasFatalFailure()) return;
        }
}

}  // namespace
}  // namespace ctsim::cts
