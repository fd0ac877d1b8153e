#include <gtest/gtest.h>

#include <set>

#include "cts/incremental_timing.h"
#include "cts_test_util.h"
#include "sim/netlist_sim.h"

namespace ctsim::cts {
namespace {

using testutil::analytic;
using testutil::buflib;
using testutil::fitted_quick;
using testutil::random_sinks;
using testutil::tek;

SynthesisOptions opts() {
    SynthesisOptions o;
    o.slew_limit_ps = 100.0;
    o.slew_target_ps = 80.0;
    return o;
}

TEST(MergeRouting, TwoSinksProduceValidBalancedSubtree) {
    const auto& m = analytic();
    ClockTree t;
    const int a = t.add_sink({0, 0}, 12.0);
    const int b = t.add_sink({3000, 1000}, 12.0);
    IncrementalTiming engine(t, m, synthesis_timing_options(opts()));
    const MergeRecord rec = merge_route(t, a, b, {0, 0}, {0, 0}, m, opts(), engine);

    t.validate_subtree(rec.merge_node);
    EXPECT_EQ(t.sinks_below(rec.merge_node).size(), 2u);
    EXPECT_EQ(rec.left_root, a);
    EXPECT_EQ(rec.right_root, b);
    // Balanced under the model: skew a small fraction of the distance
    // delay.
    EXPECT_LT(rec.timing.max_ps - rec.timing.min_ps, 10.0);
}

TEST(MergeRouting, ImbalancedSubtreesTriggerSnaking) {
    const auto& m = analytic();
    ClockTree t;
    const int a0 = t.add_sink({0, 0}, 12.0);
    const int b = t.add_sink({400, 0}, 12.0);
    // Make side a genuinely ~400 ps deep with a real snaked chain, so
    // the cached timing matches the structure.
    const SnakeResult deep = snake_delay(t, a0, 400.0, m, opts());
    const RootTiming ta = subtree_timing(t, deep.new_root, m, 80.0);
    ASSERT_GT(ta.max_ps, 300.0);

    IncrementalTiming engine(t, m, synthesis_timing_options(opts()));
    const MergeRecord rec = merge_route(t, deep.new_root, b, ta, {0, 0}, m, opts(), engine);
    EXPECT_GT(rec.snake_stages, 0);  // side b must be snaked to catch up
    t.validate_subtree(rec.merge_node);
    EXPECT_GT(rec.timing.max_ps, ta.max_ps - 1.0);
    // After balance + routing + rebalance the model skew is small.
    EXPECT_LT(rec.timing.max_ps - rec.timing.min_ps, 25.0);
}

TEST(MergeRouting, MergeOfEqualSubtreesKeepsSkewZeroish) {
    const auto& m = analytic();
    ClockTree t;
    const int a = t.add_sink({0, 0}, 12.0);
    const int b = t.add_sink({2000, 0}, 12.0);
    const int c = t.add_sink({0, 2000}, 12.0);
    const int d = t.add_sink({2000, 2000}, 12.0);
    IncrementalTiming engine(t, m, synthesis_timing_options(opts()));
    const MergeRecord m1 = merge_route(t, a, b, {0, 0}, {0, 0}, m, opts(), engine);
    const MergeRecord m2 = merge_route(t, c, d, {0, 0}, {0, 0}, m, opts(), engine);
    const MergeRecord top = merge_route(t, m1.merge_node, m2.merge_node, m1.timing, m2.timing,
                                        m, opts(), engine);
    t.validate_subtree(top.merge_node);
    EXPECT_EQ(t.sinks_below(top.merge_node).size(), 4u);
    EXPECT_LT(top.timing.max_ps - top.timing.min_ps, 15.0);
}

TEST(Topology, GreedyPairsAreDisjointAndComplete) {
    std::vector<LevelNode> nodes;
    std::mt19937 rng(3);
    std::uniform_real_distribution<double> c(0, 5000);
    for (int i = 0; i < 12; ++i) nodes.push_back({i, {c(rng), c(rng)}, 0.0});

    std::mt19937 prng(1);
    const Pairing p = select_pairs(nodes, opts(), prng);
    EXPECT_EQ(p.pairs.size(), 6u);
    EXPECT_EQ(p.seed, -1);
    std::set<int> seen;
    for (auto [u, v] : p.pairs) {
        EXPECT_TRUE(seen.insert(u).second);
        EXPECT_TRUE(seen.insert(v).second);
    }
}

TEST(Topology, OddCountSelectsMaxLatencySeed) {
    std::vector<LevelNode> nodes;
    for (int i = 0; i < 7; ++i)
        nodes.push_back({i, {100.0 * i, 0.0}, i == 4 ? 500.0 : 10.0 * i});
    std::mt19937 rng(1);
    const Pairing p = select_pairs(nodes, opts(), rng);
    EXPECT_EQ(p.seed, 4);  // the max-latency node skips the level
    EXPECT_EQ(p.pairs.size(), 3u);
}

TEST(Topology, CostBalancesDistanceAndDelay) {
    SynthesisOptions o = opts();
    o.cost_alpha = 1.0;
    o.cost_beta = 10.0;
    const LevelNode u{0, {0, 0}, 100.0};
    const LevelNode near_fast{1, {100, 0}, 0.0};
    const LevelNode far_same{2, {900, 0}, 100.0};
    // 100 + 10*100 = 1100 vs 900 + 0 = 900: delay matters.
    EXPECT_GT(edge_cost(u, near_fast, o), edge_cost(u, far_same, o));
}

TEST(Topology, PathGrowingProducesValidPairing) {
    SynthesisOptions o = opts();
    o.matching = MatchingPolicy::path_growing;
    std::vector<LevelNode> nodes;
    std::mt19937 rng(9);
    std::uniform_real_distribution<double> c(0, 4000);
    for (int i = 0; i < 15; ++i) nodes.push_back({i, {c(rng), c(rng)}, c(rng) / 100.0});
    std::mt19937 prng(2);
    const Pairing p = select_pairs(nodes, o, prng);
    EXPECT_EQ(p.pairs.size(), 7u);
    EXPECT_GE(p.seed, 0);
    std::set<int> seen{p.seed};
    for (auto [u, v] : p.pairs) {
        EXPECT_TRUE(seen.insert(u).second);
        EXPECT_TRUE(seen.insert(v).second);
    }
}

TEST(Synthesize, SmallInstanceAnalyticModel) {
    const auto sinks = random_sinks(13, 4000.0, 42);
    const SynthesisResult res = synthesize(sinks, analytic(), opts());

    EXPECT_EQ(res.tree.sinks_below(res.root).size(), 13u);
    EXPECT_GT(res.levels, 2);
    EXPECT_GT(res.buffer_count, 0);
    EXPECT_GT(res.wire_length_um, 0.0);
    // Pessimistic model skew after balancing stays moderate.
    EXPECT_LT(res.root_timing.max_ps - res.root_timing.min_ps, 60.0);
}

TEST(Synthesize, SingleSinkDegenerates) {
    const SynthesisResult res = synthesize({{{10, 20}, 9.0, "only"}}, analytic(), opts());
    EXPECT_EQ(res.tree.node(res.root).kind, NodeKind::sink);
}

TEST(Synthesize, PowerOfTwoIsFullyLevelized) {
    const auto sinks = random_sinks(16, 3000.0, 7);
    const SynthesisResult res = synthesize(sinks, analytic(), opts());
    EXPECT_EQ(res.levels, 4);  // 16 -> 8 -> 4 -> 2 -> 1
}

class SynthesizeProperty : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(SynthesizeProperty, TreeWellFormedAllSinksReached) {
    const auto [count, seed] = GetParam();
    const auto sinks = random_sinks(count, 5000.0, seed);
    const SynthesisResult res = synthesize(sinks, analytic(), opts());

    res.tree.validate_subtree(res.root);
    EXPECT_EQ(res.tree.sinks_below(res.root).size(), static_cast<std::size_t>(count));
    const circuit::Netlist net = res.netlist(tek(), buflib());
    EXPECT_NO_THROW(net.validate());
    EXPECT_EQ(net.sink_nodes().size(), static_cast<std::size_t>(count));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SynthesizeProperty,
                         ::testing::Combine(::testing::Values(2, 3, 5, 9, 21, 40),
                                            ::testing::Values(1u, 2u, 3u)));

// Full pipeline on the fitted library: synthesize, export, simulate,
// check the hard slew bound the paper's Tables 5.1/5.2 verify.
TEST(SynthesizeEndToEnd, SlewBoundHoldsInTransientSimulation) {
    const auto sinks = random_sinks(24, 6000.0, 11);
    SynthesisOptions o = opts();
    const SynthesisResult res = synthesize(sinks, fitted_quick(), o);
    res.tree.validate_subtree(res.root);

    const circuit::Netlist net = res.netlist(tek(), buflib());
    sim::NetlistSimOptions so;
    so.solver.dt_ps = 1.0;
    const sim::NetlistSimReport rep = sim::simulate_netlist(net, tek(), buflib(), so);

    ASSERT_TRUE(rep.complete);
    EXPECT_EQ(rep.arrivals.size(), 24u);
    EXPECT_LE(rep.worst_slew_ps, o.slew_limit_ps);
    EXPECT_GT(rep.max_latency_ps, 0.0);
    // Skew should be a small fraction of latency on a benign instance.
    EXPECT_LT(rep.skew_ps, 0.35 * rep.max_latency_ps);
}

TEST(SynthesizeEndToEnd, HStructureCorrectionRunsAndStaysValid) {
    const auto sinks = random_sinks(16, 5000.0, 5);
    SynthesisOptions o = opts();
    o.hstructure = HStructureMode::correct;
    const SynthesisResult res = synthesize(sinks, analytic(), o);
    EXPECT_GT(res.hstats.checks, 0);
    res.tree.validate_subtree(res.root);
    EXPECT_EQ(res.tree.sinks_below(res.root).size(), 16u);
}

TEST(SynthesizeEndToEnd, HStructureReestimateRunsAndStaysValid) {
    const auto sinks = random_sinks(16, 5000.0, 5);
    SynthesisOptions o = opts();
    o.hstructure = HStructureMode::reestimate;
    const SynthesisResult res = synthesize(sinks, analytic(), o);
    EXPECT_GT(res.hstats.checks, 0);
    res.tree.validate_subtree(res.root);
    EXPECT_EQ(res.tree.sinks_below(res.root).size(), 16u);
}

}  // namespace
}  // namespace ctsim::cts
