#include <vector>

#include <gtest/gtest.h>

#include "snd/paths/bellman_ford.h"
#include "snd/paths/sssp_engine.h"
#include "test_util.h"

namespace snd {
namespace {

using testing_util::AllDistances;
using testing_util::RandomDirectedGraph;
using testing_util::RandomEdgeCosts;

TEST(DijkstraTest, LineGraph) {
  // 0 -1-> 1 -2-> 2 -3-> 3.
  const Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<int32_t> costs{1, 2, 3};
  const auto dist =
      AllDistances(DijkstraEngine(g.num_nodes()), g, costs, {{0, 0}});
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], 3);
  EXPECT_EQ(dist[3], 6);
}

TEST(DijkstraTest, PrefersCheaperLongerPath) {
  // 0 -> 2 directly costs 10; 0 -> 1 -> 2 costs 2 + 3.
  const Graph g = Graph::FromEdges(3, {{0, 1}, {0, 2}, {1, 2}});
  std::vector<int32_t> costs(static_cast<size_t>(g.num_edges()));
  costs[static_cast<size_t>(g.FindEdge(0, 1))] = 2;
  costs[static_cast<size_t>(g.FindEdge(0, 2))] = 10;
  costs[static_cast<size_t>(g.FindEdge(1, 2))] = 3;
  const auto dist =
      AllDistances(DijkstraEngine(g.num_nodes()), g, costs, {{0, 0}});
  EXPECT_EQ(dist[2], 5);
}

TEST(DijkstraTest, UnreachableNodes) {
  const Graph g = Graph::FromEdges(3, {{0, 1}});
  const std::vector<int32_t> costs{1};
  const auto dist =
      AllDistances(DijkstraEngine(g.num_nodes()), g, costs, {{0, 0}});
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], kUnreachableDistance);
}

TEST(DijkstraTest, MultiSourceTakesMinimum) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {3, 2}});
  const std::vector<int32_t> costs{5, 5, 1};
  const std::vector<SsspSource> sources{{0, 0}, {3, 2}};
  const auto dist =
      AllDistances(DijkstraEngine(g.num_nodes()), g, costs, sources);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[3], 2);
  EXPECT_EQ(dist[2], 3);  // Via source 3 (2 + 1), not via 0 (10).
}

TEST(DijkstraTest, EngineReusableAcrossRuns) {
  const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  const std::vector<int32_t> costs{4, 4};
  DijkstraEngine engine(3);
  const SsspSource s0{0, 0};
  const auto d0 = engine.Run(g, costs, std::span<const SsspSource>(&s0, 1),
                             SsspGoal::AllNodes());
  EXPECT_EQ(d0[2], 8);
  const SsspSource s1{1, 0};
  const auto d1 = engine.Run(g, costs, std::span<const SsspSource>(&s1, 1),
                             SsspGoal::AllNodes());
  EXPECT_EQ(d1[0], kUnreachableDistance);
  EXPECT_EQ(d1[2], 4);
}

TEST(DialTest, MatchesDijkstraOnLine) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<int32_t> costs{3, 1, 2};
  const auto dij =
      AllDistances(DijkstraEngine(g.num_nodes()), g, costs, {{0, 0}});
  const auto dial =
      AllDistances(DialEngine(g.num_nodes(), 3), g, costs, {{0, 0}});
  EXPECT_EQ(dij, dial);
}

TEST(DialTest, HandlesZeroCostEdges) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<int32_t> costs{0, 0, 2};
  const auto dist =
      AllDistances(DialEngine(g.num_nodes(), 2), g, costs, {{0, 0}});
  EXPECT_EQ(dist[1], 0);
  EXPECT_EQ(dist[2], 0);
  EXPECT_EQ(dist[3], 2);
}

TEST(DialTest, MultiSourceWithOffsets) {
  const Graph g = Graph::FromEdges(3, {{0, 2}, {1, 2}});
  const std::vector<int32_t> costs{5, 1};
  const std::vector<SsspSource> sources{{0, 0}, {1, 3}};
  const auto dist =
      AllDistances(DialEngine(g.num_nodes(), 5), g, costs, sources);
  EXPECT_EQ(dist[2], 4);  // min(0+5, 3+1).
}

// Property sweep: the three SSSP implementations agree on random directed
// graphs with random integer costs.
class SsspAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(SsspAgreementTest, AllSolversAgree) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int32_t n = 2 + static_cast<int32_t>(rng.UniformInt(0, 60));
  const int32_t m = static_cast<int32_t>(rng.UniformInt(0, 4 * n));
  const int32_t max_cost = 1 + static_cast<int32_t>(rng.UniformInt(0, 15));
  const Graph g = RandomDirectedGraph(n, m, &rng);
  const auto costs = RandomEdgeCosts(g, max_cost, &rng);
  const auto source = static_cast<int32_t>(rng.UniformInt(0, n - 1));

  const auto dij =
      AllDistances(DijkstraEngine(g.num_nodes()), g, costs, {{source, 0}});
  const auto dial = AllDistances(DialEngine(g.num_nodes(), max_cost), g, costs,
                                 {{source, 0}});
  const SsspSource s{source, 0};
  const auto bf = BellmanFord(g, costs, std::span<const SsspSource>(&s, 1));
  EXPECT_EQ(dij, dial) << "n=" << n << " m=" << m;
  EXPECT_EQ(dij, bf) << "n=" << n << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SsspAgreementTest,
                         ::testing::Range(0, 40));

// Multi-source agreement sweep.
class MultiSourceAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiSourceAgreementTest, DijkstraMatchesBellmanFordAndDial) {
  Rng rng(1000 + static_cast<uint64_t>(GetParam()));
  const int32_t n = 3 + static_cast<int32_t>(rng.UniformInt(0, 40));
  const Graph g = RandomDirectedGraph(n, 3 * n, &rng);
  const auto costs = RandomEdgeCosts(g, 9, &rng);
  std::vector<SsspSource> sources;
  const int32_t k = 1 + static_cast<int32_t>(rng.UniformInt(0, 3));
  for (int32_t i = 0; i < k; ++i) {
    sources.push_back({static_cast<int32_t>(rng.UniformInt(0, n - 1)),
                       rng.UniformInt(0, 5)});
  }
  const auto dij =
      AllDistances(DijkstraEngine(g.num_nodes()), g, costs, sources);
  const auto bf = BellmanFord(g, costs, sources);
  const auto dial =
      AllDistances(DialEngine(g.num_nodes(), 9), g, costs, sources);
  EXPECT_EQ(dij, bf);
  EXPECT_EQ(dij, dial);

  // Target-pruned searches must agree with the full search on every
  // settled target, for both engine backends (duplicates in the target
  // set are allowed by the SsspGoal contract and exercised here).
  std::vector<int32_t> targets;
  const int32_t t = 1 + static_cast<int32_t>(rng.UniformInt(0, 5));
  for (int32_t i = 0; i < t; ++i) {
    targets.push_back(static_cast<int32_t>(rng.UniformInt(0, n - 1)));
  }
  targets.push_back(targets.front());
  const SsspGoal goal = SsspGoal::SettleTargets(targets);
  DijkstraEngine dijkstra_engine(n);
  DialEngine dial_engine(n, 9);
  const auto pruned_dij = dijkstra_engine.Run(g, costs, sources, goal);
  const auto pruned_dial = dial_engine.Run(g, costs, sources, goal);
  for (int32_t target : targets) {
    EXPECT_EQ(pruned_dij[static_cast<size_t>(target)],
              dij[static_cast<size_t>(target)])
        << "dijkstra target " << target;
    EXPECT_EQ(pruned_dial[static_cast<size_t>(target)],
              dij[static_cast<size_t>(target)])
        << "dial target " << target;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, MultiSourceAgreementTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace snd
