// The pluggable SSSP engine layer: backend resolution, workspace reuse,
// and the target-pruned early-exit contract (settled-target entries are
// bitwise identical to a full search, for every backend).
#include "snd/paths/sssp_engine.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "snd/util/thread_pool.h"
#include "test_util.h"

namespace snd {
namespace {

using testing_util::RandomDirectedGraph;
using testing_util::RandomEdgeCosts;

TEST(SsspBackendTest, Names) {
  EXPECT_STREQ(SsspBackendName(SsspBackend::kAuto), "auto");
  EXPECT_STREQ(SsspBackendName(SsspBackend::kDijkstra), "dijkstra");
  EXPECT_STREQ(SsspBackendName(SsspBackend::kDial), "dial");
  EXPECT_STREQ(SsspBackendName(SsspBackend::kDeltaStepping), "delta");
}

TEST(SsspBackendTest, ConcreteRequestsPassThroughResolution) {
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kDijkstra, 10, 1),
            SsspBackend::kDijkstra);
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kDial, 10, 1 << 20),
            SsspBackend::kDial);
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kDeltaStepping, 10, 1),
            SsspBackend::kDeltaStepping);
}

TEST(SsspBackendTest, AutoPicksDialOnlyWhenCostsAreSmallRelativeToN) {
  // The Assumption 2 regime: U small against n.
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 10000, 65),
            SsspBackend::kDial);
  // U comparable to n: the bucket sweep no longer pays off.
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 100, 99),
            SsspBackend::kDijkstra);
  // Huge U: bucket array would dominate memory regardless of n.
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 1 << 30, 1 << 20),
            SsspBackend::kDeltaStepping);
}

TEST(SsspBackendTest, AutoDialBoundariesArePinned) {
  // Exactly at the absolute cap with n large enough: still Dial.
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 1 << 30, kDialAutoCostCap),
            SsspBackend::kDial);
  // One past the cap: never Dial, regardless of n.
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 1 << 30,
                               kDialAutoCostCap + 1),
            SsspBackend::kDeltaStepping);
  // Exactly at U == n/2: Dial. One node fewer flips it off.
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 200, 100),
            SsspBackend::kDial);
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 199, 100),
            SsspBackend::kDijkstra);
}

TEST(SsspBackendTest, AutoPicksDeltaOnlyOnLargeInstances) {
  const int32_t huge_u = 1 << 20;  // Outside the Dial regime.
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, kDeltaAutoMinNodes, huge_u),
            SsspBackend::kDeltaStepping);
  // One node short: Dijkstra.
  EXPECT_EQ(
      ResolveSsspBackend(SsspBackend::kAuto, kDeltaAutoMinNodes - 1, huge_u),
      SsspBackend::kDijkstra);
  // The Dial regime wins over delta: small U is Assumption 2's home turf
  // and Dial is strictly leaner there.
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 1 << 20, 64),
            SsspBackend::kDial);
}

TEST(SsspEngineTest, FactoryBuildsTheResolvedBackend) {
  EXPECT_EQ(MakeSsspEngine(SsspBackend::kDijkstra, 8, 3)->backend(),
            SsspBackend::kDijkstra);
  EXPECT_EQ(MakeSsspEngine(SsspBackend::kDial, 8, 3)->backend(),
            SsspBackend::kDial);
  EXPECT_EQ(MakeSsspEngine(SsspBackend::kDeltaStepping, 8, 3)->backend(),
            SsspBackend::kDeltaStepping);
  EXPECT_EQ(MakeSsspEngine(SsspBackend::kAuto, 10000, 4)->backend(),
            SsspBackend::kDial);
  EXPECT_EQ(MakeSsspEngine(SsspBackend::kAuto, 16, 1000)->backend(),
            SsspBackend::kDijkstra);
  EXPECT_EQ(MakeSsspEngine(SsspBackend::kAuto, 1 << 20, 1 << 20)->backend(),
            SsspBackend::kDeltaStepping);
}

TEST(SsspTargetSetTest, DeduplicatesAndCountsDown) {
  SsspTargetSet set(8);
  const std::vector<int32_t> targets{3, 5, 3, 5, 3};
  set.Reset(targets);
  EXPECT_EQ(set.remaining(), 2);
  EXPECT_FALSE(set.Settle(0));  // Not a target.
  EXPECT_FALSE(set.Settle(3));
  EXPECT_FALSE(set.Settle(3));  // Already settled.
  EXPECT_TRUE(set.Settle(5));   // Last one.
  EXPECT_EQ(set.remaining(), 0);
}

TEST(DeltaSteppingTest, DeltaHeuristicTracksCostOverDegree) {
  // Classic Meyer-Sanders choice: Delta ~ U / average degree.
  EXPECT_EQ(ChooseSsspDelta(1000, 10000, 1000), 100);
  // Never below 1 (dense graph, small costs) ...
  EXPECT_EQ(ChooseSsspDelta(100, 10000, 3), 1);
  // ... and never above U (sparse graph would push it past the cap).
  EXPECT_EQ(ChooseSsspDelta(1000, 500, 16), 16);
  // Degenerate inputs stay sane.
  EXPECT_EQ(ChooseSsspDelta(0, 0, 0), 1);
}

TEST(DeltaSteppingTest, ConfiguredDeltaOverridesHeuristic) {
  const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  const std::vector<int32_t> costs{7, 7};
  DeltaSteppingEngine engine(3, /*max_cost=*/7, /*delta=*/3);
  const SsspSource s{0, 0};
  const auto dist = engine.Run(g, costs, std::span<const SsspSource>(&s, 1),
                               SsspGoal::AllNodes());
  EXPECT_EQ(engine.last_delta(), 3);
  EXPECT_EQ(dist[2], 14);
}

class EngineKindTest : public ::testing::TestWithParam<SsspBackend> {
 protected:
  static std::unique_ptr<SsspEngine> MakeEngine(int32_t num_nodes,
                                                int32_t max_cost) {
    return MakeSsspEngine(GetParam(), num_nodes, max_cost);
  }
};

TEST_P(EngineKindTest, FullSearchMatchesDijkstraConvenience) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  const std::vector<int32_t> costs{1, 2, 3, 9};
  const auto engine = MakeEngine(4, 9);
  const SsspSource s{0, 0};
  const auto dist = engine->Run(g, costs, std::span<const SsspSource>(&s, 1),
                                SsspGoal::AllNodes());
  const auto expected =
      testing_util::AllDistances(DijkstraEngine(4), g, costs, {{0, 0}});
  ASSERT_EQ(dist.size(), expected.size());
  for (size_t v = 0; v < expected.size(); ++v) EXPECT_EQ(dist[v], expected[v]);
}

TEST_P(EngineKindTest, PrunedSearchReportsUnreachableTargets) {
  // 2 is cut off from {0, 1}; a pruned search for it must terminate and
  // report kUnreachableDistance.
  const Graph g = Graph::FromEdges(3, {{0, 1}});
  const std::vector<int32_t> costs{1};
  const auto engine = MakeEngine(3, 1);
  const SsspSource s{0, 0};
  const std::vector<int32_t> targets{2};
  const auto dist = engine->Run(g, costs, std::span<const SsspSource>(&s, 1),
                                SsspGoal::SettleTargets(targets));
  EXPECT_EQ(dist[2], kUnreachableDistance);
  EXPECT_EQ(dist[1], 1);  // Settled on the way.
}

TEST_P(EngineKindTest, EmptyTargetSetStopsImmediately) {
  const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  const std::vector<int32_t> costs{4, 4};
  const auto engine = MakeEngine(3, 4);
  const SsspSource s{0, 2};
  const auto dist =
      engine->Run(g, costs, std::span<const SsspSource>(&s, 1),
                  SsspGoal::SettleTargets(std::span<const int32_t>()));
  EXPECT_EQ(dist[0], 2);  // Sources are seeded even without targets.
}

TEST_P(EngineKindTest, SourceOnlyTargetSettlesWithoutExploring) {
  const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  const std::vector<int32_t> costs{4, 4};
  const auto engine = MakeEngine(3, 4);
  const SsspSource s{0, 0};
  const std::vector<int32_t> targets{0};
  const auto dist = engine->Run(g, costs, std::span<const SsspSource>(&s, 1),
                                SsspGoal::SettleTargets(targets));
  EXPECT_EQ(dist[0], 0);
}

TEST_P(EngineKindTest, ReusedEngineIsCleanAfterEarlyExit) {
  // An early-exited run leaves internal queues non-empty; the next run on
  // the same engine must not see stale state.
  const Graph g =
      Graph::FromEdges(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}});
  const std::vector<int32_t> costs{1, 2, 1, 1, 1};
  const auto engine = MakeEngine(5, 2);
  const SsspSource s0{0, 0};
  const std::vector<int32_t> near{1};
  (void)engine->Run(g, costs, std::span<const SsspSource>(&s0, 1),
                    SsspGoal::SettleTargets(near));
  const SsspSource s1{2, 0};
  const auto dist = engine->Run(g, costs, std::span<const SsspSource>(&s1, 1),
                                SsspGoal::AllNodes());
  EXPECT_EQ(dist[0], kUnreachableDistance);
  EXPECT_EQ(dist[2], 0);
  EXPECT_EQ(dist[3], 1);
  EXPECT_EQ(dist[4], 2);
}

TEST_P(EngineKindTest, MultiSourceOffsetsMatchDijkstraReference) {
  // Initial offsets stress the cyclic bucket windows (Dial and delta).
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const int32_t n = 5 + static_cast<int32_t>(rng.UniformInt(0, 40));
    const Graph g = RandomDirectedGraph(n, 3 * n, &rng);
    const int32_t max_cost = 1 + static_cast<int32_t>(rng.UniformInt(0, 20));
    const auto costs = RandomEdgeCosts(g, max_cost, &rng);
    std::vector<SsspSource> sources;
    for (int32_t k = 0; k < 3; ++k) {
      sources.push_back({static_cast<int32_t>(rng.UniformInt(0, n - 1)),
                         static_cast<int64_t>(rng.UniformInt(0, 30))});
    }
    const auto engine = MakeEngine(n, max_cost);
    const auto dist =
        engine->Run(g, costs, sources, SsspGoal::AllNodes());
    DijkstraEngine reference(n);
    const auto expected =
        reference.Run(g, costs, sources, SsspGoal::AllNodes());
    for (size_t v = 0; v < expected.size(); ++v) {
      ASSERT_EQ(dist[v], expected[v]) << "trial=" << trial << " v=" << v;
    }
  }
}

TEST_P(EngineKindTest, RandomizedPrunedMatchesFullOnTargets) {
  for (int trial = 0; trial < 30; ++trial) {
    Rng rng(5000 + static_cast<uint64_t>(trial));
    const int32_t n = 2 + static_cast<int32_t>(rng.UniformInt(0, 50));
    const Graph g = RandomDirectedGraph(n, 4 * n, &rng);
    const int32_t max_cost = 1 + static_cast<int32_t>(rng.UniformInt(0, 11));
    const auto costs = RandomEdgeCosts(g, max_cost, &rng);
    const auto source = static_cast<int32_t>(rng.UniformInt(0, n - 1));
    std::vector<int32_t> targets;
    const int32_t t = 1 + static_cast<int32_t>(rng.UniformInt(0, 7));
    for (int32_t i = 0; i < t; ++i) {
      targets.push_back(static_cast<int32_t>(rng.UniformInt(0, n - 1)));
    }
    const auto engine = MakeEngine(n, max_cost);
    const SsspSource s{source, 0};
    const auto pruned =
        engine->Run(g, costs, std::span<const SsspSource>(&s, 1),
                    SsspGoal::SettleTargets(targets));
    const auto full =
        testing_util::AllDistances(DijkstraEngine(n), g, costs, {{source, 0}});
    for (int32_t target : targets) {
      EXPECT_EQ(pruned[static_cast<size_t>(target)],
                full[static_cast<size_t>(target)])
          << "trial=" << trial << " target=" << target;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, EngineKindTest,
                         ::testing::Values(SsspBackend::kDijkstra,
                                           SsspBackend::kDial,
                                           SsspBackend::kDeltaStepping),
                         [](const auto& info) {
                           return std::string(SsspBackendName(info.param));
                         });

// Restores the global pool parallelism on scope exit so thread-sweeping
// tests cannot leak their setting into later tests.
class ScopedGlobalThreads {
 public:
  explicit ScopedGlobalThreads(int32_t n)
      : saved_(ThreadPool::GlobalThreads()) {
    ThreadPool::SetGlobalThreads(n);
  }
  ~ScopedGlobalThreads() { ThreadPool::SetGlobalThreads(saved_); }

 private:
  int32_t saved_;
};

// The cross-backend determinism contract: every backend, at every thread
// count, both goals, is bitwise identical to sequential Dijkstra.
TEST(SsspDeterminismTest, AllBackendsBitwiseIdenticalAcrossThreadCounts) {
  const int32_t hw = ThreadPool::DefaultThreads();
  std::vector<int32_t> thread_counts{1, 2};
  if (hw > 2) thread_counts.push_back(hw);
  for (int trial = 0; trial < 4; ++trial) {
    Rng rng(9100 + static_cast<uint64_t>(trial));
    const int32_t n = 600 + static_cast<int32_t>(rng.UniformInt(0, 600));
    const Graph g = RandomDirectedGraph(n, 8 * n, &rng);
    const int32_t max_cost =
        1 + static_cast<int32_t>(rng.UniformInt(0, 1 << 14));
    const auto costs = RandomEdgeCosts(g, max_cost, &rng);
    const SsspSource s{static_cast<int32_t>(rng.UniformInt(0, n - 1)), 0};
    std::vector<int32_t> targets;
    for (int32_t i = 0; i < 5; ++i) {
      targets.push_back(static_cast<int32_t>(rng.UniformInt(0, n - 1)));
    }

    DijkstraEngine reference(n);
    const auto full_ref = reference.Run(
        g, costs, std::span<const SsspSource>(&s, 1), SsspGoal::AllNodes());
    const std::vector<int64_t> expected(full_ref.begin(), full_ref.end());

    for (const int32_t threads : thread_counts) {
      ScopedGlobalThreads scoped(threads);
      for (const SsspBackend backend :
           {SsspBackend::kDijkstra, SsspBackend::kDial,
            SsspBackend::kDeltaStepping}) {
        const auto engine = MakeSsspEngine(backend, n, max_cost);
        const auto full =
            engine->Run(g, costs, std::span<const SsspSource>(&s, 1),
                        SsspGoal::AllNodes());
        for (size_t v = 0; v < expected.size(); ++v) {
          ASSERT_EQ(full[v], expected[v])
              << SsspBackendName(backend) << " threads=" << threads
              << " trial=" << trial << " v=" << v;
        }
        const auto pruned =
            engine->Run(g, costs, std::span<const SsspSource>(&s, 1),
                        SsspGoal::SettleTargets(targets));
        for (const int32_t target : targets) {
          ASSERT_EQ(pruned[static_cast<size_t>(target)],
                    expected[static_cast<size_t>(target)])
              << SsspBackendName(backend) << " threads=" << threads
              << " trial=" << trial << " target=" << target;
        }
      }
    }
  }
}

}  // namespace
}  // namespace snd
