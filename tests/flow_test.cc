#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "snd/flow/cost_scaling_solver.h"
#include "snd/flow/oracle_solver.h"
#include "snd/flow/simplex_solver.h"
#include "snd/flow/ssp_solver.h"
#include "snd/util/random.h"

namespace snd {
namespace {

TransportProblem MakeProblem(std::vector<double> supply,
                             std::vector<double> demand,
                             std::vector<double> cost) {
  return TransportProblem(std::move(supply), std::move(demand),
                          std::move(cost));
}

// A 2x2 instance with a provable optimum: with f11 = a the total cost is
// 14 - 2a, minimized at a = 2 giving cost 10.
TransportProblem KnownOptimumInstance() {
  return MakeProblem({2, 3}, {3, 2},
                     {1, 4,  //
                      2, 3});
}

// A larger textbook-style instance used for cross-solver agreement.
TransportProblem TextbookInstance() {
  return MakeProblem({20, 30, 25}, {10, 28, 27, 10},
                     {4, 5, 6, 8,    //
                      2, 3, 5, 7,    //
                      6, 4, 3, 2});
}

TEST(TransportProblemTest, BalanceEnforcedAndQueries) {
  const TransportProblem p = TextbookInstance();
  EXPECT_EQ(p.num_suppliers(), 3);
  EXPECT_EQ(p.num_consumers(), 4);
  EXPECT_DOUBLE_EQ(p.total_mass(), 75.0);
  EXPECT_DOUBLE_EQ(p.Cost(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(p.MaxCost(), 8.0);
  EXPECT_TRUE(p.HasIntegralCosts());
  EXPECT_TRUE(p.HasIntegralMasses());
}

TEST(TransportProblemTest, DetectsNonIntegralData) {
  const TransportProblem p =
      MakeProblem({1.5, 0.5}, {2.0}, {1.25, 2.0});
  EXPECT_FALSE(p.HasIntegralCosts());
  EXPECT_FALSE(p.HasIntegralMasses());
}

TEST(ValidatePlanTest, AcceptsGoodRejectsBad) {
  const TransportProblem p = MakeProblem({2}, {2}, {3});
  TransportPlan good;
  good.flows = {{0, 0, 2.0}};
  good.total_cost = 6.0;
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, good, &error)) << error;

  TransportPlan short_plan;
  short_plan.flows = {{0, 0, 1.0}};
  short_plan.total_cost = 3.0;
  EXPECT_FALSE(ValidatePlan(p, short_plan, &error));

  TransportPlan wrong_cost = good;
  wrong_cost.total_cost = 5.0;
  EXPECT_FALSE(ValidatePlan(p, wrong_cost, &error));
}

class AllSolversTest
    : public ::testing::TestWithParam<TransportAlgorithm> {
 protected:
  std::unique_ptr<TransportSolver> solver() const {
    return MakeTransportSolver(GetParam());
  }
};

TEST_P(AllSolversTest, SolvesKnownOptimumInstance) {
  const TransportProblem p = KnownOptimumInstance();
  const TransportPlan plan = solver()->Solve(p);
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, plan, &error)) << error;
  EXPECT_NEAR(plan.total_cost, 10.0, 1e-9);
}

TEST_P(AllSolversTest, TextbookInstanceValidAndAgreesWithSsp) {
  const TransportProblem p = TextbookInstance();
  const TransportPlan plan = solver()->Solve(p);
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, plan, &error)) << error;
  const double ssp = SspSolver().Solve(p).total_cost;
  EXPECT_NEAR(plan.total_cost, ssp, 1e-9);
}

TEST_P(AllSolversTest, SingleCell) {
  const TransportProblem p = MakeProblem({5}, {5}, {7});
  const TransportPlan plan = solver()->Solve(p);
  EXPECT_NEAR(plan.total_cost, 35.0, 1e-9);
}

TEST_P(AllSolversTest, ZeroCosts) {
  const TransportProblem p = MakeProblem({3, 2}, {1, 4}, {0, 0, 0, 0});
  const TransportPlan plan = solver()->Solve(p);
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, plan, &error)) << error;
  EXPECT_NEAR(plan.total_cost, 0.0, 1e-9);
}

TEST_P(AllSolversTest, ZeroMass) {
  const TransportProblem p = MakeProblem({0.0, 0.0}, {0.0}, {1, 2});
  const TransportPlan plan = solver()->Solve(p);
  EXPECT_TRUE(plan.flows.empty());
  EXPECT_DOUBLE_EQ(plan.total_cost, 0.0);
}

TEST_P(AllSolversTest, DegenerateSupplies) {
  // Several zero supplies / demands interleaved.
  const TransportProblem p =
      MakeProblem({0, 4, 0, 1}, {2, 0, 3}, {5, 5, 5,   //
                                            1, 9, 2,   //
                                            5, 5, 5,   //
                                            8, 1, 1});
  const TransportPlan plan = solver()->Solve(p);
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, plan, &error)) << error;
  // Supplier 1 ships 2 to consumer 0 (cost 2) and 2 to consumer 2 (cost 4),
  // supplier 3 ships 1 to consumer 2 (cost 1): total 7.
  EXPECT_NEAR(plan.total_cost, 7.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, AllSolversTest,
    ::testing::Values(TransportAlgorithm::kSimplex, TransportAlgorithm::kSsp,
                      TransportAlgorithm::kCostScaling),
    [](const ::testing::TestParamInfo<TransportAlgorithm>& info) {
      switch (info.param) {
        case TransportAlgorithm::kSimplex:
          return "simplex";
        case TransportAlgorithm::kSsp:
          return "ssp";
        case TransportAlgorithm::kCostScaling:
          return "cost_scaling";
      }
      return "unknown";
    });

// Cross-validation sweep: on random integral instances all three
// production solvers agree with the exhaustive oracle.
class SolverCrossValidationTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverCrossValidationTest, AgreesWithOracleOnTinyInstances) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int32_t s = 1 + static_cast<int32_t>(rng.UniformInt(0, 2));
  const int32_t t = 1 + static_cast<int32_t>(rng.UniformInt(0, 2));
  const int32_t total = 1 + static_cast<int32_t>(rng.UniformInt(0, 6));
  std::vector<double> supply(static_cast<size_t>(s), 0.0);
  std::vector<double> demand(static_cast<size_t>(t), 0.0);
  for (int32_t k = 0; k < total; ++k) {
    supply[static_cast<size_t>(rng.UniformInt(0, s - 1))] += 1.0;
    demand[static_cast<size_t>(rng.UniformInt(0, t - 1))] += 1.0;
  }
  std::vector<double> cost(static_cast<size_t>(s) * static_cast<size_t>(t));
  for (auto& c : cost) c = static_cast<double>(rng.UniformInt(0, 20));
  const TransportProblem p(std::move(supply), std::move(demand),
                           std::move(cost));

  const double oracle = OracleSolver().Solve(p).total_cost;
  for (auto algorithm :
       {TransportAlgorithm::kSimplex, TransportAlgorithm::kSsp,
        TransportAlgorithm::kCostScaling}) {
    const TransportPlan plan = MakeTransportSolver(algorithm)->Solve(p);
    std::string error;
    EXPECT_TRUE(ValidatePlan(p, plan, &error))
        << TransportAlgorithmName(algorithm) << ": " << error;
    EXPECT_NEAR(plan.total_cost, oracle, 1e-9)
        << TransportAlgorithmName(algorithm);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SolverCrossValidationTest,
                         ::testing::Range(0, 60));

// Larger randomized instances: the three production solvers agree with
// each other (the oracle would be too slow).
class SolverAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreementTest, ProductionSolversAgree) {
  Rng rng(500 + static_cast<uint64_t>(GetParam()));
  const int32_t s = 2 + static_cast<int32_t>(rng.UniformInt(0, 18));
  const int32_t t = 2 + static_cast<int32_t>(rng.UniformInt(0, 18));
  std::vector<double> supply(static_cast<size_t>(s));
  std::vector<double> demand(static_cast<size_t>(t), 0.0);
  double total = 0.0;
  for (auto& v : supply) {
    v = static_cast<double>(rng.UniformInt(0, 30));
    total += v;
  }
  // Spread the same total over the demands.
  double remaining = total;
  for (int32_t j = 0; j + 1 < t; ++j) {
    const double d = std::floor(rng.UniformReal() * remaining);
    demand[static_cast<size_t>(j)] = d;
    remaining -= d;
  }
  demand[static_cast<size_t>(t - 1)] = remaining;
  std::vector<double> cost(static_cast<size_t>(s) * static_cast<size_t>(t));
  for (auto& c : cost) c = static_cast<double>(rng.UniformInt(0, 50));
  const TransportProblem p(std::move(supply), std::move(demand),
                           std::move(cost));

  const double simplex =
      MakeTransportSolver(TransportAlgorithm::kSimplex)->Solve(p).total_cost;
  const double ssp =
      MakeTransportSolver(TransportAlgorithm::kSsp)->Solve(p).total_cost;
  const double scaling = MakeTransportSolver(TransportAlgorithm::kCostScaling)
                             ->Solve(p)
                             .total_cost;
  EXPECT_NEAR(simplex, ssp, 1e-6 * (1.0 + simplex));
  EXPECT_NEAR(simplex, scaling, 1e-6 * (1.0 + simplex));
}

INSTANTIATE_TEST_SUITE_P(Random, SolverAgreementTest, ::testing::Range(0, 40));

// Real-valued masses: simplex and SSP agree (cost-scaling requires
// integral data and is excluded).
class RealMassAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(RealMassAgreementTest, SimplexMatchesSsp) {
  Rng rng(900 + static_cast<uint64_t>(GetParam()));
  const int32_t s = 2 + static_cast<int32_t>(rng.UniformInt(0, 8));
  const int32_t t = 2 + static_cast<int32_t>(rng.UniformInt(0, 8));
  std::vector<double> supply(static_cast<size_t>(s));
  std::vector<double> demand(static_cast<size_t>(t), 0.0);
  double total = 0.0;
  for (auto& v : supply) {
    v = rng.UniformReal(0.0, 4.0);
    total += v;
  }
  double remaining = total;
  for (int32_t j = 0; j + 1 < t; ++j) {
    const double d = rng.UniformReal() * remaining;
    demand[static_cast<size_t>(j)] = d;
    remaining -= d;
  }
  demand[static_cast<size_t>(t - 1)] = remaining;
  std::vector<double> cost(static_cast<size_t>(s) * static_cast<size_t>(t));
  for (auto& c : cost) c = rng.UniformReal(0.0, 10.0);
  const TransportProblem p(std::move(supply), std::move(demand),
                           std::move(cost));

  const TransportPlan simplex =
      MakeTransportSolver(TransportAlgorithm::kSimplex)->Solve(p);
  const TransportPlan ssp =
      MakeTransportSolver(TransportAlgorithm::kSsp)->Solve(p);
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, simplex, &error)) << "simplex: " << error;
  EXPECT_TRUE(ValidatePlan(p, ssp, &error)) << "ssp: " << error;
  EXPECT_NEAR(simplex.total_cost, ssp.total_cost,
              1e-6 * (1.0 + simplex.total_cost));
}

INSTANTIATE_TEST_SUITE_P(Random, RealMassAgreementTest,
                         ::testing::Range(0, 40));

// SND-shaped instances (Theorem 4's reduced problem): unit rows against a
// few unit consumers plus many fractional bank bins, in both orientations,
// plus integer-tie and single-line instances. The simplex must produce a
// valid plan, match SSP, be bitwise repeatable and agree with the
// transposed problem.
enum class SndShape {
  kUnitRowsWide,   // S << T: banks join the demand side.
  kUnitRowsTall,   // S >> T: banks join the supply side.
  kIntegerTies,    // Unit rows, integer demands, costs in {0..3}.
  kSingleRow,      // 1 x T.
  kSingleColumn,   // S x 1.
};

TransportProblem Transpose(const TransportProblem& p) {
  const int32_t s = p.num_suppliers();
  const int32_t t = p.num_consumers();
  std::vector<double> cost(static_cast<size_t>(s) * static_cast<size_t>(t));
  for (int32_t i = 0; i < s; ++i) {
    for (int32_t j = 0; j < t; ++j) {
      cost[static_cast<size_t>(j) * static_cast<size_t>(s) +
           static_cast<size_t>(i)] = p.Cost(i, j);
    }
  }
  return TransportProblem(p.demands(), p.supplies(), std::move(cost));
}

// `rows` unit suppliers against `cols` unit consumers plus `banks` bank
// bins sharing the remaining rows - cols mass. Regular costs are small
// integer path lengths; a bank costs its gamma plus the row's integer
// distance to the bank's cluster, so the banks of one cluster differ only
// by gamma.
TransportProblem UnitRowsAgainstBanks(int32_t rows, int32_t cols,
                                      int32_t banks, Rng* rng) {
  constexpr int32_t kBanksPerCluster = 5;
  const int32_t clusters = (banks + kBanksPerCluster - 1) / kBanksPerCluster;
  const int32_t t = cols + banks;
  std::vector<double> supply(static_cast<size_t>(rows), 1.0);
  std::vector<double> demand(static_cast<size_t>(cols), 1.0);
  demand.resize(static_cast<size_t>(t),
                static_cast<double>(rows - cols) / banks);
  std::vector<double> cost(static_cast<size_t>(rows) * static_cast<size_t>(t));
  std::vector<double> cluster_dist(static_cast<size_t>(clusters));
  for (int32_t i = 0; i < rows; ++i) {
    double* row = cost.data() + static_cast<size_t>(i) * static_cast<size_t>(t);
    for (int32_t j = 0; j < cols; ++j) {
      row[j] = static_cast<double>(rng->UniformInt(1, 12));
    }
    for (auto& d : cluster_dist) d = static_cast<double>(rng->UniformInt(0, 8));
    for (int32_t k = 0; k < banks; ++k) {
      row[cols + k] = 0.25 * (1 + k % kBanksPerCluster) +
                      cluster_dist[static_cast<size_t>(k / kBanksPerCluster)];
    }
  }
  return TransportProblem(std::move(supply), std::move(demand),
                          std::move(cost));
}

TransportProblem MakeSndShaped(SndShape shape, Rng* rng) {
  switch (shape) {
    case SndShape::kUnitRowsWide:
      return UnitRowsAgainstBanks(40, 10, 150, rng);
    case SndShape::kUnitRowsTall:
      return Transpose(UnitRowsAgainstBanks(40, 10, 150, rng));
    case SndShape::kIntegerTies: {
      const int32_t s = 20 + static_cast<int32_t>(rng->UniformInt(0, 20));
      const int32_t t = 10 + static_cast<int32_t>(rng->UniformInt(0, 20));
      std::vector<double> supply(static_cast<size_t>(s), 1.0);
      std::vector<double> demand(static_cast<size_t>(t), 0.0);
      for (int32_t k = 0; k < s; ++k) {
        demand[static_cast<size_t>(rng->UniformInt(0, t - 1))] += 1.0;
      }
      std::vector<double> cost(static_cast<size_t>(s) *
                               static_cast<size_t>(t));
      for (auto& c : cost) c = static_cast<double>(rng->UniformInt(0, 3));
      return TransportProblem(std::move(supply), std::move(demand),
                              std::move(cost));
    }
    case SndShape::kSingleRow:
      return UnitRowsAgainstBanks(1, 0, 40, rng);
    case SndShape::kSingleColumn:
      return Transpose(UnitRowsAgainstBanks(1, 0, 40, rng));
  }
  return {};
}

std::string SndShapeTestName(
    const ::testing::TestParamInfo<std::tuple<SndShape, int>>& info) {
  static constexpr const char* kNames[] = {"unit_rows_wide", "unit_rows_tall",
                                           "integer_ties", "single_row",
                                           "single_column"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         "_" + std::to_string(std::get<1>(info.param));
}

class SndShapedSimplexTest
    : public ::testing::TestWithParam<std::tuple<SndShape, int>> {};

TEST_P(SndShapedSimplexTest, ValidMatchesSspRepeatableAndTransposable) {
  const auto [shape, seed] = GetParam();
  Rng rng(2000 + static_cast<uint64_t>(seed));
  const TransportProblem p = MakeSndShaped(shape, &rng);
  const SimplexSolver simplex;

  const TransportPlan plan = simplex.Solve(p);
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, plan, &error)) << error;
  const double ssp = SspSolver().Solve(p).total_cost;
  EXPECT_NEAR(plan.total_cost, ssp, 1e-9 * std::abs(ssp));
  EXPECT_EQ(simplex.Solve(p).total_cost, plan.total_cost);  // Bitwise.

  const TransportProblem transposed = Transpose(p);
  const TransportPlan transposed_plan = simplex.Solve(transposed);
  EXPECT_TRUE(ValidatePlan(transposed, transposed_plan, &error)) << error;
  EXPECT_NEAR(transposed_plan.total_cost, plan.total_cost,
              1e-9 * std::abs(plan.total_cost));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SndShapedSimplexTest,
    ::testing::Combine(
        ::testing::Values(SndShape::kUnitRowsWide, SndShape::kUnitRowsTall,
                          SndShape::kIntegerTies, SndShape::kSingleRow,
                          SndShape::kSingleColumn),
        ::testing::Range(0, 6)),
    SndShapeTestName);

// Pricing-cursor cases. The simplex prices S·T arcs in blocks of
// ⌈√(S·T)⌉ from a persistent (row, column) cursor; these shapes hit its
// edges: single lines, prime dimensions, a block size that does not divide
// S·T and scans that must wrap from the last row into row 0. Each plan
// must be valid, match SSP and be bitwise repeatable.
void ExpectSimplexExactAndRepeatable(const TransportProblem& p) {
  const SimplexSolver simplex;
  const TransportPlan plan = simplex.Solve(p);
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, plan, &error)) << error;
  const double ssp = SspSolver().Solve(p).total_cost;
  EXPECT_NEAR(plan.total_cost, ssp, 1e-9 * std::abs(ssp));
  EXPECT_EQ(simplex.Solve(p).total_cost, plan.total_cost);  // Bitwise.
}

// Real-valued masses with integer costs in [1, 20], so reduced costs tie.
TransportProblem RandomRealMassInstance(int32_t s, int32_t t, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> supply(static_cast<size_t>(s));
  std::vector<double> demand(static_cast<size_t>(t));
  double total = 0.0;
  for (auto& v : supply) {
    v = rng.UniformReal(0.5, 4.0);
    total += v;
  }
  double weights = 0.0;
  for (auto& v : demand) {
    v = rng.UniformReal(0.5, 4.0);
    weights += v;
  }
  for (auto& v : demand) v *= total / weights;
  std::vector<double> cost(static_cast<size_t>(s) * static_cast<size_t>(t));
  for (auto& c : cost) c = static_cast<double>(rng.UniformInt(1, 20));
  return TransportProblem(std::move(supply), std::move(demand),
                          std::move(cost));
}

TEST(SimplexCursorTest, OneByOne) {
  const TransportProblem p = MakeProblem({2.5}, {2.5}, {3.0});
  ExpectSimplexExactAndRepeatable(p);
  EXPECT_EQ(SimplexSolver().Solve(p).total_cost, 7.5);
}

TEST(SimplexCursorTest, OneRow) {
  ExpectSimplexExactAndRepeatable(RandomRealMassInstance(1, 17, 3100));
}

TEST(SimplexCursorTest, OneColumn) {
  ExpectSimplexExactAndRepeatable(RandomRealMassInstance(17, 1, 3101));
}

TEST(SimplexCursorTest, PrimeSevenByThirteen) {
  for (uint64_t seed = 3200; seed < 3210; ++seed) {
    ExpectSimplexExactAndRepeatable(RandomRealMassInstance(7, 13, seed));
  }
}

TEST(SimplexCursorTest, PrimeThirteenBySeven) {
  for (uint64_t seed = 3300; seed < 3310; ++seed) {
    ExpectSimplexExactAndRepeatable(RandomRealMassInstance(13, 7, seed));
  }
}

// 4 x 3, blocks of 4 arcs. The third scan starts at arc 8, i.e. (2, 2),
// and (2, 1) = arc 7, just before it, is the only violating arc: the scan
// must run through row 3, wrap into row 0 and come round to arc 7. A scan
// that stopped short of it would end at cost 25.
TEST(SimplexCursorTest, OnlyViolationJustBeforeCursorWrapsToRowZero) {
  const TransportProblem p = MakeProblem({3, 2, 2, 2}, {1, 3, 5},
                                         {9, 6, 4,  //
                                          3, 2, 4,  //
                                          0, 0, 7,  //
                                          7, 6, 0});
  ExpectSimplexExactAndRepeatable(p);
  EXPECT_EQ(SimplexSolver().Solve(p).total_cost, 16.0);
}

// 5 x 2, blocks of 4 arcs over 10: the block size does not divide S·T.
// The second scan starts at arc 4 with (1, 1) = arc 3 the only violating
// arc; its second block wraps mid-block from (4, 1) to (0, 0), and its
// third block is the 2-arc remainder that ends on arc 3.
TEST(SimplexCursorTest, BlockDoesNotDivideArcCount) {
  const TransportProblem p = MakeProblem({1, 1, 1, 1, 3}, {5, 2},
                                         {8, 3,  //
                                          5, 0,  //
                                          0, 6,  //
                                          5, 7,  //
                                          6, 5});
  ExpectSimplexExactAndRepeatable(p);
  EXPECT_EQ(SimplexSolver().Solve(p).total_cost, 26.0);
}

}  // namespace
}  // namespace snd
