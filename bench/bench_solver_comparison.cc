// Transport solver comparison on SND-shaped instances: the reduced
// transportation problem of Theorem 4 with unit rows against a few unit
// consumers plus many fractional bank bins, in both orientations (banks on
// the demand side when the first state is heavier, on the supply side
// otherwise). Costs follow the SND ground distances: small integer path
// lengths with heavy ties, a tail of long detours, and bank costs equal to
// the distance to the bank's cluster plus an integer gamma.
//
// Every plan is checked with ValidatePlan and against SSP (relative 1e-9);
// a failure exits non-zero.
//
// Emits BENCH_METRIC lines (scraped into the bench-all JSON) that
// tools/check_perf_budget.py compares against bench/budgets.json:
//   flow.simplex.ms.s{S}_t{T}                  mean ms per simplex solve
//   flow.ssp.ms.s{S}_t{T}                      mean ms per SSP solve
//   flow.speedup.simplex_vs_ssp.s{S}_t{T}      SSP ms / simplex ms
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "snd/flow/simplex_solver.h"
#include "snd/flow/ssp_solver.h"
#include "snd/util/random.h"
#include "snd/util/stopwatch.h"
#include "snd/util/table.h"

namespace {

// An SND-like ground distance: mostly 2-5 hops, some 11-14, a few long
// detours.
double GroundDistance(snd::Rng* rng) {
  const int64_t tier = rng->UniformInt(0, 99);
  if (tier < 85) return static_cast<double>(rng->UniformInt(2, 5));
  if (tier < 98) return static_cast<double>(rng->UniformInt(11, 14));
  return static_cast<double>(rng->UniformInt(60, 70));
}

// `rows` unit suppliers against `cols` unit consumers plus `banks` bank
// bins (5 per cluster) sharing the remaining rows - cols mass.
snd::TransportProblem UnitRowsAgainstBanks(int32_t rows, int32_t cols,
                                           int32_t banks, snd::Rng* rng) {
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
    for (int32_t j = 0; j < cols; ++j) row[j] = GroundDistance(rng);
    for (auto& d : cluster_dist) d = GroundDistance(rng) - 1.0;
    for (int32_t k = 0; k < banks; ++k) {
      row[cols + k] = cluster_dist[static_cast<size_t>(k / kBanksPerCluster)] +
                      static_cast<double>(k % 2);
    }
  }
  return snd::TransportProblem(std::move(supply), std::move(demand),
                               std::move(cost));
}

snd::TransportProblem Transpose(const snd::TransportProblem& p) {
  const int32_t s = p.num_suppliers();
  const int32_t t = p.num_consumers();
  std::vector<double> cost(static_cast<size_t>(s) * static_cast<size_t>(t));
  for (int32_t i = 0; i < s; ++i) {
    for (int32_t j = 0; j < t; ++j) {
      cost[static_cast<size_t>(j) * static_cast<size_t>(s) +
           static_cast<size_t>(i)] = p.Cost(i, j);
    }
  }
  return snd::TransportProblem(p.demands(), p.supplies(), std::move(cost));
}

// Median over `passes` of the mean ms per solve across `instances`; the
// last pass's costs land in `costs`.
double TimeSolver(const snd::TransportSolver& solver,
                  const std::vector<snd::TransportProblem>& instances,
                  int32_t passes, std::vector<double>* costs) {
  std::vector<double> pass_ms;
  for (int32_t pass = 0; pass < passes; ++pass) {
    costs->clear();
    snd::Stopwatch watch;
    for (const snd::TransportProblem& p : instances) {
      costs->push_back(solver.Solve(p).total_cost);
    }
    pass_ms.push_back(watch.ElapsedMillis() /
                      static_cast<double>(instances.size()));
  }
  std::sort(pass_ms.begin(), pass_ms.end());
  return pass_ms[pass_ms.size() / 2];
}

}  // namespace

int main() {
  snd::bench::PrintHeader(
      "Transport solvers - network simplex vs SSP on SND-shaped instances",
      "Mean ms per solve of the reduced Theorem-4 transportation problem "
      "(unit rows against unit consumers plus fractional bank bins), in "
      "both orientations.");

  const bool full = snd::bench::FullScale();
  const int32_t num_instances = full ? 16 : 4;
  const int32_t simplex_passes = full ? 9 : 5;
  const int32_t ssp_passes = 1;
  snd::Rng rng(97);
  snd::Stopwatch total;
  const snd::SimplexSolver simplex;
  const snd::SspSolver ssp;
  char name[96];
  bool ok = true;

  std::printf("instances per shape=%d, simplex passes=%d, ssp passes=%d\n\n",
              num_instances, simplex_passes, ssp_passes);
  snd::TablePrinter table(
      {"shape", "simplex ms", "ssp ms", "simplex vs ssp", "max rel diff"});
  // 75 unit rows against 25 unit consumers + 475 banks, and its transpose.
  std::vector<snd::TransportProblem> wide, tall;
  for (int32_t k = 0; k < num_instances; ++k) {
    wide.push_back(UnitRowsAgainstBanks(75, 25, 475, &rng));
    tall.push_back(Transpose(UnitRowsAgainstBanks(75, 25, 475, &rng)));
  }
  for (const auto* instances : {&wide, &tall}) {
    const int32_t s = instances->front().num_suppliers();
    const int32_t t = instances->front().num_consumers();
    std::vector<double> simplex_costs, ssp_costs;
    const double simplex_ms =
        TimeSolver(simplex, *instances, simplex_passes, &simplex_costs);
    const double ssp_ms = TimeSolver(ssp, *instances, ssp_passes, &ssp_costs);
    double max_rel = 0.0;
    for (size_t k = 0; k < instances->size(); ++k) {
      const snd::TransportProblem& p = (*instances)[k];
      std::string error;
      if (!snd::ValidatePlan(p, simplex.Solve(p), &error)) {
        std::printf("INVALID simplex plan (s%d_t%d #%zu): %s\n", s, t, k,
                    error.c_str());
        ok = false;
      }
      max_rel = std::max(max_rel, std::abs(simplex_costs[k] - ssp_costs[k]) /
                                      std::abs(ssp_costs[k]));
    }
    if (max_rel > 1e-9) {
      std::printf("MISMATCH simplex vs ssp (s%d_t%d): rel %.3g\n", s, t,
                  max_rel);
      ok = false;
    }
    std::snprintf(name, sizeof(name), "flow.simplex.ms.s%d_t%d", s, t);
    snd::bench::PrintMetric(name, simplex_ms);
    std::snprintf(name, sizeof(name), "flow.ssp.ms.s%d_t%d", s, t);
    snd::bench::PrintMetric(name, ssp_ms);
    std::snprintf(name, sizeof(name), "flow.speedup.simplex_vs_ssp.s%d_t%d", s,
                  t);
    snd::bench::PrintMetric(name, ssp_ms / simplex_ms);
    char rel[32];
    std::snprintf(rel, sizeof(rel), "%.2e", max_rel);
    table.AddRow({std::to_string(s) + "x" + std::to_string(t),
                  snd::TablePrinter::Fmt(simplex_ms, 3),
                  snd::TablePrinter::Fmt(ssp_ms, 3),
                  snd::TablePrinter::Fmt(ssp_ms / simplex_ms, 1), rel});
  }
  table.Print();
  std::printf("\ntotal time: %.3f s\n", total.ElapsedSeconds());
  return ok ? 0 : 1;
}
