// Seeded input generation. The benchmark builds its graphs and state
// streams with its own code and hands the program only files or inline
// values, so a change to the library's generators cannot move the inputs.
//
// The state stream is stationary by construction. The number of users n,
// the active-set size A (users holding an opinion), and n_delta (users
// whose opinion changes per transition) are separate settings that hold
// exactly for every transition: each step deactivates n_delta/2 active
// users and activates n_delta/2 others, so A never drifts and a run's cost
// per transition does not depend on how far into the stream it gets.
// `swing` alternates the + count between A/2 + swing and A/2 - swing; a
// nonzero swing makes the two histograms of every term unequal in mass by
// the same amount, which is what puts EMD* bank bins into the transport
// problem.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "report.h"

namespace perfbench {

struct GraphSpec {
  int32_t nodes = 2000;
  double avg_degree = 10.0;  // Expected out-degree; every arc is mutual.
  double exponent = -2.5;    // Scale-free exponent of the Chung-Lu model.
};

struct StreamSpec {
  int32_t active = 400;   // A: users holding an opinion in every state.
  int32_t n_delta = 100;  // Users whose opinion changes per transition.
  int32_t swing = 0;      // The + count alternates A/2 +- swing.
  double p_nbr = 0.7;     // Share of activations adjacent to active users.
};

// A directed graph as the benchmark knows it (the program only ever sees
// the edge-list file).
struct BenchGraph {
  int32_t nodes = 0;
  std::vector<std::vector<int32_t>> out;  // Sorted out-neighbors.
  int64_t NumArcs() const;
};

// Directed Chung-Lu scale-free graph with mutual arcs, no self-loops, no
// duplicates and no isolated nodes.
BenchGraph MakeGraph(const GraphSpec& spec, uint64_t seed);
// "# nodes n" header, then one "u v" arc per line (the edge-list format).
bool WriteGraph(const BenchGraph& graph, const std::string& path);

using State = std::vector<int8_t>;

// "# states T users n" header, then one row of -1/0/1 values per state.
bool WriteStates(const std::vector<State>& states, const std::string& path);
// Space-separated values, as `append_state` takes them inline.
std::string StateTokens(const State& state);

class StateStream {
 public:
  // Runs a burn-in of ~3 A / n_delta steps so that the first state handed
  // out is already in the stream's steady state.
  StateStream(const BenchGraph* graph, const StreamSpec& spec, uint64_t seed);
  // The next state of the stream (the first call returns the initial one).
  const State& Next();

 private:
  void Step();
  void Activate(int32_t u, int8_t op);
  void Deactivate(int32_t u);

  const BenchGraph* graph_;
  StreamSpec spec_;
  Rand rand_;
  State values_;
  std::vector<int32_t> active_;  // Active users, unordered.
  std::vector<int32_t> slot_;    // Index into active_, or -1.
  int32_t positives_ = 0;
  int32_t swing_sign_ = 1;
  bool started_ = false;
};

// Arc churn for the serving workloads: alternates additions of absent
// arcs with removals of present ones, drawing endpoints from the low-degree
// periphery or uniformly at random, so the arc count stays steady.
class EdgeChurn {
 public:
  EdgeChurn(const BenchGraph& graph, uint64_t seed);
  struct Op {
    bool add = true;
    int32_t u = 0, v = 0;
  };
  Op Next();

 private:
  int32_t Pick(bool periphery);
  bool Has(int32_t u, int32_t v) const;

  int32_t nodes_;
  Rand rand_;
  std::unordered_set<int64_t> arcs_;
  std::vector<std::pair<int32_t, int32_t>> arc_list_;
  std::vector<int32_t> periphery_;
  std::vector<std::pair<int32_t, int32_t>> added_;  // FIFO of our additions.
  int64_t step_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
