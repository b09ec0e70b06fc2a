#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>

namespace perfbench {

int64_t BenchGraph::NumArcs() const {
  int64_t arcs = 0;
  for (const auto& row : out) arcs += static_cast<int64_t>(row.size());
  return arcs;
}

BenchGraph MakeGraph(const GraphSpec& spec, uint64_t seed) {
  Rand rand(seed);
  const int32_t n = spec.nodes;
  // Chung-Lu weights w_i ~ (i+1)^(-1/(|gamma|-1)), sampled through the
  // cumulative distribution.
  const double power = -1.0 / (std::fabs(spec.exponent) - 1.0);
  std::vector<double> cumulative(static_cast<size_t>(n));
  double total = 0.0;
  for (int32_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), power);
    cumulative[static_cast<size_t>(i)] = total;
  }
  auto sample = [&]() {
    const double x = rand.Unit() * total;
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), x);
    return static_cast<int32_t>(
        std::min<std::ptrdiff_t>(it - cumulative.begin(), n - 1));
  };
  // Node ids are shuffled so that hub identity carries no index order.
  std::vector<int32_t> label(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) label[static_cast<size_t>(i)] = i;
  for (int32_t i = n - 1; i > 0; --i) {
    std::swap(label[static_cast<size_t>(i)],
              label[rand.Below(static_cast<uint64_t>(i) + 1)]);
  }
  BenchGraph graph;
  graph.nodes = n;
  graph.out.resize(static_cast<size_t>(n));
  auto link = [&](int32_t a, int32_t b) {
    graph.out[static_cast<size_t>(a)].push_back(b);
    graph.out[static_cast<size_t>(b)].push_back(a);
  };
  const auto pairs = static_cast<int64_t>(spec.avg_degree * n / 2.0);
  for (int64_t k = 0; k < pairs; ++k) {
    const int32_t a = label[static_cast<size_t>(sample())];
    const int32_t b = label[static_cast<size_t>(sample())];
    if (a != b) link(a, b);
  }
  for (auto& row : graph.out) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  for (int32_t u = 0; u < n; ++u) {
    if (!graph.out[static_cast<size_t>(u)].empty()) continue;
    int32_t v = u;
    while (v == u) v = label[static_cast<size_t>(sample())];
    auto& ru = graph.out[static_cast<size_t>(u)];
    auto& rv = graph.out[static_cast<size_t>(v)];
    ru.insert(std::lower_bound(ru.begin(), ru.end(), v), v);
    if (!std::binary_search(rv.begin(), rv.end(), u)) {
      rv.insert(std::lower_bound(rv.begin(), rv.end(), u), u);
    }
  }
  return graph;
}

bool WriteGraph(const BenchGraph& graph, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# nodes %d\n", graph.nodes);
  for (int32_t u = 0; u < graph.nodes; ++u) {
    for (const int32_t v : graph.out[static_cast<size_t>(u)]) {
      std::fprintf(f, "%d %d\n", u, v);
    }
  }
  return std::fclose(f) == 0;
}

bool WriteStates(const std::vector<State>& states, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# states %zu users %zu\n", states.size(),
               states.empty() ? size_t{0} : states.front().size());
  for (const State& state : states) {
    const std::string row = StateTokens(state);
    std::fprintf(f, "%s\n", row.c_str());
  }
  return std::fclose(f) == 0;
}

std::string StateTokens(const State& state) {
  std::string out;
  out.reserve(state.size() * 3);
  for (size_t u = 0; u < state.size(); ++u) {
    if (u > 0) out += ' ';
    out += state[u] < 0 ? "-1" : state[u] > 0 ? "1" : "0";
  }
  return out;
}

StateStream::StateStream(const BenchGraph* graph, const StreamSpec& spec,
                         uint64_t seed)
    : graph_(graph), spec_(spec), rand_(seed) {
  const int32_t n = graph->nodes;
  values_.assign(static_cast<size_t>(n), 0);
  slot_.assign(static_cast<size_t>(n), -1);
  spec_.active = std::clamp(spec_.active, 2, n / 2);
  spec_.n_delta = std::clamp(spec_.n_delta / 2 * 2, 2, spec_.active);
  for (int32_t k = 0; k < spec_.active; ++k) {
    int32_t u = 0;
    do {
      u = static_cast<int32_t>(rand_.Below(static_cast<uint64_t>(n)));
    } while (values_[static_cast<size_t>(u)] != 0);
    Activate(u, k < spec_.active / 2 ? 1 : -1);
  }
  const int32_t burn_in = 3 * spec_.active / (spec_.n_delta / 2) + 1;
  for (int32_t k = 0; k < burn_in; ++k) Step();
}

const State& StateStream::Next() {
  if (started_) Step();
  started_ = true;
  return values_;
}

void StateStream::Activate(int32_t u, int8_t op) {
  values_[static_cast<size_t>(u)] = op;
  slot_[static_cast<size_t>(u)] = static_cast<int32_t>(active_.size());
  active_.push_back(u);
  if (op > 0) ++positives_;
}

void StateStream::Deactivate(int32_t u) {
  if (values_[static_cast<size_t>(u)] > 0) --positives_;
  values_[static_cast<size_t>(u)] = 0;
  const int32_t at = slot_[static_cast<size_t>(u)];
  const int32_t last = active_.back();
  active_[static_cast<size_t>(at)] = last;
  slot_[static_cast<size_t>(last)] = at;
  active_.pop_back();
  slot_[static_cast<size_t>(u)] = -1;
}

void StateStream::Step() {
  const int32_t n = graph_->nodes;
  const int32_t k = spec_.n_delta / 2;
  const int32_t half = spec_.active / 2;
  // Target + count of the next state (alternating around A/2, so every
  // transition moves the same mass), then the split of deactivations
  // (k_pos of them positive) and activations (a_pos positive) that lands
  // on it exactly while keeping the active-set size.
  swing_sign_ = -swing_sign_;
  const int32_t target = half + swing_sign_ * spec_.swing;
  const int32_t d = target - positives_;
  const int32_t negatives = spec_.active - positives_;
  int32_t k_pos = std::clamp((k - d) / 2, 0, std::min(k, positives_));
  k_pos = std::max(k_pos, k - negatives);
  const int32_t a_pos = std::clamp(k_pos + d, 0, k);
  int32_t left_pos = k_pos, left_neg = k - k_pos;
  std::vector<int32_t> dropped;
  dropped.reserve(static_cast<size_t>(k));
  while (left_pos + left_neg > 0) {
    const int32_t u = active_[rand_.Below(active_.size())];
    const bool pos = values_[static_cast<size_t>(u)] > 0;
    if (pos ? left_pos == 0 : left_neg == 0) continue;
    (pos ? left_pos : left_neg)--;
    Deactivate(u);
    dropped.push_back(u);
  }
  // A user deactivated this step may not come back in the same step, so
  // exactly 2k users change.
  for (const int32_t u : dropped) values_[static_cast<size_t>(u)] = 2;
  int32_t want_pos = a_pos, want_neg = k - a_pos;
  while (want_pos + want_neg > 0) {
    int32_t v = -1;
    int8_t op = want_pos > 0 ? 1 : -1;
    if (rand_.Unit() < spec_.p_nbr && !active_.empty()) {
      const int32_t u = active_[rand_.Below(active_.size())];
      const auto& row = graph_->out[static_cast<size_t>(u)];
      if (!row.empty()) {
        v = row[rand_.Below(row.size())];
        const int8_t want = values_[static_cast<size_t>(u)];
        if ((want > 0 && want_pos > 0) || (want < 0 && want_neg > 0)) op = want;
      }
    } else {
      v = static_cast<int32_t>(rand_.Below(static_cast<uint64_t>(n)));
    }
    if (v < 0 || values_[static_cast<size_t>(v)] != 0) continue;
    Activate(v, op);
    (op > 0 ? want_pos : want_neg)--;
  }
  for (const int32_t u : dropped) values_[static_cast<size_t>(u)] = 0;
}

EdgeChurn::EdgeChurn(const BenchGraph& graph, uint64_t seed)
    : nodes_(graph.nodes), rand_(seed) {
  std::vector<size_t> degrees;
  for (int32_t u = 0; u < graph.nodes; ++u) {
    degrees.push_back(graph.out[static_cast<size_t>(u)].size());
    for (const int32_t v : graph.out[static_cast<size_t>(u)]) {
      arcs_.insert(static_cast<int64_t>(u) * nodes_ + v);
      arc_list_.emplace_back(u, v);
    }
  }
  std::vector<size_t> sorted = degrees;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const size_t median = sorted[sorted.size() / 2];
  for (int32_t u = 0; u < graph.nodes; ++u) {
    if (degrees[static_cast<size_t>(u)] <= median) periphery_.push_back(u);
  }
}

int32_t EdgeChurn::Pick(bool periphery) {
  if (periphery) return periphery_[rand_.Below(periphery_.size())];
  return static_cast<int32_t>(rand_.Below(static_cast<uint64_t>(nodes_)));
}

bool EdgeChurn::Has(int32_t u, int32_t v) const {
  return arcs_.count(static_cast<int64_t>(u) * nodes_ + v) > 0;
}

EdgeChurn::Op EdgeChurn::Next() {
  const int64_t step = step_++;
  // Steps cycle: add periphery, remove, add random, remove.
  Op op;
  if (step % 2 == 0) {
    const bool periphery = step % 4 == 0;
    do {
      op.u = Pick(periphery);
      op.v = Pick(periphery);
    } while (op.u == op.v || Has(op.u, op.v));
    arcs_.insert(static_cast<int64_t>(op.u) * nodes_ + op.v);
    added_.emplace_back(op.u, op.v);
    return op;
  }
  op.add = false;
  // Odd removals undo our oldest addition; the others remove an arc of
  // the generated graph (which may have been removed already, so draw
  // until one is present).
  if (step % 4 == 1 && !added_.empty()) {
    std::tie(op.u, op.v) = added_.front();
    added_.erase(added_.begin());
  } else {
    do {
      std::tie(op.u, op.v) = arc_list_[rand_.Below(arc_list_.size())];
    } while (!Has(op.u, op.v));
  }
  arcs_.erase(static_cast<int64_t>(op.u) * nodes_ + op.v);
  return op;
}

}  // namespace perfbench
