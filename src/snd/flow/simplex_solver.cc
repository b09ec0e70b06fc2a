#include "snd/flow/simplex_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "snd/flow/ssp_solver.h"

namespace snd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int32_t kNone = -1;

// Node ids: supplier i is node i, consumer j is node S + j. Every tree arc
// joins a supplier and a consumer and is stored at its child endpoint, so
// the basis needs no arc array: parent_[u], flow_[u] describe the arc from
// u to its parent.
class Simplex {
 public:
  explicit Simplex(const TransportProblem& problem)
      : problem_(problem),
        S_(problem.num_suppliers()),
        T_(problem.num_consumers()) {}

  // Returns true and fills `plan` on success; false if the pivot cap was
  // exceeded (caller falls back to SSP).
  bool Run(TransportPlan* plan) {
    BuildInitialTree();
    const double price_tol = 1e-9 * (1.0 + problem_.MaxCost());
    const int64_t max_pivots =
        200 + 64 * (static_cast<int64_t>(S_) + T_) *
                  static_cast<int64_t>(
                      std::max<int64_t>(1, std::llround(std::log2(
                                               2.0 + S_ + T_))));
    for (int64_t pivot = 0;; ++pivot) {
      if (pivot > max_pivots) return false;
      int32_t ei = 0, ej = 0;
      if (!FindEnteringArc(price_tol, &ei, &ej)) break;  // Optimal.
      Pivot(ei, ej);
    }
    plan->flows.clear();
    plan->total_cost = 0.0;
    for (int32_t u = 0; u < S_ + T_; ++u) {
      const double f = flow_[static_cast<size_t>(u)];
      if (parent_[static_cast<size_t>(u)] == kNone || f <= 0.0) continue;
      const int32_t i = SupplierOf(u);
      const int32_t j = ConsumerOf(u);
      plan->flows.push_back({i, j, f});
      plan->total_cost += f * problem_.Cost(i, j);
    }
    return true;
  }

 private:
  // Endpoints of the tree arc stored at non-root node `u`.
  int32_t SupplierOf(int32_t u) const {
    return u < S_ ? u : parent_[static_cast<size_t>(u)];
  }
  int32_t ConsumerOf(int32_t u) const {
    return (u < S_ ? parent_[static_cast<size_t>(u)] : u) - S_;
  }

  // Potential of non-root `u` that zeroes the reduced cost of its tree
  // arc: u_i = c_ij - v_j for a supplier, v_j = c_ij - u_i for a consumer.
  double TreePotential(int32_t u) const {
    return problem_.Cost(SupplierOf(u), ConsumerOf(u)) -
           pi_[static_cast<size_t>(parent_[static_cast<size_t>(u)])];
  }

  void LinkChild(int32_t u, int32_t parent) {
    const auto su = static_cast<size_t>(u);
    const int32_t head = first_child_[static_cast<size_t>(parent)];
    parent_[su] = parent;
    prev_sibling_[su] = kNone;
    next_sibling_[su] = head;
    if (head != kNone) prev_sibling_[static_cast<size_t>(head)] = u;
    first_child_[static_cast<size_t>(parent)] = u;
  }

  void UnlinkChild(int32_t u) {
    const auto su = static_cast<size_t>(u);
    const int32_t prev = prev_sibling_[su];
    const int32_t next = next_sibling_[su];
    if (prev != kNone) {
      next_sibling_[static_cast<size_t>(prev)] = next;
    } else {
      first_child_[static_cast<size_t>(parent_[su])] = next;
    }
    if (next != kNone) prev_sibling_[static_cast<size_t>(next)] = prev;
  }

  // Northwest-corner initial basic feasible solution with exactly
  // S + T - 1 basic arcs (degenerate zero arcs are inserted on ties). The
  // walk always reaches cell (S-1, T-1), so floating-point imbalance dust
  // cannot truncate the basis below tree size. The tree is rooted at
  // supplier 0; each step hangs the newly reached line under the line it
  // shares the cell with.
  void BuildInitialTree() {
    const auto n = static_cast<size_t>(S_ + T_);
    parent_.assign(n, kNone);
    first_child_.assign(n, kNone);
    next_sibling_.assign(n, kNone);
    prev_sibling_.assign(n, kNone);
    depth_.assign(n, 0);
    flow_.assign(n, 0.0);
    pi_.assign(n, 0.0);
    std::vector<double> rs = problem_.supplies();
    std::vector<double> rd = problem_.demands();
    int32_t i = 0, j = 0;
    int32_t prev = 0, reached = S_;  // Cell (0, 0) reaches consumer 0.
    while (true) {
      const double x = std::min(rs[static_cast<size_t>(i)],
                                rd[static_cast<size_t>(j)]);
      LinkChild(reached, prev);
      flow_[static_cast<size_t>(reached)] = x;
      depth_[static_cast<size_t>(reached)] =
          depth_[static_cast<size_t>(prev)] + 1;
      pi_[static_cast<size_t>(reached)] = TreePotential(reached);
      // Subtracting the exact minimum zeroes at least one side exactly.
      rs[static_cast<size_t>(i)] -= x;
      rd[static_cast<size_t>(j)] -= x;
      if (i == S_ - 1 && j == T_ - 1) break;
      bool advance_i;
      if (i == S_ - 1) {
        advance_i = false;
      } else if (j == T_ - 1) {
        advance_i = true;
      } else {
        advance_i = rs[static_cast<size_t>(i)] <= 0.0;
      }
      if (advance_i) {
        prev = S_ + j;
        reached = ++i;
      } else {
        prev = i;
        reached = S_ + ++j;
      }
    }
  }

  // Block pricing for the most negative reduced cost. Arcs are scanned in
  // row-major order from a persistent (row, column) cursor through CostRow
  // pointers, wrapping from the last arc to arc (0, 0); the scan stops at
  // the end of the first block of ⌈√(S·T)⌉ arcs that holds a violation,
  // and the next scan resumes where this one stopped. A full S·T pass
  // without a violation proves optimality.
  bool FindEnteringArc(double tol, int32_t* ei, int32_t* ej) {
    const double* v = pi_.data() + S_;
    double best = -tol;
    int32_t best_i = kNone, best_j = kNone;
    int32_t i = cursor_row_;
    int32_t j = cursor_col_;
    const double* row = problem_.CostRow(i);
    double ui = pi_[static_cast<size_t>(i)];
    int64_t block_left = block_;
    for (int64_t left = num_arcs_; left > 0;) {
      // Scan row i up to its end, the block's end or the pass's end.
      const auto end = static_cast<int32_t>(
          std::min<int64_t>(T_, j + std::min(block_left, left)));
      for (int32_t k = j; k < end; ++k) {
        const double rc = row[k] - ui - v[k];
        if (rc < best) {
          best = rc;
          best_i = i;
          best_j = k;
        }
      }
      left -= end - j;
      block_left -= end - j;
      j = end;
      if (j == T_) {
        j = 0;
        if (++i == S_) i = 0;
        row = problem_.CostRow(i);
        ui = pi_[static_cast<size_t>(i)];
      }
      if (block_left == 0) {
        if (best_i != kNone) break;
        block_left = block_;
      }
    }
    cursor_row_ = i;
    cursor_col_ = j;
    *ei = best_i;
    *ej = best_j;
    return best_i != kNone;
  }

  // Pushes flow around the cycle closed by entering arc (ei, ej), drops the
  // leaving arc and re-hangs the subtree it cut off under the entering arc.
  void Pivot(int32_t ei, int32_t ej) {
    const int32_t a = ei;       // Tail of the entering arc.
    const int32_t b = S_ + ej;  // Head of the entering arc.
    int32_t apex_a = a, apex_b = b;
    while (apex_a != apex_b) {
      if (depth_[static_cast<size_t>(apex_a)] >=
          depth_[static_cast<size_t>(apex_b)]) {
        apex_a = parent_[static_cast<size_t>(apex_a)];
      } else {
        apex_b = parent_[static_cast<size_t>(apex_b)];
      }
    }
    const int32_t apex = apex_a;

    // The cycle runs a -> b -> ... -> apex -> ... -> a. On the a side the
    // flow runs parent -> child, against the arc when the child is a
    // supplier; on the b side it runs child -> parent, against the arc
    // when the child is a consumer. Those arcs lose flow. Strongly
    // feasible tie rule: the last blocking arc met walking the cycle from
    // the apex, i.e. nearest a on the a side ('<'), nearest the apex on
    // the b side ('<=').
    double delta = kInf;
    int32_t out = kNone;
    bool out_on_a_side = true;
    for (int32_t u = a; u != apex; u = parent_[static_cast<size_t>(u)]) {
      if (u < S_ && flow_[static_cast<size_t>(u)] < delta) {
        delta = flow_[static_cast<size_t>(u)];
        out = u;
      }
    }
    for (int32_t u = b; u != apex; u = parent_[static_cast<size_t>(u)]) {
      if (u >= S_ && flow_[static_cast<size_t>(u)] <= delta) {
        delta = flow_[static_cast<size_t>(u)];
        out = u;
        out_on_a_side = false;
      }
    }
    SND_CHECK(out != kNone);

    if (delta > 0.0) {
      auto push = [&](int32_t from, bool loses_if_supplier) {
        for (int32_t u = from; u != apex; u = parent_[static_cast<size_t>(u)]) {
          double& f = flow_[static_cast<size_t>(u)];
          if ((u < S_) == loses_if_supplier) {
            f = (f <= delta) ? 0.0 : f - delta;
          } else {
            f += delta;
          }
        }
      };
      push(a, /*loses_if_supplier=*/true);
      push(b, /*loses_if_supplier=*/false);
    }

    // Re-root the cut-off subtree at the entering endpoint inside it by
    // reversing its tree path up to `out`; each reversed arc moves its
    // flow to its new child. Then hang it under the other endpoint.
    const int32_t root = out_on_a_side ? a : b;
    int32_t u = root;
    int32_t new_parent = out_on_a_side ? b : a;
    double new_flow = delta;
    while (true) {
      const int32_t old_parent = parent_[static_cast<size_t>(u)];
      const double old_flow = flow_[static_cast<size_t>(u)];
      UnlinkChild(u);
      LinkChild(u, new_parent);
      flow_[static_cast<size_t>(u)] = new_flow;
      if (u == out) break;
      new_parent = u;
      new_flow = old_flow;
      u = old_parent;
    }
    UpdateSubtree(root);
  }

  // Recomputes depth and potential of every node under `root`, each after
  // its parent, by a stackless pre-order walk of the child lists.
  void UpdateSubtree(int32_t root) {
    int32_t u = root;
    while (true) {
      const auto su = static_cast<size_t>(u);
      depth_[su] = depth_[static_cast<size_t>(parent_[su])] + 1;
      pi_[su] = TreePotential(u);
      if (first_child_[su] != kNone) {
        u = first_child_[su];
        continue;
      }
      while (u != root && next_sibling_[static_cast<size_t>(u)] == kNone) {
        u = parent_[static_cast<size_t>(u)];
      }
      if (u == root) return;
      u = next_sibling_[static_cast<size_t>(u)];
    }
  }

  const TransportProblem& problem_;
  const int32_t S_;
  const int32_t T_;
  std::vector<int32_t> parent_;  // kNone at the root (supplier 0).
  std::vector<int32_t> first_child_, next_sibling_, prev_sibling_;
  std::vector<int32_t> depth_;
  std::vector<double> flow_;  // Flow on the arc to the parent.
  std::vector<double> pi_;    // u_i at node i, v_j at node S + j.
  // Pricing: S·T arcs in blocks of ⌈√(S·T)⌉; the next scan starts at arc
  // (cursor_row_, cursor_col_).
  const int64_t num_arcs_ = static_cast<int64_t>(S_) * T_;
  const int64_t block_ = static_cast<int64_t>(
      std::ceil(std::sqrt(static_cast<double>(num_arcs_))));
  int32_t cursor_row_ = 0;
  int32_t cursor_col_ = 0;
};

}  // namespace

TransportPlan SimplexSolver::Solve(const TransportProblem& problem) const {
  TransportPlan plan;
  if (problem.num_suppliers() == 0 || problem.num_consumers() == 0 ||
      problem.total_mass() <= 0.0) {
    return plan;
  }
  Simplex simplex(problem);
  if (simplex.Run(&plan)) return plan;
  // Pivot cap exceeded (possible only under degenerate cycling); the SSP
  // solver is slower but unconditionally exact.
  return SspSolver().Solve(problem);
}

}  // namespace snd
