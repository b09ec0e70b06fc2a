// Network simplex on the transportation graph (suppliers -> consumers,
// uncapacitated) with a northwest-corner initial basis. The default
// solver.
//
// The basis is a spanning tree of the S + T nodes rooted at supplier 0;
// every node keeps its parent, the flow on the arc to its parent, its
// depth, its potential and doubly linked child lists. A pivot costs one
// pricing scan (blocks of ⌈√(S·T)⌉ arcs read through
// TransportProblem::CostRow from a persistent (row, column) cursor, up to
// the end of the first block holding a violation; the most negative
// reduced cost seen enters), plus the cycle closed by the entering arc
// (found by climbing to the apex by depth; flows change only there), plus
// the subtree cut off by the leaving arc (re-hung under the entering arc;
// potentials and depths are recomputed only there, from the tree arcs, so
// they never drift). No pivot touches the rest of the tree or allocates.
//
// Degenerate pivots are permitted; an iteration cap guards against the
// (rare) possibility of cycling, falling back to the exact SSP solver if
// the cap is hit.
#ifndef SND_FLOW_SIMPLEX_SOLVER_H_
#define SND_FLOW_SIMPLEX_SOLVER_H_

#include "snd/flow/solver.h"

namespace snd {

class SimplexSolver final : public TransportSolver {
 public:
  TransportPlan Solve(const TransportProblem& problem) const override;
  const char* name() const override { return "simplex"; }
};

}  // namespace snd

#endif  // SND_FLOW_SIMPLEX_SOLVER_H_
