// Bellman-Ford shortest paths. Quadratic and only used as an independent
// oracle for the Dijkstra/Dial implementations in tests.
#ifndef SND_PATHS_BELLMAN_FORD_H_
#define SND_PATHS_BELLMAN_FORD_H_

#include <span>
#include <vector>

#include "snd/graph/graph.h"
#include "snd/paths/sssp.h"

namespace snd {

// Semantics identical to a full SsspEngine search; costs must be
// non-negative (no negative-cycle handling is needed for the oracle role).
std::vector<int64_t> BellmanFord(const Graph& g,
                                 std::span<const int32_t> edge_costs,
                                 std::span<const SsspSource> sources);

}  // namespace snd

#endif  // SND_PATHS_BELLMAN_FORD_H_
