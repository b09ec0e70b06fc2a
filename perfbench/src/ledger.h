// Per-layer ledger helpers: `stats` snapshots as name -> value maps, their
// deltas across a measured phase, and the layer metrics derived from them.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>

#include "report.h"

namespace perfbench {

using StatsMap = std::map<std::string, int64_t>;

StatsMap StatsDelta(const StatsMap& before, const StatsMap& after);

// Adds the layer metrics that come straight from a `stats` delta
// (snd.phase.*.ns, snd.work.*, snd.sssp.*, snd.cache.*, snd.mutate.*,
// snd.net.*, snd.obs.*). A layer the phase did not exercise (no SSSP run,
// no transport solve, no frame on the wire, ...) adds nothing: the ledger
// holds only what was measured. `nodes` scales the SSSP pruning yield.
void AddStatsLayers(const StatsMap& delta, int32_t nodes, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
