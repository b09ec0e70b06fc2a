// The per-layer ledger: the metrics built from `stats` snapshot deltas.
#include "ledger.h"

#include <string>

namespace perfbench {
namespace {

double Get(const StatsMap& stats, const std::string& name) {
  const auto it = stats.find(name);
  return it == stats.end() ? 0.0 : static_cast<double>(it->second);
}

}  // namespace

StatsMap StatsDelta(const StatsMap& before, const StatsMap& after) {
  StatsMap delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0 : it->second);
  }
  return delta;
}

void AddStatsLayers(const StatsMap& d, int32_t nodes, RunReport* report) {
  const double builds = Get(d, "snd.work.edge_cost_builds");
  const double patches = Get(d, "snd.work.edge_cost_patches");
  if (builds + patches > 0) {
    report->Put("opinion.edge_cost.builds", builds, "count");
    report->Put("opinion.edge_cost.patches", patches, "count");
    report->Put("opinion.edge_cost.ms", Get(d, "snd.phase.edge_cost.ns") / 1e6,
                "ms");
  }
  const double runs = Get(d, "snd.work.sssp_runs");
  if (runs > 0) {
    const double settled = Get(d, "snd.work.sssp_settled");
    report->Put("paths.sssp.runs", runs, "count");
    report->Put("paths.sssp.settled", settled, "count");
    report->Put("paths.sssp.ms", Get(d, "snd.phase.sssp.ns") / 1e6, "ms");
    report->Put("paths.sssp.settled_per_run", settled / runs, "count");
    report->Put("paths.sssp.settled_share",
                settled / runs / static_cast<double>(nodes), "ratio");
    for (const std::string backend : {"dijkstra", "dial", "delta"}) {
      report->Put("paths.sssp." + backend + ".runs",
                  Get(d, "snd.sssp." + backend + ".runs"), "count");
    }
  }
  const double solves = Get(d, "snd.work.transport_solves");
  if (solves > 0) {
    report->Put("flow.transport.solves", solves, "count");
    report->Put("flow.transport.ms", Get(d, "snd.phase.transport.ns") / 1e6,
                "ms");
  }
  report->Put("service.dispatch_ms", Get(d, "snd.phase.dispatch.ns") / 1e6,
              "ms");
  const double hits = Get(d, "snd.cache.result.hits");
  const double lookups = hits + Get(d, "snd.cache.result.misses");
  if (lookups > 0) {
    report->Put("service.result.hit_ratio", hits / lookups, "ratio");
  }
  const double calc_hits = Get(d, "snd.cache.calc.hits");
  const double calc_lookups = calc_hits + Get(d, "snd.cache.calc.builds");
  if (calc_lookups > 0) {
    report->Put("service.calc.hit_ratio", calc_hits / calc_lookups, "ratio");
  }
  const double retained = Get(d, "snd.mutate.results_retained");
  const double judged = retained + Get(d, "snd.mutate.results_erased");
  if (judged > 0) {
    report->Put("service.mutate.retained_ratio", retained / judged, "ratio");
  }
  // Typed in-process requests skip the codec: parse time 0 means no wire.
  const double requests = Get(d, "snd.req.ok") + Get(d, "snd.req.error");
  const double parse_ns = Get(d, "snd.phase.parse.ns");
  if (parse_ns > 0 && requests > 0) {
    report->Put("api.parse_us", parse_ns / 1e3 / requests, "us");
    report->Put("api.encode_us",
                Get(d, "snd.phase.encode.ns") / 1e3 / requests, "us");
  }
  if (Get(d, "snd.net.frames") > 0) {
    report->Put("net.frames", Get(d, "snd.net.frames"), "count");
    report->Put("net.read_bytes", Get(d, "snd.net.read.bytes"), "bytes");
    report->Put("net.write_bytes", Get(d, "snd.net.write.bytes"), "bytes");
    report->Put("net.shed",
                Get(d, "snd.net.conns.shed") + Get(d, "snd.net.inflight.shed") +
                    Get(d, "snd.net.backpressure.shed"),
                "count");
  }
  const double dropped = Get(d, "snd.obs.events.dropped");
  const double events = dropped + Get(d, "snd.obs.events.emitted");
  if (events > 0) {
    report->Put("obs.events.dropped_ratio", dropped / events, "ratio");
  }
}

}  // namespace perfbench
