// Figure 12: time computing SND as the number of users who changed
// opinion (n_delta) grows, with the network size fixed.
//
// Paper setup: n = 20k fixed, n_delta up to 10k; the reduced
// transportation problem grows with n_delta while the SSSP stage grows
// linearly in it, giving the figure's superlinear curve.
#include <cstdio>

#include "bench_common.h"
#include "snd/core/snd.h"
#include "snd/graph/generators.h"
#include "snd/obs/trace.h"
#include "snd/opinion/evolution.h"
#include "snd/util/stopwatch.h"
#include "snd/util/table.h"

int main() {
  using snd::bench::FullScale;
  snd::bench::PrintHeader(
      "Figure 12 - SND computation time vs n_delta",
      "Network size fixed; the number of changed users grows.");

  const int32_t num_nodes = FullScale() ? 20000 : 6000;
  const std::vector<int32_t> deltas =
      FullScale()
          ? std::vector<int32_t>{500, 1000, 2000, 4000, 6000, 8000, 10000}
          : std::vector<int32_t>{100, 200, 400, 800, 1200, 1600};

  snd::Rng rng(51);
  snd::ScaleFreeOptions graph_options;
  graph_options.num_nodes = num_nodes;
  graph_options.exponent = -2.5;
  graph_options.avg_degree = 10.0;
  const snd::Graph graph = snd::GenerateScaleFree(graph_options, &rng);
  std::printf("network: n=%d m=%lld\n\n", graph.num_nodes(),
              static_cast<long long>(graph.num_edges()));

  const snd::SndCalculator calculator(&graph, snd::SndOptions{});
  snd::SyntheticEvolution evolution(&graph, 52);
  const snd::NetworkState base = evolution.InitialState(num_nodes / 10);

  snd::TablePrinter table(
      {"n_delta", "total s", "sssp work s", "transport work s"});
  for (int32_t n_delta : deltas) {
    const snd::NetworkState next =
        snd::RandomTransition(base, n_delta, evolution.rng());
    // The phase split comes from the request trace the library reports
    // into, as the server's does. Phase times sum per-thread work (see
    // "Phase semantics" in obs/trace.h): the four terms run in parallel,
    // so the two columns can together exceed the wall-clock total.
    snd::obs::RequestTrace trace;
    snd::Stopwatch watch;
    {
      const snd::obs::TraceScope scope(&trace);
      calculator.Compute(base, next);
    }
    const double seconds = watch.ElapsedSeconds();
    const auto phase_seconds = [&](snd::obs::ObsPhase phase) {
      return 1e-9 * static_cast<double>(
                        trace.phase_ns[static_cast<int>(phase)].load());
    };
    const double sssp = phase_seconds(snd::obs::ObsPhase::kSssp);
    const double transport = phase_seconds(snd::obs::ObsPhase::kTransport);
    table.AddRow({snd::TablePrinter::Fmt(int64_t{n_delta}),
                  snd::TablePrinter::Fmt(seconds, 3),
                  snd::TablePrinter::Fmt(sssp, 3),
                  snd::TablePrinter::Fmt(transport, 3)});
    std::printf("n_delta=%-6d %.3fs (sssp work %.3f, transport work %.3f)\n",
                n_delta, seconds, sssp, transport);
  }
  std::printf("\n");
  table.Print();
  return 0;
}
