// batch_transport and batch_sssp: one in-process caller drives
// SndService::Dispatch in a closed loop. Each iteration appends a fresh
// window of W states to a session that retains exactly W (so the previous
// window is trimmed away) and asks for its `series`: W-1 cold SND values.
// Every value is then checked bitwise against a direct SndCalculator
// replay computed after the measured phase.
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "workloads.h"
#include "ledger.h"
#include "snd/api/requests.h"
#include "snd/api/responses.h"
#include "snd/core/snd.h"
#include "snd/graph/io.h"
#include "snd/service/service.h"

namespace perfbench {
namespace {

struct BatchConfig {
  GraphSpec graph;
  StreamSpec stream;
  int32_t window = 3;         // States per series request.
  // Set-ups per run, before and after the measured phase; setup_s is
  // their median. Split so it samples the host at two moments.
  int32_t setups_before = 11;
  int32_t setups_after = 10;
  int32_t traced_windows = 8;  // Fixed-size traced phase, so counts repeat.
  // The series requests' --threads (0 = the library's default pool).
  // batch_transport computes on one thread: on a shared 4-vCPU VM the
  // pool's wall and CPU time per series scattered by a third between runs,
  // one thread's by a few percent. batch_sssp keeps the pool, so its
  // ledger still shows how the pool scales.
  int32_t threads = 0;
};

BatchConfig ConfigFor(const Options& options) {
  BatchConfig cfg;
  if (options.workload == "batch_transport") cfg.threads = 1;
  if (options.tiny) {
    cfg.graph.nodes = 300;
    cfg.stream = {60, 20, 4, 0.7};
    cfg.traced_windows = 2;
    cfg.setups_before = 2;
    cfg.setups_after = 1;
    return cfg;
  }
  if (options.workload == "batch_transport") {
    // Dense activity on a small graph: hundreds of suppliers, consumers
    // and bank bins per term, so the transport solve dominates.
    cfg.graph.nodes = 2000;
    cfg.stream = {1000, 200, 25, 0.7};
    cfg.window = 3;
    cfg.traced_windows = 30;
  } else {
    // A large sparse graph with balanced opinion counts (no bank bins):
    // a hundred SSSPs per term over 2*10^4 nodes dominate.
    cfg.graph.nodes = 20000;
    cfg.stream = {300, 200, 0, 0.7};
    cfg.window = 3;
    cfg.traced_windows = 16;
  }
  return cfg;
}

StatsMap Snapshot(const snd::SndService& service) {
  StatsMap map;
  for (const auto& row : service.metrics().Snapshot()) map[row.name] = row.value;
  return map;
}

struct Window {
  std::vector<State> states;
  std::vector<double> values;  // From the service.
  int64_t series_ns = 0;       // The series request.
  int64_t loop_ns = 0;         // Appends plus series.
};

template <typename T>
snd::Request MakeRequest(T typed) {
  return snd::Request(std::move(typed));
}

}  // namespace

RunReport RunBatch(const Options& options) {
  const BatchConfig cfg = ConfigFor(options);
  RunReport report;
  const BenchGraph graph = MakeGraph(cfg.graph, GraphSeed(options.workload));
  StateStream stream(&graph, cfg.stream, SubSeed(options.seed, 2));
  const std::string graph_path = options.data_dir + "/graph.edges";
  const std::string states_path = options.data_dir + "/states.txt";
  std::vector<State> initial;
  for (int32_t k = 0; k < cfg.window; ++k) initial.push_back(stream.Next());
  if (!WriteGraph(graph, graph_path) || !WriteStates(initial, states_path)) {
    report.Info("error", "cannot write inputs under " + options.data_dir);
    report.Count(1, 1);
    return report;
  }

  SpanLog spans;
  snd::SndServiceConfig service_config;
  service_config.state_retention = cfg.window;
  std::vector<double> setup_s, load_ms, build_ms;
  int64_t setup_errors = 0;
  // One set-up: a fresh service, loaded, with its calculator built.
  auto set_up = [&] {
    const int64_t trace = spans.NextTrace();
    const int64_t t0 = NowNs();
    auto fresh = std::make_unique<snd::SndService>(service_config);
    const bool loaded =
        fresh->Dispatch(MakeRequest(snd::LoadGraphRequest{"g", graph_path}))
            .ok();
    const int64_t t1 = NowNs();
    const bool states_ok =
        fresh->Dispatch(MakeRequest(snd::LoadStatesRequest{"g", states_path}))
            .ok();
    const int64_t t2 = NowNs();
    snd::DistanceRequest warm;
    warm.name = "g";
    warm.threads = cfg.threads;
    const bool built = fresh->Dispatch(MakeRequest(warm)).ok();
    const int64_t t3 = NowNs();
    if (!loaded || !states_ok || !built) ++setup_errors;
    const int64_t root = spans.Add("setup", trace, 0, t0, t3);
    spans.Add("dispatch.load_graph", trace, root, t0, t1);
    spans.Add("dispatch.load_states", trace, root, t1, t2);
    spans.Add("dispatch.calc_build", trace, root, t2, t3);
    setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    load_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    build_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
    return fresh;
  };
  std::unique_ptr<snd::SndService> service;
  for (int32_t s = 0; s < cfg.setups_before; ++s) {
    service.reset();
    service = set_up();
  }

  // One closed-loop iteration: W appends, then the series request.
  int64_t dispatch_errors = 0;
  auto run_window = [&](const std::vector<State>& states, bool traced) {
    Window window;
    window.states = states;
    const int64_t trace = traced ? spans.NextTrace() : 0;
    const int64_t start = NowNs();
    std::vector<std::pair<int64_t, int64_t>> appends;
    for (const State& state : states) {
      const int64_t a = NowNs();
      if (!service->Dispatch(MakeRequest(snd::AppendStateRequest{"g", state}))
               .ok()) {
        ++dispatch_errors;
      }
      appends.emplace_back(a, NowNs());
    }
    snd::SeriesRequest series;
    series.name = "g";
    series.threads = cfg.threads;
    const int64_t s0 = NowNs();
    const snd::StatusOr<snd::Response> response =
        service->Dispatch(MakeRequest(series));
    const int64_t s1 = NowNs();
    window.series_ns = s1 - s0;
    window.loop_ns = s1 - start;
    if (response.ok()) {
      window.values = snd::ResponseValues(*response);
    } else {
      ++dispatch_errors;
    }
    if (traced) {
      const int64_t root = spans.Add("window", trace, 0, start, s1);
      for (const auto& [a, b] : appends) {
        spans.Add("dispatch.append_state", trace, root, a, b);
      }
      spans.Add("dispatch.series", trace, root, s0, s1);
    }
    return window;
  };
  auto next_window = [&] {
    std::vector<State> states;
    for (int32_t k = 0; k < cfg.window; ++k) states.push_back(stream.Next());
    return states;
  };

  // A warm-up of about a second (checked, not timed) lets the pool threads
  // and the caches settle first. Untraced: windows keep coming until the
  // measured time is spent. Traced: a fixed set of windows runs once
  // untraced and once traced (appended again, they are cold again), so the
  // traced counts repeat exactly and the tracing overhead compares
  // identical work.
  std::vector<Window> windows;  // Every distinct window, in order.
  const int64_t warm_end = NowNs() + (options.tiny ? 200000000 : 1000000000);
  while (NowNs() < warm_end) windows.push_back(run_window(next_window(), false));
  const size_t first_measured = windows.size();
  Samples untraced_series;
  std::vector<double> pair_rates;  // Per window: cold pairs per second.
  int64_t untraced_loop_ns = 0;
  const int64_t untraced_cpu0 = SelfCpuNs();
  const auto measured_windows =
      options.trace ? static_cast<size_t>(cfg.traced_windows) : SIZE_MAX;
  while (windows.size() - first_measured < measured_windows &&
         (options.trace ||
          static_cast<double>(untraced_loop_ns) / 1e9 < options.seconds)) {
    windows.push_back(run_window(next_window(), false));
    untraced_series.Add(windows.back().series_ns);
    untraced_loop_ns += windows.back().loop_ns;
    pair_rates.push_back((cfg.window - 1) * 1e9 /
                         static_cast<double>(windows.back().loop_ns));
  }
  const int64_t untraced_cpu_ns = SelfCpuNs() - untraced_cpu0;
  const auto pairs = static_cast<int64_t>(windows.size()) * (cfg.window - 1);

  StatsMap stats_delta;
  Samples traced_series;
  // Traced re-runs: (index of the window repeated, values it returned).
  std::vector<std::pair<size_t, std::vector<double>>> repeats;
  int64_t traced_wall_ns = 0, traced_cpu_ns = 0;
  if (options.trace) {
    const StatsMap before = Snapshot(*service);
    const int64_t wall0 = NowNs(), cpu0 = SelfCpuNs();
    for (size_t k = first_measured; k < windows.size(); ++k) {
      Window again = run_window(windows[k].states, true);
      traced_series.Add(again.series_ns);
      repeats.emplace_back(k, std::move(again.values));
    }
    traced_wall_ns = NowNs() - wall0;
    traced_cpu_ns = SelfCpuNs() - cpu0;
    stats_delta = StatsDelta(before, Snapshot(*service));
  }
  const double peak_rss = PeakRssMb(0);

  // In-process CallWire of warm reads of the resident window: the
  // service-only cost of a request, no network.
  Samples callwire;
  if (options.trace) {
    const int32_t last = static_cast<int32_t>(
        (windows.size() + repeats.size() + 1) * static_cast<size_t>(cfg.window) -
        1);
    const std::string line = "distance g " + std::to_string(last - 1) + " " +
                             std::to_string(last);
    for (int k = 0; k < 500; ++k) {
      const int64_t t0 = NowNs();
      const snd::SndService::WireReply reply =
          service->CallWire(line, snd::WireFormat::kText);
      const int64_t t1 = NowNs();
      if (reply.bytes.rfind("ok ", 0) != 0) ++dispatch_errors;
      callwire.Add(t1 - t0);
    }
  }
  service.reset();
  for (int32_t s = 0; s < cfg.setups_after; ++s) set_up();
  report.Count(cfg.setups_before + cfg.setups_after, setup_errors);

  // Correctness: a direct calculator replay of every window, outside the
  // measured phase.
  if (options.corrupt && !windows.front().values.empty()) {
    uint64_t bits = 0;
    std::memcpy(&bits, &windows.front().values[0], sizeof(bits));
    bits ^= 1;
    std::memcpy(&windows.front().values[0], &bits, sizeof(bits));
  }
  const std::optional<snd::Graph> replay_graph = snd::ReadEdgeList(graph_path);
  int64_t wrong = 0;
  Samples replay_traced;
  double suppliers = 0, consumers = 0, banks = 0;
  int terms = 0;
  if (!replay_graph.has_value()) {
    wrong = static_cast<int64_t>(windows.size());
  } else {
    const int64_t c0 = NowNs();
    const snd::SndCalculator calc(&*replay_graph, snd::SndOptions());
    spans.Add("core.calc_construct", spans.NextTrace(), 0, c0, NowNs());
    const snd::StatePairs adjacent = snd::AdjacentPairs(cfg.window);
    std::vector<std::vector<const std::vector<double>*>> answers(windows.size());
    for (size_t k = 0; k < windows.size(); ++k) answers[k].push_back(&windows[k].values);
    for (const auto& [k, values] : repeats) answers[k].push_back(&values);
    for (size_t k = 0; k < windows.size(); ++k) {
      const Window& w = windows[k];
      std::vector<snd::NetworkState> states;
      for (const State& s : w.states) {
        states.push_back(snd::NetworkState::FromValues(s));
      }
      const int64_t r0 = NowNs();
      const std::vector<double> expect = calc.BatchDistances(states, adjacent);
      const int64_t r1 = NowNs();
      if (options.trace && k >= first_measured) {
        replay_traced.Add(r1 - r0);
        spans.Add("core.batch_distances", spans.NextTrace(), 0, r0, r1);
        if (terms < 24) {
          const snd::SndResult result = calc.Compute(states[0], states[1]);
          for (const snd::SndTermResult& term : result.terms) {
            suppliers += term.num_suppliers;
            consumers += term.num_consumers;
            banks += term.num_banks;
            ++terms;
          }
        }
      }
      for (const std::vector<double>* got : answers[k]) {
        if (got->size() != expect.size() ||
            std::memcmp(got->data(), expect.data(),
                        expect.size() * sizeof(double)) != 0) {
          ++wrong;
        }
      }
    }
  }
  const int64_t ops = static_cast<int64_t>(windows.size() + repeats.size()) *
                      (cfg.window + 1);
  report.Count(ops, dispatch_errors + wrong);

  const double loop_s = static_cast<double>(untraced_loop_ns) / 1e9;
  const auto untraced_pairs =
      static_cast<int64_t>(untraced_series.size()) * (cfg.window - 1);
  if (!options.trace) {
    report.Put("setup_s", Median(setup_s), "s");
    report.Put("peak_rss_mb", peak_rss, "MB");
    report.Put("op_ms.p50", untraced_series.QuantileMs(0.5), "ms");
    report.Put("cpu_ms_per_op",
               static_cast<double>(untraced_cpu_ns) / 1e6 /
                   static_cast<double>(untraced_series.size()),
               "ms");
  } else {
    report.Put("graph.load_ms", Median(load_ms), "ms");
    report.Put("core.calc_build_ms", Median(build_ms), "ms");
    report.Put("core.compute_ms", replay_traced.MeanMs(), "ms");
    report.Put("service.overhead_ms",
               traced_series.MeanMs() - replay_traced.MeanMs(), "ms");
    AddStatsLayers(stats_delta, graph.nodes, &report);
    if (terms > 0) {
      report.Put("flow.transport.suppliers", suppliers / terms, "count");
      report.Put("flow.transport.consumers", consumers / terms, "count");
      report.Put("flow.transport.banks", banks / terms, "count");
    }
    report.Put("util.pool.cpu_util",
               static_cast<double>(traced_cpu_ns) /
                   (static_cast<double>(traced_wall_ns) *
                    options.host_processors),
               "ratio");
    report.Put("harness.wall_ms", static_cast<double>(traced_wall_ns) / 1e6,
               "ms");
    report.Put("service.callwire_us.p50", callwire.QuantileMs(0.5) * 1e3,
               "us");
    report.Put("trace.overhead_ratio",
               traced_series.QuantileMs(0.5) / untraced_series.QuantileMs(0.5),
               "ratio");
    spans.WriteJsonl(options.data_dir + "/spans.jsonl");
  }

  report.Detail("setup_s", Median(setup_s), "s");
  report.Detail("peak_rss_mb", peak_rss, "MB");
  report.Detail("fail_ratio",
                static_cast<double>(report.failed) /
                    static_cast<double>(report.attempted),
                "ratio");
  report.Detail("pairs_per_s", Median(pair_rates), "1/s");
  report.Detail("pairs_per_s.mean", static_cast<double>(untraced_pairs) / loop_s,
                "1/s");
  report.Detail("cpu_ms_per_pair",
                static_cast<double>(untraced_cpu_ns) / 1e6 /
                    static_cast<double>(untraced_pairs),
                "ms");
  report.Detail("series_ms.p50", untraced_series.QuantileMs(0.5), "ms");
  report.Detail("series_ms.p90", untraced_series.QuantileMs(0.9), "ms");
  report.Detail("series_ms.samples",
                static_cast<double>(untraced_series.size()), "count");
  report.Detail("pairs", static_cast<double>(pairs), "count");
  report.Detail("graph.nodes", graph.nodes, "count");
  report.Detail("graph.arcs", static_cast<double>(graph.NumArcs()), "count");
  report.Detail("stream.active", cfg.stream.active, "count");
  report.Detail("stream.n_delta", cfg.stream.n_delta, "count");
  report.Detail("stream.window", cfg.window, "count");
  report.Detail("series_threads", cfg.threads, "count");
  report.Detail("wrong_values", static_cast<double>(wrong), "count");
  return report;
}

}  // namespace perfbench
