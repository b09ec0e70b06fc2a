#include "snd/cli/cli.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>

#include "snd/analysis/anomaly.h"
#include "snd/core/snd.h"
#include "snd/graph/io.h"
#include "snd/opinion/state_io.h"
#include "snd/service/options_parse.h"
#include "snd/util/stopwatch.h"
#include "snd/util/table.h"
#include "snd/util/thread_pool.h"
#include "snd/util/version.h"

namespace snd {
namespace {

// The flag block comes verbatim from the shared parser's help text
// (service/options_parse.h), so the usage can never document a
// vocabulary the parser does not accept.
const std::string& Usage() {
  static const std::string usage =
      std::string(
          "usage: snd_cli <command> <graph.edges> <states.txt> [...] "
          "[flags]\n"
          "commands:\n"
          "  distance <i> <j>   SND between states i and j\n"
          "  series             distances between adjacent states\n"
          "  anomalies          transitions ranked by anomaly score\n"
          "  version            print the library version (also --version)\n"
          "  help               print this message (also --help, -h)\n"
          "flags:\n") +
      kSndFlagUsage;
  return usage;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "snd_cli: %s\n%s", message.c_str(), Usage().c_str());
  return 1;
}

bool IsKnownCommand(const std::string& command) {
  return command == "distance" || command == "series" ||
         command == "anomalies";
}

std::vector<double> ScoredSeries(const SndCalculator& calc,
                                 const std::vector<NetworkState>& states,
                                 std::vector<double>* normalized) {
  return ScoreAdjacentDistances(calc.AdjacentDistanceSeries(states), states,
                                normalized);
}

}  // namespace

int SndCliMain(const std::vector<std::string>& args) {
  if (!args.empty() &&
      (args[0] == "--help" || args[0] == "-h" || args[0] == "help")) {
    std::printf("%s", Usage().c_str());
    return 0;
  }
  if (!args.empty() && (args[0] == "--version" || args[0] == "version")) {
    std::printf("snd_cli %s\n", VersionString());
    return 0;
  }
  if (args.empty()) return Fail("missing arguments");
  const std::string& command = args[0];
  if (!IsKnownCommand(command)) {
    return Fail("unknown command '" + command + "'");
  }
  if (args.size() < 3) return Fail("missing arguments");
  const std::string& graph_path = args[1];
  const std::string& states_path = args[2];

  size_t positional_end = 3;
  if (command == "distance") positional_end = 5;
  if (args.size() < positional_end) return Fail("missing arguments");
  const std::vector<std::string> flags(args.begin() +
                                           static_cast<long>(positional_end),
                                       args.end());
  const StatusOr<ParsedSndFlags> parsed = ParseSndFlags(flags);
  if (!parsed.ok()) return Fail(parsed.status().message());
  if (parsed->threads > 0) ThreadPool::SetGlobalThreads(parsed->threads);

  const std::optional<Graph> graph = ReadEdgeList(graph_path);
  if (!graph.has_value()) {
    return Fail("cannot read graph from " + graph_path);
  }
  const std::optional<std::vector<NetworkState>> states =
      ReadStateSeries(states_path);
  if (!states.has_value()) {
    return Fail("cannot read states from " + states_path);
  }
  for (const NetworkState& state : *states) {
    if (state.num_users() != graph->num_nodes()) {
      return Fail("state size does not match the graph");
    }
  }

  const SndCalculator calc(&graph.value(), parsed->options);
  if (command == "distance") {
    int index[2] = {-1, -1};
    for (int k = 0; k < 2; ++k) {
      const std::string& token = args[static_cast<size_t>(3 + k)];
      int consumed = 0;
      // %n rejects trailing garbage ("0x", "1abc") that bare %d would
      // silently truncate.
      if (std::sscanf(token.c_str(), "%d%n", &index[k], &consumed) != 1 ||
          consumed != static_cast<int>(token.size()) || index[k] < 0 ||
          index[k] >= static_cast<int>(states->size())) {
        return Fail("invalid state index '" + token + "'");
      }
    }
    const Stopwatch watch;
    const SndResult result =
        calc.Compute((*states)[static_cast<size_t>(index[0])],
                     (*states)[static_cast<size_t>(index[1])]);
    std::printf("SND(%d, %d) = %.6f  (n_delta=%d, %.3fs)\n", index[0],
                index[1], result.value, result.n_delta, watch.ElapsedSeconds());
    return 0;
  }

  if (states->size() < 2) return Fail("need at least two states");
  if (command == "series") {
    std::vector<double> normalized;
    const auto scores = ScoredSeries(calc, *states, &normalized);
    TablePrinter table({"transition", "scaled distance", "anomaly score"});
    for (size_t t = 0; t < normalized.size(); ++t) {
      table.AddRow({std::to_string(t) + "->" + std::to_string(t + 1),
                    TablePrinter::Fmt(normalized[t], 4),
                    TablePrinter::Fmt(scores[t], 4)});
    }
    table.Print();
    return 0;
  }
  if (command == "anomalies") {
    std::vector<double> normalized;
    const auto scores = ScoredSeries(calc, *states, &normalized);
    std::vector<size_t> order(scores.size());
    for (size_t t = 0; t < order.size(); ++t) order[t] = t;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
    });
    TablePrinter table({"rank", "transition", "anomaly score"});
    for (size_t r = 0; r < order.size(); ++r) {
      table.AddRow({TablePrinter::Fmt(static_cast<int64_t>(r + 1)),
                    std::to_string(order[r]) + "->" +
                        std::to_string(order[r] + 1),
                    TablePrinter::Fmt(scores[order[r]], 4)});
    }
    table.Print();
    return 0;
  }
  // Unreachable while IsKnownCommand stays in sync with the dispatch
  // above; kept so a half-added command fails loudly instead of running
  // the wrong branch.
  return Fail("unknown command '" + command + "'");
}

}  // namespace snd
