// serve_read and serve_churn: a spawned `snd_serve --listen=0` driven over
// loopback TCP from this one process over at most host_processors
// connections. One generator thread drives every open-loop connection
// (serve_churn's closed-loop writer has its own). Open-loop requests are
// timed from the moment they were due, so a stall also charges the
// requests queued behind it.
//
// serve_read sends warm `distance`/`series` reads of pairs already in the
// result cache: at the reference rate, then at a ladder of higher rates,
// then closed-loop on every connection. Every reply must be byte-equal to
// what an in-process SndService::CallWire returns for the same line after
// the same set-up.
//
// serve_churn is an anomaly-monitoring stream. One writer connection, in a
// closed loop, appends each new state and asks for the SND of the new
// transition; every `appends_per_mutation` appends it also runs an
// add_edge/remove_edge followed by a `series` that re-warms the window.
// The other connections read already-scored pairs open-loop at a fixed
// rate. The writer's requests are replayed in order into an in-process
// SndService and every reply must match byte for byte; read replies are
// checked for status and grammar. The re-warm makes the server's result
// cache, and so each mutation's retained/erased counts, independent of how
// the readers interleave.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"
#include "ledger.h"
#include "snd/service/service.h"
#include "wire.h"

namespace perfbench {
namespace {

enum Kind { kRead = 0, kAppend, kScore, kMutate, kRewarm };

struct ServeConfig {
  GraphSpec graph;
  StreamSpec stream;
  int32_t states = 24;  // Loaded series (serve_read); retention (churn).
  // Set-ups per run, before and after the measured phase; setup_s is
  // their median. Split so it samples the host at two moments.
  int32_t setups_before = 5;
  int32_t setups_after = 4;
  double warm_up_s = 0.5;  // Same traffic, checked but not timed.
  // serve_read: shares of the measured time. The op (one read, closed
  // loop on one connection) and the reference rate alternate in
  // `stretches` pairs, each pair on fresh connections; the ladder's other
  // rungs follow, and the rest is the closed-loop capacity.
  double loop_share = 0.4;
  double reference_share = 0.25;
  double ladder_share = 0.2;
  int32_t stretches = 20;
  // Read rates (req/s); the first is the reference rate. 4000 req/s leaves
  // the server far from saturation even while other tenants slow the
  // host, so its p50 is the reply time, not queueing; at 1000-2000 req/s
  // idle-vCPU wake-ups inflate and scatter it.
  std::vector<double> ladder = {4000, 1000, 2000, 8000, 16000, 32000};
  double slo_p99_ms = 1.0;
  // serve_churn.
  int32_t appends_per_mutation = 20;
  double read_rate = 400;  // Open-loop reads per second, all readers.
};

ServeConfig ConfigFor(const Options& options) {
  ServeConfig cfg;
  cfg.graph.nodes = 2000;
  cfg.stream = {400, 100, 10, 0.7};
  cfg.states = 24;
  if (options.workload == "serve_churn") cfg.states = 16;
  if (options.tiny) {
    cfg.graph.nodes = 300;
    cfg.stream = {60, 20, 4, 0.7};
    cfg.states = 12;
    cfg.setups_before = 2;
    cfg.setups_after = 1;
    cfg.warm_up_s = 0.2;
    cfg.ladder = {500, 1000};
    cfg.stretches = 2;
    cfg.appends_per_mutation = 4;
    cfg.read_rate = 100;
  }
  return cfg;
}

StatsMap ParseStats(const std::string& reply) {
  StatsMap map;
  size_t pos = reply.find('\n');
  while (pos != std::string::npos && pos + 1 < reply.size()) {
    const size_t end = reply.find('\n', pos + 1);
    const std::string row = reply.substr(pos + 1, end - pos - 1);
    const size_t space = row.rfind(' ');
    if (space != std::string::npos) {
      map[row.substr(0, space)] = std::atoll(row.c_str() + space + 1);
    }
    pos = end;
  }
  return map;
}

// "ok distance g <s> <s+1> <value>\n" with a value strtod reads whole.
bool ReadReplyWellFormed(const std::string& reply, int32_t s) {
  const std::string prefix = "ok distance g " + std::to_string(s) + " " +
                             std::to_string(s + 1) + " ";
  if (reply.rfind(prefix, 0) != 0 || reply.back() != '\n') return false;
  const std::string number =
      reply.substr(prefix.size(), reply.size() - prefix.size() - 1);
  char* end = nullptr;
  std::strtod(number.c_str(), &end);
  return !number.empty() && end == number.c_str() + number.size();
}

// Open-loop schedules, one per connection, and when they started.
struct Phase {
  std::vector<std::vector<Request>> per_conn;
  int64_t start_ns = 0;
};

struct Latencies {
  Samples latency;  // Reply - due.
  Samples lag;      // Sent - due: how late the generator ran.
  int64_t sent = 0;
  int64_t missing = 0;  // No reply (timed out or connection lost).

  void Add(const Request& r, int64_t start_ns) {
    ++sent;
    if (r.sent_ns > 0) lag.Add(r.sent_ns - (start_ns + r.due_ns));
    if (r.done_ns == 0) {
      ++missing;
    } else {
      latency.Add(r.done_ns - (start_ns + r.due_ns));
    }
  }
  void Append(const Latencies& other) {
    latency.Append(other.latency);
    lag.Append(other.lag);
    sent += other.sent;
    missing += other.missing;
  }
};

// Backlog growth: the latency of the last tenth of a rung (in due order)
// runs far above that of the first tenth.
bool BacklogGrows(const Phase& phase) {
  std::vector<std::pair<int64_t, int64_t>> by_due;
  for (const auto& conn : phase.per_conn) {
    for (const Request& r : conn) {
      if (r.done_ns != 0) {
        by_due.emplace_back(r.due_ns, r.done_ns - phase.start_ns - r.due_ns);
      }
    }
  }
  if (by_due.size() < 20) return false;
  std::sort(by_due.begin(), by_due.end());
  const size_t tenth = by_due.size() / 10;
  Samples head, tail;
  for (size_t k = 0; k < tenth; ++k) {
    head.Add(by_due[k].second);
    tail.Add(by_due[by_due.size() - 1 - k].second);
  }
  return tail.QuantileMs(0.5) > 2 * head.QuantileMs(0.5) + 0.5;
}

// Runs the phase's schedules, schedule k on connection first_conn + k,
// from the calling thread.
void RunPhase(const std::vector<std::unique_ptr<Client>>& conns,
              size_t first_conn, double seconds, Phase* phase,
              const std::function<void(Request*, Rand*)>& fill, uint64_t seed) {
  std::vector<Client*> clients;
  for (size_t k = 0; k < phase->per_conn.size(); ++k) {
    clients.push_back(conns[first_conn + k].get());
  }
  Rand rand(seed);
  std::function<void(Request*)> fill_one;
  if (fill) fill_one = [&](Request* r) { fill(r, &rand); };
  phase->start_ns = NowNs() + 20000000;  // Set-up done before the first due.
  const int64_t deadline =
      phase->start_ns + static_cast<int64_t>((seconds + 20.0) * 1e9);
  RunOpenLoop(clients, &phase->per_conn, phase->start_ns, deadline, fill_one);
}

// One server and its connections. Connection 0 also carries set-up,
// serve_churn's writes, the `stats` snapshots and the single-connection
// probe (never while an open-loop phase uses it).
struct Server {
  std::unique_ptr<ServerProcess> process;
  std::vector<std::unique_ptr<Client>> conns;
  Client* ctl() { return conns.front().get(); }
  int64_t CpuNs() const { return ProcCpuNs(process->pid()); }
};

// serve_churn's per-server stream: the states still to append, the arc
// churn, the in-process replay of the write connection, and how far the
// writer has got (read by the reader threads).
struct ChurnState {
  ChurnState(const BenchGraph* graph, const StreamSpec& spec, uint64_t seed,
             int32_t initial, const snd::SndServiceConfig& config)
      : stream(graph, spec, SubSeed(seed, 2)),
        edges(*graph, SubSeed(seed, 3)),
        replay(config) {
    for (int32_t k = 0; k < initial; ++k) stream.Next();
  }
  StateStream stream;
  EdgeChurn edges;
  snd::SndService replay;
  int64_t appended = 0;            // Writer thread only.
  std::atomic<int64_t> scored{0};  // Appends whose score has arrived.
};

// What one churn stretch measured.
struct ChurnResult {
  Samples score;   // append sent -> the new transition's value arrived.
  Samples mutate;  // add_edge/remove_edge roundtrip.
  Latencies reads;
  int64_t server_cpu_ns = 0;
  double seconds = 0;
};

class ServeRun {
 public:
  explicit ServeRun(const Options& options)
      : options_(options),
        cfg_(ConfigFor(options)),
        churn_(options.workload == "serve_churn"),
        graph_(MakeGraph(cfg_.graph, GraphSeed(options.workload))),
        readers_(std::max(2, std::min(4, options.host_processors))) {}

  RunReport Run();

 private:
  std::vector<std::string> ServerFlags(bool traced) const;
  std::vector<std::string> SetupLines() const {
    return {"load_graph g " + graph_path_, "load_states g " + states_path_,
            "series g"};
  }
  snd::SndServiceConfig LocalConfig() const {
    snd::SndServiceConfig config;
    if (churn_) config.state_retention = cfg_.states;
    return config;
  }
  bool PrepareInputs();
  // Starts a server, connects, loads and warms it; seconds, or < 0.
  double SetUp(bool traced, Server* server);
  bool Connect(Server* server);
  std::unique_ptr<ChurnState> NewChurnState() const;

  // Each checks its replies and adds to the run's counts.
  Latencies ReadRung(Server* server, double rate, double seconds, bool* slo_ok);
  double ReadCapacity(Server* server, double seconds);
  ChurnResult Churn(Server* server, ChurnState* state, double seconds);
  int64_t CheckWrites(ChurnState* state, const std::vector<Request>& writes);

  // Closed-loop reads on one connection: each sent when the previous
  // reply is in, timed send to reply.
  Samples ReadLoop(Client* client, double seconds);
  // The untraced measurement; returns the op's median latency in ms.
  double MeasureRead(Server* server, double seconds, bool full);
  double MeasureChurn(Server* server, ChurnState* state, double seconds,
                      bool full);
  // The per-layer ledger from a fresh server started with --log-events.
  bool TracedRun(double seconds, double untraced_op_p50);
  void AddSpans(const Phase& phase);

  const Options& options_;
  const ServeConfig cfg_;
  const bool churn_;
  const BenchGraph graph_;
  const int readers_;
  std::string graph_path_, states_path_;
  std::vector<std::string> read_lines_;          // serve_read's reads.
  std::map<std::string, std::string> expected_;  // Their exact replies.
  double load_ms_ = 0, calc_build_ms_ = 0;
  double cpu_ms_per_op_ = 0;
  int64_t attempted_ = 0, wrong_ = 0, missing_ = 0;
  uint64_t phases_ = 0;  // Seeds each phase's request choices.
  RunReport report_;
  SpanLog spans_;
};

std::vector<std::string> ServeRun::ServerFlags(bool traced) const {
  std::vector<std::string> flags = {"--listen=0"};
  if (churn_) flags.push_back("--retain=" + std::to_string(cfg_.states));
  if (traced) {
    flags.push_back("--log-events=" + options_.data_dir + "/events.jsonl");
  }
  return flags;
}

bool ServeRun::PrepareInputs() {
  graph_path_ = options_.data_dir + "/graph.edges";
  states_path_ = options_.data_dir + "/states.txt";
  StateStream stream(&graph_, cfg_.stream, SubSeed(options_.seed, 2));
  std::vector<State> initial;
  for (int32_t k = 0; k < cfg_.states; ++k) initial.push_back(stream.Next());
  if (!WriteGraph(graph_, graph_path_) || !WriteStates(initial, states_path_)) {
    report_.Info("error", "cannot write inputs under " + options_.data_dir);
    return false;
  }
  // The in-process reference: the same set-up through CallWire. It times
  // the graph load and the calculator build for the ledger and gives
  // serve_read its expected replies.
  snd::SndService local(LocalConfig());
  const int64_t t0 = NowNs();
  local.CallWire(SetupLines()[0], snd::WireFormat::kText);
  const int64_t t1 = NowNs();
  local.CallWire(SetupLines()[1], snd::WireFormat::kText);
  const int64_t t2 = NowNs();
  local.CallWire("distance g 0 0", snd::WireFormat::kText);
  const int64_t t3 = NowNs();
  load_ms_ = static_cast<double>(t1 - t0) / 1e6;
  calc_build_ms_ = static_cast<double>(t3 - t2) / 1e6;
  local.CallWire(SetupLines()[2], snd::WireFormat::kText);
  for (int32_t i = 0; i + 1 < cfg_.states; ++i) {
    // Both orientations share one cache entry.
    read_lines_.push_back("distance g " + std::to_string(i) + " " +
                          std::to_string(i + 1));
    read_lines_.push_back("distance g " + std::to_string(i + 1) + " " +
                          std::to_string(i));
  }
  // One read in eight is the whole series.
  const size_t distances = read_lines_.size();
  for (size_t k = 0; k < distances / 7; ++k) read_lines_.push_back("series g");
  for (const std::string& line : read_lines_) {
    expected_[line] = local.CallWire(line, snd::WireFormat::kText).bytes;
  }
  return true;
}

double ServeRun::SetUp(bool traced, Server* server) {
  server->conns.clear();
  server->process.reset();
  const int64_t trace = spans_.NextTrace();
  const int64_t t0 = NowNs();
  std::string error;
  server->process = ServerProcess::Start(options_.serve_bin, ServerFlags(traced),
                                         options_.data_dir + "/server.log", &error);
  if (server->process == nullptr) {
    report_.Info("error", error);
    return -1;
  }
  if (!Connect(server)) return -1;
  const int64_t connected = NowNs();
  std::vector<std::pair<int64_t, int64_t>> calls;
  for (const std::string& line : SetupLines()) {
    const int64_t c0 = NowNs();
    if (server->ctl()->Call(line).rfind("ok ", 0) != 0) {
      report_.Info("error", "set-up request failed: " + line);
      return -1;
    }
    calls.emplace_back(c0, NowNs());
  }
  const int64_t t1 = NowNs();
  const int64_t root = spans_.Add("setup", trace, 0, t0, t1);
  spans_.Add("server.start", trace, root, t0, connected);
  const char* names[] = {"tcp.load_graph", "tcp.load_states", "tcp.series_warm"};
  for (size_t k = 0; k < calls.size(); ++k) {
    spans_.Add(names[k], trace, root, calls[k].first, calls[k].second);
  }
  return static_cast<double>(t1 - t0) / 1e9;
}

bool ServeRun::Connect(Server* server) {
  server->conns.clear();
  for (int c = 0; c < readers_; ++c) {
    server->conns.push_back(std::make_unique<Client>());
    if (!server->conns.back()->Connect(server->process->port())) {
      report_.Info("error", "cannot connect to the server");
      return false;
    }
  }
  return true;
}

std::unique_ptr<ChurnState> ServeRun::NewChurnState() const {
  auto state = std::make_unique<ChurnState>(&graph_, cfg_.stream, options_.seed,
                                            cfg_.states, LocalConfig());
  for (const std::string& line : SetupLines()) {
    state->replay.CallWire(line, snd::WireFormat::kText);
  }
  return state;
}

void ServeRun::AddSpans(const Phase& phase) {
  for (const auto& conn : phase.per_conn) {
    for (const Request& r : conn) {
      if (r.done_ns == 0) continue;
      const int64_t trace = spans_.NextTrace();
      const int64_t due = phase.start_ns + r.due_ns;
      const int64_t root = spans_.Add("tcp.read", trace, 0, due, r.done_ns);
      if (r.sent_ns > due) {
        spans_.Add("harness.send_lag", trace, root, due, r.sent_ns);
      }
    }
  }
}

Latencies ServeRun::ReadRung(Server* server, double rate, double seconds,
                             bool* slo_ok) {
  Phase phase;
  phase.per_conn.resize(static_cast<size_t>(readers_));
  Rand rand(SubSeed(options_.seed, 1000 + phases_++));
  const auto total = static_cast<int64_t>(rate * seconds);
  for (int64_t k = 0; k < total; ++k) {
    Request r;
    r.due_ns = static_cast<int64_t>(static_cast<double>(k) * 1e9 / rate);
    r.line = read_lines_[rand.Below(read_lines_.size())];
    phase.per_conn[static_cast<size_t>(k % readers_)].push_back(std::move(r));
  }
  RunPhase(server->conns, 0, seconds, &phase, nullptr, 0);
  if (options_.trace) AddSpans(phase);
  Latencies lat;
  int64_t wrong = 0;
  for (auto& conn : phase.per_conn) {
    for (Request& r : conn) {
      lat.Add(r, phase.start_ns);
      if (options_.corrupt && wrong_ + wrong == 0 && !r.reply.empty()) {
        r.reply[r.reply.size() / 2] ^= 1;  // Checker self-test.
      }
      if (r.done_ns != 0 && r.reply != expected_[r.line]) ++wrong;
    }
  }
  attempted_ += lat.sent;
  missing_ += lat.missing;
  wrong_ += wrong;
  *slo_ok = lat.missing == 0 && wrong == 0 && !BacklogGrows(phase) &&
            lat.latency.QuantileMs(0.99) <= cfg_.slo_p99_ms;
  return lat;
}

double ServeRun::ReadCapacity(Server* server, double seconds) {
  std::vector<int64_t> done(static_cast<size_t>(readers_), 0);
  std::vector<int64_t> bad(static_cast<size_t>(readers_), 0);
  const uint64_t seed = SubSeed(options_.seed, 1000 + phases_++);
  const int64_t start = NowNs();
  const auto end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < readers_; ++c) {
    threads.emplace_back([&, c] {
      const auto k = static_cast<size_t>(c);
      Rand rand(SubSeed(seed, k));
      while (NowNs() < end) {
        const std::string& line = read_lines_[rand.Below(read_lines_.size())];
        if (server->conns[k]->Call(line) != expected_.at(line)) ++bad[k];
        ++done[k];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
  int64_t total = 0;
  for (size_t k = 0; k < done.size(); ++k) {
    total += done[k];
    wrong_ += bad[k];
  }
  attempted_ += total;
  return static_cast<double>(total) / elapsed;
}

ChurnResult ServeRun::Churn(Server* server, ChurnState* state, double seconds) {
  ChurnResult result;
  const int32_t retain = cfg_.states;
  // Readers: open loop at a fixed rate; each read picks, when it is sent,
  // one of the six newest scored transitions, which the window only trims
  // after nine more appends.
  Phase reads;
  reads.per_conn.resize(static_cast<size_t>(readers_ - 1));
  const auto total = static_cast<int64_t>(cfg_.read_rate * seconds);
  for (int64_t k = 0; k < total; ++k) {
    Request r;
    r.due_ns =
        static_cast<int64_t>(static_cast<double>(k) * 1e9 / cfg_.read_rate);
    reads.per_conn[static_cast<size_t>(k % (readers_ - 1))].push_back(
        std::move(r));
  }
  const auto fill = [state, retain](Request* r, Rand* rand) {
    const int64_t newest = state->scored.load() + retain - 2;
    r->arg = static_cast<int32_t>(newest - static_cast<int64_t>(rand->Below(6)));
    r->line = "distance g " + std::to_string(r->arg) + " " +
              std::to_string(r->arg + 1);
  };
  const uint64_t seed = SubSeed(options_.seed, 1000 + phases_++);
  std::thread readers(
      [&] { RunPhase(server->conns, 1, seconds, &reads, fill, seed); });

  // The writer: a closed loop on connection 0.
  std::vector<Request> writes;
  auto call = [&](std::string line, int kind) -> const Request& {
    Request r;
    r.line = std::move(line);
    r.kind = kind;
    r.sent_ns = NowNs();
    r.reply = server->ctl()->Call(r.line);
    r.done_ns = r.reply.empty() ? 0 : NowNs();
    writes.push_back(std::move(r));
    return writes.back();
  };
  const int64_t cpu0 = server->CpuNs();
  const int64_t start = NowNs();
  const auto end = start + static_cast<int64_t>(seconds * 1e9);
  for (int64_t appends = 0; NowNs() < end; ++appends) {
    if (appends > 0 && appends % cfg_.appends_per_mutation == 0) {
      const EdgeChurn::Op op = state->edges.Next();
      const Request& m =
          call(std::string(op.add ? "add_edge g " : "remove_edge g ") +
                   std::to_string(op.u) + " " + std::to_string(op.v),
               kMutate);
      if (m.done_ns != 0) result.mutate.Add(m.done_ns - m.sent_ns);
      call("series g", kRewarm);
    }
    // The new state gets global index appended + retain; its transition
    // is (that - 1, that).
    const auto t = static_cast<int32_t>(state->appended + retain - 1);
    const int64_t sent = NowNs();
    call("append_state g " + StateTokens(state->stream.Next()), kAppend);
    const Request& score =
        call("distance g " + std::to_string(t) + " " + std::to_string(t + 1),
             kScore);
    if (score.done_ns != 0) result.score.Add(score.done_ns - sent);
    state->scored.store(++state->appended);
  }
  result.seconds = static_cast<double>(NowNs() - start) / 1e9;
  result.server_cpu_ns = server->CpuNs() - cpu0;
  readers.join();

  for (const Request& r : writes) {
    ++attempted_;
    if (r.done_ns == 0) ++missing_;
  }
  wrong_ += CheckWrites(state, writes);
  for (const auto& conn : reads.per_conn) {
    for (const Request& r : conn) {
      result.reads.Add(r, reads.start_ns);
      ++attempted_;
      if (r.done_ns == 0) {
        ++missing_;
      } else if (!ReadReplyWellFormed(r.reply, r.arg)) {
        ++wrong_;
      }
    }
  }
  if (options_.trace) {
    AddSpans(reads);
    static const char* const kNames[] = {"tcp.read", "tcp.append_state",
                                         "tcp.score", "tcp.mutate",
                                         "tcp.series_rewarm"};
    for (const Request& r : writes) {
      if (r.done_ns == 0) continue;
      spans_.Add(kNames[r.kind], spans_.NextTrace(), 0, r.sent_ns, r.done_ns);
    }
  }
  return result;
}

int64_t ServeRun::CheckWrites(ChurnState* state,
                              const std::vector<Request>& writes) {
  int64_t wrong = 0;
  for (size_t k = 0; k < writes.size(); ++k) {
    std::string got = writes[k].reply;
    if (options_.corrupt && wrong_ + wrong == 0 && got.size() > 2) {
      got[got.size() - 2] ^= 1;  // Checker self-test.
    }
    const std::string expect =
        state->replay.CallWire(writes[k].line, snd::WireFormat::kText).bytes;
    if (writes[k].done_ns != 0 && got != expect) ++wrong;
  }
  return wrong;
}

Samples ServeRun::ReadLoop(Client* client, double seconds) {
  Samples rtt;
  Rand rand(SubSeed(options_.seed, 1000 + phases_++));
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < end) {
    const std::string& line = read_lines_[rand.Below(read_lines_.size())];
    const int64_t t0 = NowNs();
    const std::string reply = client->CallBusy(line);
    const int64_t t1 = NowNs();
    ++attempted_;
    if (reply.empty()) {
      ++missing_;
      break;
    }
    if (reply != expected_.at(line)) ++wrong_;
    rtt.Add(t1 - t0);
    if (options_.trace) spans_.Add("tcp.c1", spans_.NextTrace(), 0, t0, t1);
  }
  return rtt;
}

double ServeRun::MeasureRead(Server* server, double seconds, bool full) {
  bool ok = false;
  ReadRung(server, cfg_.ladder[0], cfg_.warm_up_s, &ok);
  ReadLoop(server->ctl(), cfg_.warm_up_s);
  // The op and the reference rate alternate in stretches spread over the
  // run, each pair on fresh connections. The op's latency and server CPU
  // time are medians over the stretches, so a stretch the host slowed
  // down does not decide the run. Untraced, the pairs get their share of
  // the run; as the traced run's baseline, all of it.
  const double both = cfg_.loop_share + cfg_.reference_share;
  const double per_pair = (full ? seconds * both : seconds) / cfg_.stretches;
  const double loop_seconds = per_pair * cfg_.loop_share / both;
  const double reference_seconds = per_pair - loop_seconds;
  Samples loop;
  Latencies reference;
  std::vector<double> loop_p50s, loop_cpus, reference_p50s;
  int64_t reference_cpu_ns = 0;
  bool reference_ok = true;
  for (int32_t k = 0; k < cfg_.stretches; ++k) {
    if (k > 0 && !Connect(server)) {
      ++missing_;  // The run is incorrect; the rest of it cannot be measured.
      return Median(loop_p50s);
    }
    const int64_t cpu0 = server->CpuNs();
    const Samples rtt = ReadLoop(server->ctl(), loop_seconds);
    const int64_t cpu1 = server->CpuNs();
    const Latencies stretch =
        ReadRung(server, cfg_.ladder[0], reference_seconds, &ok);
    loop_cpus.push_back(static_cast<double>(cpu1 - cpu0) / 1e6 /
                        static_cast<double>(std::max<size_t>(1, rtt.size())));
    reference_cpu_ns += server->CpuNs() - cpu1;
    reference_ok = reference_ok && ok;
    loop_p50s.push_back(rtt.QuantileMs(0.5));
    loop.Append(rtt);
    reference_p50s.push_back(stretch.latency.QuantileMs(0.5));
    reference.Append(stretch);
  }
  ok = reference_ok;
  const double op_p50 = Median(loop_p50s);
  cpu_ms_per_op_ = Median(loop_cpus);
  report_.Detail("c1_read_ms.p50", op_p50, "ms");
  report_.Detail("c1_read_ms.p50.pooled", loop.QuantileMs(0.5), "ms");
  report_.Detail("c1_read_ms.p99", loop.QuantileMs(0.99), "ms");
  report_.Detail("c1_read_ms.samples", static_cast<double>(loop.size()),
                 "count");
  report_.Detail("server_cpu_ms_per_c1_read", cpu_ms_per_op_, "ms");
  report_.Detail("read_ms.p50", Median(reference_p50s), "ms");
  report_.Detail("read_ms.p50.pooled", reference.latency.QuantileMs(0.5), "ms");
  report_.Detail("read_ms.p90", reference.latency.QuantileMs(0.9), "ms");
  report_.Detail("read_ms.p99", reference.latency.QuantileMs(0.99), "ms");
  report_.Detail("read_ms.samples",
                 static_cast<double>(reference.latency.size()), "count");
  report_.Detail("reference_rate", cfg_.ladder[0], "req/s");
  report_.Detail("server_cpu_ms_per_read",
                 static_cast<double>(reference_cpu_ns) / 1e6 /
                     static_cast<double>(std::max<int64_t>(1, reference.sent)),
                 "ms");
  report_.Detail("harness.send_lag_ms.p99", reference.lag.QuantileMs(0.99),
                 "ms");
  if (!full) return op_p50;
  double rate_at_slo = ok ? cfg_.ladder[0] : 0;
  const double rung_seconds = seconds * cfg_.ladder_share /
                              static_cast<double>(cfg_.ladder.size() - 1);
  for (size_t k = 1; k < cfg_.ladder.size(); ++k) {
    const Latencies rung = ReadRung(server, cfg_.ladder[k], rung_seconds, &ok);
    const std::string tag =
        "rung." + std::to_string(static_cast<int>(cfg_.ladder[k]));
    report_.Detail(tag + ".read_ms.p50", rung.latency.QuantileMs(0.5), "ms");
    report_.Detail(tag + ".read_ms.p99", rung.latency.QuantileMs(0.99), "ms");
    report_.Detail(tag + ".slo_met", ok ? 1 : 0, "bool");
    if (ok) rate_at_slo = std::max(rate_at_slo, cfg_.ladder[k]);
  }
  report_.Detail("read_rate_at_slo", rate_at_slo, "req/s");
  const double capacity_seconds =
      seconds *
      (1 - cfg_.loop_share - cfg_.reference_share - cfg_.ladder_share);
  report_.Detail("read_capacity_per_s", ReadCapacity(server, capacity_seconds),
                 "req/s");
  return op_p50;
}

double ServeRun::MeasureChurn(Server* server, ChurnState* state,
                              double seconds, bool full) {
  Churn(server, state, cfg_.warm_up_s);
  const ChurnResult r = Churn(server, state, seconds);
  cpu_ms_per_op_ = static_cast<double>(r.server_cpu_ns) / 1e6 /
                   static_cast<double>(std::max<size_t>(1, r.score.size()));
  if (full) {
    report_.Detail("score_ms.p50", r.score.QuantileMs(0.5), "ms");
    report_.Detail("score_ms.p90", r.score.QuantileMs(0.9), "ms");
    report_.Detail("score_ms.samples", static_cast<double>(r.score.size()),
                   "count");
    report_.Detail("scores_per_s",
                   static_cast<double>(r.score.size()) / r.seconds, "1/s");
    report_.Detail("mutate_ms.p50", r.mutate.QuantileMs(0.5), "ms");
    report_.Detail("mutate_ms.p90", r.mutate.QuantileMs(0.9), "ms");
    report_.Detail("mutate_ms.samples", static_cast<double>(r.mutate.size()),
                   "count");
    report_.Detail("read_ms.p50", r.reads.latency.QuantileMs(0.5), "ms");
    report_.Detail("read_ms.p99", r.reads.latency.QuantileMs(0.99), "ms");
    report_.Detail("read_ms.samples",
                   static_cast<double>(r.reads.latency.size()), "count");
    report_.Detail("read_rate", cfg_.read_rate, "req/s");
    report_.Detail("server_cpu_ms_per_score", cpu_ms_per_op_, "ms");
    report_.Detail("harness.send_lag_ms.p99", r.reads.lag.QuantileMs(0.99),
                   "ms");
  }
  return r.score.QuantileMs(0.5);
}

bool ServeRun::TracedRun(double seconds, double untraced_op_p50) {
  Server traced;
  if (SetUp(true, &traced) < 0) return false;
  std::unique_ptr<ChurnState> state;
  bool ok = false;
  if (churn_) {
    state = NewChurnState();
    Churn(&traced, state.get(), cfg_.warm_up_s);
  } else {
    ReadRung(&traced, cfg_.ladder[0], cfg_.warm_up_s, &ok);
    ReadLoop(traced.ctl(), cfg_.warm_up_s);
  }
  const StatsMap before = ParseStats(traced.ctl()->Call("stats"));
  const int64_t cpu0 = traced.CpuNs();
  const int64_t wall0 = NowNs();
  Samples op;
  Latencies reads;
  if (churn_) {
    ChurnResult r = Churn(&traced, state.get(), seconds);
    op = r.score;
    reads = r.reads;
  } else {
    reads = ReadRung(&traced, cfg_.ladder[0], seconds / 2, &ok);
    op = ReadLoop(traced.ctl(), seconds / 2);
  }
  const int64_t wall_ns = NowNs() - wall0;
  const int64_t cpu_ns = traced.CpuNs() - cpu0;
  AddStatsLayers(StatsDelta(before, ParseStats(traced.ctl()->Call("stats"))),
                 graph_.nodes, &report_);
  report_.Put("graph.load_ms", load_ms_, "ms");
  report_.Put("core.calc_build_ms", calc_build_ms_, "ms");
  report_.Put("util.pool.cpu_util",
              static_cast<double>(cpu_ns) /
                  (static_cast<double>(wall_ns) * options_.host_processors),
              "ratio");
  report_.Put("harness.wall_ms", static_cast<double>(wall_ns) / 1e6, "ms");
  report_.Put("harness.send_lag_ms.p99", reads.lag.QuantileMs(0.99), "ms");
  report_.Put("trace.overhead_ratio", op.QuantileMs(0.5) / untraced_op_p50,
              "ratio");

  // The service alone (in-process CallWire) against one closed-loop TCP
  // connection, on the same warm read.
  std::unique_ptr<snd::SndService> local;
  snd::SndService* wire_ref = nullptr;
  std::string line = read_lines_[0];
  if (churn_) {
    const int64_t t = state->appended + cfg_.states - 3;
    line = "distance g " + std::to_string(t) + " " + std::to_string(t + 1);
    wire_ref = &state->replay;
  } else {
    local = std::make_unique<snd::SndService>(LocalConfig());
    for (const std::string& setup : SetupLines()) {
      local->CallWire(setup, snd::WireFormat::kText);
    }
    wire_ref = local.get();
  }
  const std::string expect =
      wire_ref->CallWire(line, snd::WireFormat::kText).bytes;
  Samples callwire, c1;
  const int64_t cw0 = NowNs();
  while (NowNs() - cw0 < 300000000) {
    const int64_t t0 = NowNs();
    if (wire_ref->CallWire(line, snd::WireFormat::kText).bytes != expect) {
      ++wrong_;
    }
    const int64_t t1 = NowNs();
    callwire.Add(t1 - t0);
    spans_.Add("callwire", spans_.NextTrace(), 0, t0, t1);
  }
  const double callwire_rate = static_cast<double>(callwire.size()) /
                               (static_cast<double>(NowNs() - cw0) / 1e9);
  const int64_t c10 = NowNs();
  while (NowNs() - c10 < 300000000) {
    const int64_t t0 = NowNs();
    if (traced.ctl()->CallBusy(line) != expect) ++wrong_;
    const int64_t t1 = NowNs();
    c1.Add(t1 - t0);
    spans_.Add("tcp.c1", spans_.NextTrace(), 0, t0, t1);
  }
  const double c1_rate = static_cast<double>(c1.size()) /
                         (static_cast<double>(NowNs() - c10) / 1e9);
  attempted_ += static_cast<int64_t>(callwire.size() + c1.size());
  report_.Put("service.callwire_us.p50", callwire.QuantileMs(0.5) * 1e3, "us");
  report_.Put("net.overhead_us.p50",
              (reads.latency.QuantileMs(0.5) - callwire.QuantileMs(0.5)) * 1e3,
              "us");
  report_.Put("net.overhead_ratio", c1_rate / callwire_rate, "ratio");
  report_.Detail("tcp_c1_us.p50", c1.QuantileMs(0.5) * 1e3, "us");
  spans_.WriteJsonl(options_.data_dir + "/spans.jsonl");
  int64_t events = 0;
  std::ifstream log(options_.data_dir + "/events.jsonl");
  for (std::string event; std::getline(log, event);) ++events;
  report_.Detail("obs.events.logged", static_cast<double>(events), "count");
  return true;
}

RunReport ServeRun::Run() {
  if (!PrepareInputs()) {
    report_.Count(1, 1);
    return report_;
  }
  Server server;
  std::vector<double> setups;
  for (int32_t s = 0; s < cfg_.setups_before; ++s) {
    setups.push_back(SetUp(false, &server));
    if (setups.back() < 0) {
      report_.Count(1, 1);
      return report_;
    }
  }

  // A traced run measures the untraced shape briefly (the baseline of
  // trace.overhead_ratio), then the traced one on a fresh server.
  const bool full = !options_.trace;
  const double seconds = full ? options_.seconds : options_.seconds / 3;
  std::unique_ptr<ChurnState> state;
  if (churn_) state = NewChurnState();
  const double op_p50 = churn_
                           ? MeasureChurn(&server, state.get(), seconds, full)
                           : MeasureRead(&server, seconds, full);
  const double peak_rss = PeakRssMb(server.process->pid());
  for (int32_t s = 0; s < cfg_.setups_after; ++s) {
    setups.push_back(SetUp(false, &server));
    if (setups.back() < 0) {
      report_.Count(1, 1);
      return report_;
    }
  }
  attempted_ += cfg_.setups_before + cfg_.setups_after;
  server = Server();
  if (full) {
    report_.Put("setup_s", Median(setups), "s");
    report_.Put("peak_rss_mb", peak_rss, "MB");
    report_.Put("op_ms.p50", op_p50, "ms");
    report_.Put("cpu_ms_per_op", cpu_ms_per_op_, "ms");
  } else if (!TracedRun(seconds, op_p50)) {
    report_.Count(1, 1);
    return report_;
  }
  report_.Count(attempted_, wrong_ + missing_);
  report_.Detail("setup_s", Median(setups), "s");
  report_.Detail("peak_rss_mb", peak_rss, "MB");
  report_.Detail("fail_ratio",
                 static_cast<double>(report_.failed) /
                     static_cast<double>(std::max<int64_t>(1, report_.attempted)),
                 "ratio");
  report_.Detail("wrong_replies", static_cast<double>(wrong_), "count");
  report_.Detail("missing_replies", static_cast<double>(missing_), "count");
  report_.Detail("graph.nodes", graph_.nodes, "count");
  report_.Detail("graph.arcs", static_cast<double>(graph_.NumArcs()), "count");
  report_.Detail("connections", readers_, "count");
  std::string flags;
  for (const std::string& f : ServerFlags(false)) {
    flags += (flags.empty() ? "" : " ") + f;
  }
  report_.Info("snd_serve_flags", flags);
  return report_;
}

}  // namespace

RunReport RunServe(const Options& options) {
  ServeRun run(options);
  return run.Run();
}

}  // namespace perfbench
