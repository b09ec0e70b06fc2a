// The benchmark's side of the snd_serve TCP text protocol: the server
// process it spawns, a framed reply reader, a blocking client for set-up
// and control, and the open-loop request generator.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

// A spawned `snd_serve --listen=0 ...`; killed and reaped on destruction.
// The child also dies with the benchmark (PR_SET_PDEATHSIG).
class ServerProcess {
 public:
  static std::unique_ptr<ServerProcess> Start(
      const std::string& binary, const std::vector<std::string>& flags,
      const std::string& stderr_path, std::string* error);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  ServerProcess(pid_t pid, int stdout_fd, int port)
      : pid_(pid), stdout_fd_(stdout_fd), port_(port) {}
  pid_t pid_;
  int stdout_fd_;
  int port_;
};

// Reassembles complete replies from the byte stream. A reply is its
// "ok ..."/"error ..." header line plus, when the header ends in
// "count N" or "rows N", the N data lines that follow.
class ReplyBuffer {
 public:
  void Append(const char* data, size_t size) { data_.append(data, size); }
  // Pops the oldest complete reply (every line '\n'-terminated).
  bool Pop(std::string* reply);

 private:
  std::string data_;
  size_t pos_ = 0;
};

// A TCP connection to the server with TCP_NODELAY set that acknowledges
// every reply at once (TCP_QUICKACK set again after every read; the kernel
// does not keep it). snd_serve leaves Nagle's algorithm on, so a reply
// written while the previous one is unacknowledged waits for the client's
// ACK; with delayed ACKs that wait is the client's own send interval, not
// the server's reply time (see perfbench/README.md, "Findings").
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(int port);
  // Sends one request line and waits (up to `timeout_ms`) for its reply;
  // empty on failure.
  std::string Call(const std::string& line, int timeout_ms = 60000);
  // Call for a short request: polls the socket without sleeping while it
  // waits, so the roundtrip holds no wake-up of this client's thread.
  std::string CallBusy(const std::string& line);
  int fd() const { return fd_; }
  ReplyBuffer* buffer() { return &buffer_; }
  // Reads what the socket has into the buffer; false on EOF or error.
  bool Receive();

 private:
  void QuickAck();

  int fd_ = -1;
  ReplyBuffer buffer_;
};

// One scheduled request of an open-loop phase.
struct Request {
  int64_t due_ns = 0;  // Offset from the phase start.
  std::string line;
  int kind = 0;
  int32_t arg = -1;  // Workload-specific (the expected pair, an index).
  int64_t sent_ns = 0;  // Absolute; 0 = never sent.
  int64_t done_ns = 0;  // Absolute; 0 = no reply.
  std::string reply;
};

// Sends the requests of each schedule (sorted by due time) on its own
// connection, schedules[k] on clients[k], at start_ns + due_ns whether or
// not earlier replies have arrived, and collects each reply as it comes
// back (the server answers a connection in order). One thread, the
// caller's, drives every connection, so the generator adds one thread to
// the host however many connections it opens. A request whose line is
// empty gets it from `fill` when it is sent. Returns when every reply is
// in or at `deadline_ns`.
void RunOpenLoop(const std::vector<Client*>& clients,
                 std::vector<std::vector<Request>>* schedules,
                 int64_t start_ns, int64_t deadline_ns,
                 const std::function<void(Request*)>& fill = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
