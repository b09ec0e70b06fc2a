#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "report.h"

namespace perfbench {
namespace {

// Waits for `fd` to become readable or writable; false on timeout.
bool WaitFd(int fd, short events, int64_t timeout_ns) {
  pollfd p{fd, events, 0};
  timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
              static_cast<long>(timeout_ns % 1000000000)};
  return ppoll(&p, 1, &ts, nullptr) > 0;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      if (!WaitFd(fd, POLLOUT, 10000000000LL)) return false;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

std::unique_ptr<ServerProcess> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& flags,
    const std::string& stderr_path, std::string* error) {
  int out[2];
  if (pipe(out) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  std::vector<std::string> args = {binary};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(out[1], STDOUT_FILENO);
    const int err = open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err >= 0) dup2(err, STDERR_FILENO);
    const int null_in = open("/dev/null", O_RDONLY);
    if (null_in >= 0) dup2(null_in, STDIN_FILENO);
    close(out[0]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(out[1]);
  // The server prints "listening ADDR:PORT" once it is bound.
  std::string line;
  const int64_t deadline = NowNs() + 30000000000LL;
  while (line.find('\n') == std::string::npos) {
    const int64_t left = deadline - NowNs();
    char buf[256];
    if (left <= 0 || !WaitFd(out[0], POLLIN, left)) break;
    const ssize_t n = read(out[0], buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = line.rfind(':');
  const int port = colon == std::string::npos
                       ? -1
                       : std::atoi(line.c_str() + colon + 1);
  auto server = std::unique_ptr<ServerProcess>(new ServerProcess(pid, out[0], port));
  if (line.rfind("listening ", 0) != 0 || port <= 0) {
    *error = "server did not report a port (got '" + line + "')";
    return nullptr;
  }
  return server;
}

ServerProcess::~ServerProcess() {
  kill(pid_, SIGTERM);
  int status = 0;
  const int64_t deadline = NowNs() + 5000000000LL;
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (NowNs() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    usleep(1000);
  }
  close(stdout_fd_);
}

bool ReplyBuffer::Pop(std::string* reply) {
  const size_t header_end = data_.find('\n', pos_);
  if (header_end == std::string::npos) return false;
  size_t rows = 0;
  if (data_.compare(pos_, 3, "ok ") == 0) {
    // The last two tokens of the header: "count N" / "rows N" frame rows.
    const size_t last_space = data_.rfind(' ', header_end);
    if (last_space != std::string::npos && last_space > pos_) {
      const size_t prev_space = data_.rfind(' ', last_space - 1);
      if (prev_space != std::string::npos && prev_space >= pos_) {
        const std::string word =
            data_.substr(prev_space + 1, last_space - prev_space - 1);
        if (word == "count" || word == "rows") {
          rows = std::strtoull(data_.c_str() + last_space + 1, nullptr, 10);
        }
      }
    }
  }
  size_t end = header_end + 1;
  for (size_t r = 0; r < rows; ++r) {
    const size_t nl = data_.find('\n', end);
    if (nl == std::string::npos) return false;
    end = nl + 1;
  }
  reply->assign(data_, pos_, end - pos_);
  pos_ = end;
  if (pos_ > (1 << 20) || pos_ == data_.size()) {
    data_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

bool Client::Connect(int port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  QuickAck();
  return fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
}

bool Client::Receive() {
  char buf[65536];
  const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
  if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) return false;
  if (n > 0) {
    buffer_.Append(buf, static_cast<size_t>(n));
    QuickAck();
  }
  return true;
}

void Client::QuickAck() {
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
}

std::string Client::Call(const std::string& line, int timeout_ms) {
  if (!SendAll(fd_, line + "\n")) return std::string();
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
  std::string reply;
  while (!buffer_.Pop(&reply)) {
    const int64_t left = deadline - NowNs();
    if (left <= 0 || !WaitFd(fd_, POLLIN, left) || !Receive()) {
      return std::string();
    }
  }
  return reply;
}

std::string Client::CallBusy(const std::string& line) {
  if (!SendAll(fd_, line + "\n")) return std::string();
  const int64_t deadline = NowNs() + int64_t{60000} * 1000000;
  std::string reply;
  while (!buffer_.Pop(&reply)) {
    if (NowNs() >= deadline || !Receive()) return std::string();
  }
  return reply;
}

void RunOpenLoop(const std::vector<Client*>& clients,
                 std::vector<std::vector<Request>>* schedules,
                 int64_t start_ns, int64_t deadline_ns,
                 const std::function<void(Request*)>& fill) {
  // Sleep precisely: the default 50 us timer slack would show up as send
  // lag at the higher rates.
  prctl(PR_SET_TIMERSLACK, 1000UL);
  struct Conn {
    Client* client = nullptr;
    std::vector<Request>* reqs = nullptr;
    size_t next = 0, acked = 0;  // First unsent and first unanswered.
    std::string out;             // Sent from out_pos on.
    size_t out_pos = 0;
    bool broken = false;
    bool Done() const { return broken || acked == reqs->size(); }
  };
  std::vector<Conn> conns;
  for (size_t k = 0; k < clients.size(); ++k) {
    conns.emplace_back();
    conns.back().client = clients[k];
    conns.back().reqs = &(*schedules)[k];
  }
  std::vector<pollfd> polls;
  std::vector<Conn*> polled;
  std::string reply;
  while (true) {
    int64_t now = NowNs();
    if (now >= deadline_ns) break;
    int64_t wake_ns = deadline_ns;
    polls.clear();
    polled.clear();
    for (Conn& c : conns) {
      if (c.Done()) continue;
      std::vector<Request>& reqs = *c.reqs;
      while (c.next < reqs.size() && start_ns + reqs[c.next].due_ns <= now) {
        if (reqs[c.next].line.empty() && fill) fill(&reqs[c.next]);
        c.out += reqs[c.next].line;
        c.out += '\n';
        reqs[c.next].sent_ns = now;
        ++c.next;
      }
      while (c.out_pos < c.out.size()) {
        const ssize_t n = send(c.client->fd(), c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_pos += static_cast<size_t>(n);
        } else {
          c.broken = n < 0 && errno != EAGAIN && errno != EINTR;
          break;
        }
      }
      if (c.broken) continue;
      if (c.out_pos == c.out.size()) {
        c.out.clear();
        c.out_pos = 0;
      }
      if (c.next < reqs.size()) {
        wake_ns = std::min(wake_ns, start_ns + reqs[c.next].due_ns);
      }
      polls.push_back({c.client->fd(),
                       static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                       0});
      polled.push_back(&c);
    }
    if (polls.empty()) break;
    const int64_t wait_ns = std::max<int64_t>(0, wake_ns - NowNs());
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    if (ppoll(polls.data(), polls.size(), &ts, nullptr) <= 0) continue;
    for (size_t k = 0; k < polls.size(); ++k) {
      if (!(polls[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& c = *polled[k];
      if (!c.client->Receive()) {
        c.broken = true;
        continue;
      }
      const int64_t arrived = NowNs();
      while (c.acked < c.next && c.client->buffer()->Pop(&reply)) {
        (*c.reqs)[c.acked].done_ns = arrived;
        (*c.reqs)[c.acked].reply.swap(reply);
        ++c.acked;
      }
    }
  }
}

}  // namespace perfbench
