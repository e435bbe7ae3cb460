// Load-generation primitives for the end-to-end benchmark: a seeded RNG, a
// blocking keep-alive HTTP/1.1 client, and lane runners that drive an
// operation list open loop (each op has a scheduled send time and is timed
// from it) or closed loop (each lane sends its next op when the previous
// one completes).
//
// The client is deliberately the benchmark's own rather than the program's
// server::HttpClient, so a change to the program's client code cannot move
// the load side of the measurement.

#ifndef PERFBENCH_HTTP_LOAD_H_
#define PERFBENCH_HTTP_LOAD_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void SleepUntilNs(int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

/// splitmix64: the benchmark's own generator, so its streams depend only on
/// the seed and this file.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// Zipf sampler over ranks [0, n): P(r) ∝ 1 / (r + 1)^theta.
class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(Rng& rng) const {
    double u = rng.Uniform();
    size_t r = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// FNV-1a, for stream and body fingerprints.
inline uint64_t Fnv1a(std::string_view s, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Response {
  int status = 0;
  std::string body;
};

/// \brief One blocking keep-alive connection to 127.0.0.1:port.
///
/// The server closes a connection after a fixed number of requests (and
/// says so with `Connection: close`); the client then reconnects on the
/// next request. A kept-alive socket the server closed while idle is
/// retried once on a fresh connection.
class Connection {
 public:
  explicit Connection(uint16_t port) : port_(port) {}
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Send(const std::string& method, const std::string& target,
            std::string_view body, Response* out, std::string* err) {
    wire_.clear();
    wire_ += method;
    wire_ += ' ';
    wire_ += target;
    wire_ += " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n";
    if (method == "PUT" || method == "POST") {
      wire_ += "Content-Type: application/octet-stream\r\nContent-Length: ";
      wire_ += std::to_string(body.size());
      wire_ += "\r\n";
    }
    wire_ += "\r\n";
    wire_.append(body.data(), body.size());
    for (int attempt = 0; attempt < 2; ++attempt) {
      const bool reused = fd_ >= 0;
      if (fd_ < 0 && !Open(err)) return false;
      bool stale = false;
      if (Exchange(out, &stale, err)) return true;
      Close();
      if (!(reused && stale)) return false;
    }
    return false;
  }

 private:
  bool Open(std::string* err) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      *err = "socket: " + std::string(std::strerror(errno));
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{30, 0};  // no request legitimately takes this long
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *err = "connect: " + std::string(std::strerror(errno));
      Close();
      return false;
    }
    buf_.clear();
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Exchange(Response* out, bool* stale, std::string* err) {
    *stale = true;  // until the first response byte arrives
    size_t sent = 0;
    while (sent < wire_.size()) {
      ssize_t n = ::send(fd_, wire_.data() + sent, wire_.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        *err = "send failed";
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    size_t head_end = std::string::npos;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill(stale, err)) return false;
    }
    std::string_view head(buf_.data(), head_end);
    if (head.size() < 12 || head.substr(0, 5) != "HTTP/") {
      *err = "malformed status line";
      return false;
    }
    out->status = std::atoi(std::string(head.substr(9, 3)).c_str());
    size_t length = 0;
    bool close_after = false;
    size_t pos = head.find("\r\n");
    while (pos != std::string_view::npos && pos < head.size()) {
      size_t next = head.find("\r\n", pos + 2);
      std::string_view line = head.substr(pos + 2, next == std::string_view::npos
                                                       ? std::string_view::npos
                                                       : next - pos - 2);
      size_t colon = line.find(':');
      if (colon != std::string_view::npos) {
        std::string name(line.substr(0, colon));
        std::transform(name.begin(), name.end(), name.begin(), ::tolower);
        std::string_view value = line.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
        if (name == "content-length") {
          length = std::strtoull(std::string(value).c_str(), nullptr, 10);
        } else if (name == "connection") {
          close_after = value.find("close") != std::string_view::npos ||
                        value.find("Close") != std::string_view::npos;
        }
      }
      pos = next;
    }
    const size_t total = head_end + 4 + length;
    *stale = false;
    while (buf_.size() < total) {
      if (!Fill(stale, err)) return false;
    }
    out->body.assign(buf_, head_end + 4, length);
    buf_.erase(0, total);
    if (close_after) Close();
    return true;
  }

  // Appends whatever the socket has; false on EOF or error. `stale` stays
  // true only if nothing of the response has arrived yet.
  bool Fill(bool* stale, std::string* err) {
    char chunk[65536];
    for (;;) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buf_.append(chunk, static_cast<size_t>(n));
        *stale = false;
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      *stale = *stale && buf_.empty();
      *err = n == 0 ? "connection closed by server" : "recv: " + std::string(std::strerror(errno));
      return false;
    }
  }

  uint16_t port_;
  int fd_ = -1;
  std::string wire_;
  std::string buf_;
};

/// One timed operation. Times are steady-clock nanoseconds.
struct Sample {
  int64_t due_ns = 0;   ///< scheduled send (open loop) or actual send (closed)
  int64_t done_ns = 0;  ///< response fully received
  int64_t late_ns = 0;  ///< generator lateness: send - max(due, lane free)
  uint32_t op = 0;      ///< index into the phase's op list
  uint8_t kind = 0;
  bool ok = false;
  double latency_ms() const { return static_cast<double>(done_ns - due_ns) / 1e6; }
};

/// Runs `run(lane, op_index)` for one op; returns true on a correct answer.
using OpFn = std::function<bool(int lane, size_t op_index)>;

/// \brief Open loop: op i is due at start + i * period and goes to lane
/// i % lanes. A lane sends each op at its due time, or as soon as its
/// previous op completes if that is later; latency counts from the due
/// time, so a stall shows up in every op queued behind it. `kinds[i]`
/// tags samples by operation type.
inline std::vector<Sample> RunOpenLoop(int lanes, size_t n_ops, double rate,
                                       int64_t start_ns,
                                       const std::vector<uint8_t>& kinds,
                                       const OpFn& run) {
  std::vector<Sample> samples(n_ops);
  const double period_ns = 1e9 / rate;
  std::vector<std::thread> threads;
  for (int lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      int64_t free_ns = start_ns;
      for (size_t i = static_cast<size_t>(lane); i < n_ops; i += lanes) {
        Sample& s = samples[i];
        s.op = static_cast<uint32_t>(i);
        s.kind = kinds[i];
        s.due_ns = start_ns + static_cast<int64_t>(period_ns * static_cast<double>(i));
        if (NowNs() < s.due_ns) SleepUntilNs(s.due_ns);
        const int64_t send = NowNs();
        s.late_ns = send - std::max(s.due_ns, free_ns);
        s.ok = run(lane, i);
        s.done_ns = free_ns = NowNs();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return samples;
}

/// \brief Closed loop: every lane takes the next op index from a shared
/// counter until `deadline_ns` or `n_ops` is reached, sending each as soon
/// as its previous one completes. Latency counts from the actual send.
inline std::vector<Sample> RunClosedLoop(int lanes, size_t n_ops, int64_t deadline_ns,
                                         const std::vector<uint8_t>& kinds,
                                         const OpFn& run) {
  std::atomic<size_t> next{0};
  std::vector<std::vector<Sample>> per_lane(lanes);
  std::vector<std::thread> threads;
  for (int lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      for (;;) {
        if (NowNs() >= deadline_ns) return;
        size_t i = next.fetch_add(1);
        if (i >= n_ops) return;
        Sample s;
        s.op = static_cast<uint32_t>(i);
        s.kind = kinds[i];
        s.due_ns = NowNs();
        s.ok = run(lane, i);
        s.done_ns = NowNs();
        per_lane[lane].push_back(s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Sample> all;
  for (auto& v : per_lane) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end(),
            [](const Sample& a, const Sample& b) { return a.op < b.op; });
  return all;
}

/// Summary of a latency sample: the median and the highest percentile with
/// at least ten samples beyond it (capped at the 99th).
struct Quantiles {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;
};

inline Quantiles Summarize(std::vector<double> v) {
  Quantiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  auto at = [&](double pct) {
    size_t idx = static_cast<size_t>(std::ceil(pct / 100.0 * v.size()));
    return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
  };
  q.p50 = at(50);
  double pct = 100.0 * (1.0 - 10.0 / static_cast<double>(v.size()));
  q.tail_pct = std::max(50.0, std::min(99.0, std::floor(pct * 10) / 10));
  q.tail = at(q.tail_pct);
  return q;
}

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_LOAD_H_
