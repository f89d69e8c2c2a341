#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "serve/client.h"

namespace perfbench {
namespace {

/// Seconds a run waits for outstanding responses after its last send.
constexpr double kDrainTimeoutS = 30.0;
/// Period of the queue-depth samples.
constexpr double kStatsPeriodS = 0.1;
/// The open loop polls without sleeping for this long before each due
/// time: an idle vCPU's timer wake-up came 2–7 ms late on a shared host,
/// which is lag the servers never caused.
constexpr double kSpinS = 0.005;

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Mean of the samples in [from, to).
double MeanIn(const std::vector<std::pair<double, double>>& samples,
              double from, double to) {
  double sum = 0.0;
  size_t n = 0;
  for (const auto& [t, v] : samples) {
    if (t >= from && t < to) {
      sum += v;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

struct LoadGenerator::Conn {
  int port = 0;
  int fd = -1;
  std::string rbuf;
  std::string wbuf;
  /// Stats connections: a request is in flight / when it was sent.
  bool waiting = false;
  double last_sent_s = -1.0;
};

LoadGenerator::LoadGenerator(std::vector<int> load_ports,
                             std::vector<int> stats_ports) {
  for (int port : load_ports) load_.emplace_back().port = port;
  for (int port : stats_ports) stats_.emplace_back().port = port;
}

LoadGenerator::~LoadGenerator() {
  for (auto* conns : {&load_, &stats_}) {
    for (Conn& c : *conns) {
      if (c.fd >= 0) close(c.fd);
    }
  }
}

bool LoadGenerator::Connect() {
  for (auto* conns : {&load_, &stats_}) {
    for (Conn& c : *conns) {
      c.fd = ConnectLoopback(c.port);
      if (c.fd < 0) {
        std::fprintf(stderr, "connect to port %d failed: %s\n", c.port,
                     std::strerror(errno));
        return false;
      }
    }
  }
  start_ = Clock::now();
  return true;
}

double LoadGenerator::Now() const { return SecondsBetween(start_, Clock::now()); }

void LoadGenerator::Send(Conn& conn, const std::string& line) {
  conn.wbuf += line;
  conn.wbuf += '\n';
  const ssize_t n = write(conn.fd, conn.wbuf.data(), conn.wbuf.size());
  if (n > 0) conn.wbuf.erase(0, static_cast<size_t>(n));
}

void LoadGenerator::HandleLine(Conn& conn, const std::string& line,
                               double read_s) {
  mrperf::Result<mrperf::JsonValue> parsed = mrperf::ParseJson(line);
  if (!parsed.ok()) return;
  if (conn.waiting) {  // a stats connection
    conn.waiting = false;
    if (const mrperf::JsonValue* stats = parsed->Find("stats")) {
      const double depth = StatNumber(*stats, {"queue_depth"});
      depth_samples_.emplace_back(read_s, depth);
      result_.queue_depth_max = std::max(result_.queue_depth_max, depth);
    }
    return;
  }
  const mrperf::JsonValue* id = parsed->Find("id");
  if (id == nullptr || !id->is_string() || id->string_value().size() < 2 ||
      id->string_value()[0] != 'r') {
    return;
  }
  const size_t index =
      static_cast<size_t>(std::strtoull(id->string_value().c_str() + 1,
                                        nullptr, 10));
  if (index >= result_.samples.size()) return;
  Sample& s = result_.samples[index];
  if (s.done_s >= 0) {
    ++result_.duplicate_responses;
    return;
  }
  s.done_s = read_s;
  s.response = line;
  const mrperf::JsonValue* ok = parsed->Find("ok");
  s.ok = ok != nullptr && ok->is_bool() && ok->bool_value();
  --outstanding_;
  ready_conns_.emplace_back(static_cast<size_t>(&conn - load_.data()), read_s);
}

void LoadGenerator::Step(double timeout_s) {
  const double now = Now();
  for (Conn& c : stats_) {
    if (!c.waiting && now - c.last_sent_s >= kStatsPeriodS) {
      c.waiting = true;
      c.last_sent_s = now;
      Send(c, R"({"kind":"stats"})");
    }
  }
  timeout_s = std::min(timeout_s, kStatsPeriodS);
  std::vector<pollfd> fds;
  std::vector<Conn*> owners;
  for (auto* conns : {&load_, &stats_}) {
    for (Conn& c : *conns) {
      fds.push_back({c.fd, static_cast<short>(POLLIN | (c.wbuf.empty() ? 0 : POLLOUT)), 0});
      owners.push_back(&c);
    }
  }
  timespec ts{};
  timeout_s = std::max(0.0, timeout_s);
  ts.tv_sec = static_cast<time_t>(timeout_s);
  ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) * 1e9);
  if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
  char buf[65536];
  for (size_t i = 0; i < fds.size(); ++i) {
    Conn& c = *owners[i];
    if ((fds[i].revents & POLLOUT) && !c.wbuf.empty()) {
      const ssize_t n = write(c.fd, c.wbuf.data(), c.wbuf.size());
      if (n > 0) c.wbuf.erase(0, static_cast<size_t>(n));
    }
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      const ssize_t n = read(c.fd, buf, sizeof(buf));
      if (n <= 0) continue;
      const double read_s = Now();
      c.rbuf.append(buf, static_cast<size_t>(n));
      size_t pos;
      while ((pos = c.rbuf.find('\n')) != std::string::npos) {
        const std::string line = c.rbuf.substr(0, pos);
        c.rbuf.erase(0, pos + 1);
        HandleLine(c, line, read_s);
      }
    }
  }
}

void LoadGenerator::Summarize(const WorkloadSpec& spec,
                              RungResult* rung) const {
  std::vector<double> latencies;
  double first_due = 1e300, last_done = 0.0;
  for (size_t i = rung->first; i < rung->first + rung->count; ++i) {
    const Sample& s = result_.samples[i];
    first_due = std::min(first_due, s.due_s);
    if (s.done_s < 0) continue;
    last_done = std::max(last_done, s.done_s);
    latencies.push_back(s.latency_ms());
    if (s.ok) {
      ++rung->ok;
      if (s.latency_ms() <= spec.latency_limit_ms) ++rung->ok_within_limit;
    }
  }
  rung->window_s = std::max(1e-9, last_done - first_due);
  double first_sent = 1e300, last_sent = 0.0;
  for (size_t i = rung->first; i < rung->first + rung->count; ++i) {
    first_sent = std::min(first_sent, result_.samples[i].sent_s);
    last_sent = std::max(last_sent, result_.samples[i].sent_s);
  }
  rung->goodput_rps =
      spec.loop == Loop::kOpen && rung->count > 1
          ? static_cast<double>(rung->count - 1) /
                std::max(1e-9, last_sent - first_sent) *
                static_cast<double>(rung->ok_within_limit) /
                static_cast<double>(rung->count)
          : static_cast<double>(rung->ok_within_limit) / rung->window_s;
  rung->p50_ms = Percentile(latencies, 50);
  rung->p95_ms = Percentile(latencies, 95);
}

LoadResult LoadGenerator::RunOpen(const WorkloadSpec& spec,
                                  RequestSource& source, double seconds,
                                  const std::function<void()>& on_nominal_done) {
  // Paced, not Poisson: with random arrivals the tail latency was set by
  // which requests happened to collide (README.md, "Open loop and the
  // ladder").
  std::vector<double> lags;
  for (size_t r = 0; r < spec.ladder.size(); ++r) {
    const double duration =
        r == 0 ? (1.0 - spec.ladder_share) * seconds
               : spec.ladder_share * seconds /
                     static_cast<double>(spec.ladder.size() - 1);
    RungResult rung;
    rung.rate = spec.nominal_rps * spec.ladder[r];
    rung.first = result_.samples.size();
    const std::vector<double> offsets = PacedArrivals(rung.rate, duration);
    source.BeginRung(offsets.size());
    const double rung_start = Now();
    // (time, requests outstanding) at each send: the generator's view of
    // the backlog.
    std::vector<std::pair<double, double>> backlog;
    for (double offset : offsets) {
      const double due = rung_start + offset;
      for (double now = Now(); now < due; now = Now()) {
        Step(std::max(0.0, due - now - kSpinS));
      }
      ready_conns_.clear();  // only the closed loop sends on replies
      Sample s;
      s.line = source.Next(result_.samples.size());
      s.due_s = due;
      s.rung = static_cast<int>(r);
      const size_t index = result_.samples.size();
      result_.samples.push_back(std::move(s));
      Send(load_[index % load_.size()], result_.samples[index].line);
      result_.samples[index].sent_s = Now();
      ++outstanding_;
      if (r == 0) lags.push_back((result_.samples[index].sent_s - due) * 1e3);
      backlog.emplace_back(result_.samples[index].sent_s,
                           static_cast<double>(outstanding_));
    }
    rung.count = result_.samples.size() - rung.first;
    const double send_end = Now();
    const double drain_deadline = send_end + kDrainTimeoutS;
    while (outstanding_ > 0 && Now() < drain_deadline) Step(0.05);
    if (r == 0) on_nominal_done();
    Summarize(spec, &rung);
    // The backlog grows when the last third of the rung holds more
    // outstanding requests (generator side) or queued evaluations
    // (/stats queue_depth) than the first third, by more than
    // micro-batching moves them on a rung that keeps up.
    const double third = (send_end - rung_start) / 3.0;
    const double slack = 2.0 + 0.1 * static_cast<double>(rung.count);
    rung.backlog_grew =
        MeanIn(backlog, send_end - third, send_end + 1e-9) -
                MeanIn(backlog, rung_start, rung_start + third) > slack ||
        MeanIn(depth_samples_, send_end - third, send_end + 1e-9) -
                MeanIn(depth_samples_, rung_start, rung_start + third) > slack;
    rung.passed = rung.ok == rung.count && !rung.backlog_grew &&
                  rung.p95_ms <= spec.latency_limit_ms;
    std::fprintf(stderr,
                 "rung %.1f req/s: %zu sent, %zu ok, p95 %.1f ms, backlog %s, "
                 "%s\n",
                 rung.rate, rung.count, rung.ok, rung.p95_ms,
                 rung.backlog_grew ? "grew" : "steady",
                 rung.passed ? "passed" : "failed");
    result_.rungs.push_back(rung);
    if (!rung.passed || outstanding_ > 0) break;
  }
  result_.lag_p95_ms = Percentile(lags, 95);
  return std::move(result_);
}

LoadResult LoadGenerator::RunClosed(const WorkloadSpec& spec,
                                    RequestSource& source, double seconds) {
  std::vector<double> lags;
  RungResult rung;
  const double end = Now() + seconds;
  // A client's next request is due when its reply was read.
  const auto send_on = [&](size_t conn, double due_s) {
    Sample s;
    s.line = source.Next(result_.samples.size());
    s.due_s = due_s;
    const size_t index = result_.samples.size();
    result_.samples.push_back(std::move(s));
    Send(load_[conn], result_.samples[index].line);
    result_.samples[index].sent_s = Now();
    lags.push_back((result_.samples[index].sent_s - result_.samples[index].due_s) * 1e3);
    ++outstanding_;
  };
  for (size_t c = 0; c < load_.size() && c < static_cast<size_t>(spec.clients);
       ++c) {
    send_on(c, Now());
  }
  while (Now() < end) {
    Step(end - Now());
    std::vector<std::pair<size_t, double>> ready;
    ready.swap(ready_conns_);
    for (const auto& [c, read_s] : ready) {
      if (Now() < end) send_on(c, read_s);
    }
  }
  const double drain_deadline = Now() + kDrainTimeoutS;
  while (outstanding_ > 0 && Now() < drain_deadline) Step(0.05);
  rung.count = result_.samples.size();
  Summarize(spec, &rung);
  rung.passed = rung.ok == rung.count;
  result_.rungs.push_back(rung);
  result_.lag_p95_ms = Percentile(lags, 95);
  return std::move(result_);
}

std::optional<mrperf::JsonValue> FetchStats(int port, bool reset_window) {
  mrperf::PredictClientOptions options;
  options.connect_timeout_ms = 5000;
  options.read_timeout_ms = 10000;
  mrperf::PredictClient client(options);
  if (!client.Connect("127.0.0.1", port).ok()) return std::nullopt;
  mrperf::Result<std::string> reply = client.Call(
      reset_window ? R"({"kind":"stats","reset_window":true})"
                   : R"({"kind":"stats"})");
  if (!reply.ok()) return std::nullopt;
  mrperf::Result<mrperf::JsonValue> parsed = mrperf::ParseJson(*reply);
  if (!parsed.ok()) return std::nullopt;
  const mrperf::JsonValue* stats = parsed->Find("stats");
  if (stats == nullptr || !stats->is_object()) return std::nullopt;
  return *stats;
}

double StatNumber(const mrperf::JsonValue& stats,
                  std::initializer_list<const char*> path) {
  const mrperf::JsonValue* v = &stats;
  for (const char* key : path) {
    v = v->Find(key);
    if (v == nullptr) return 0.0;
  }
  return v->is_number() ? v->number_value() : 0.0;
}

}  // namespace perfbench
