/// \file loadgen.h
/// \brief Single-threaded TCP load generator: one poll loop drives every
/// connection, sends each request when it is due and times it from that
/// moment, and samples the servers' /stats queue depth while it runs.

#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "serve/json.h"

namespace perfbench {

/// \brief One request of a run.
struct Sample {
  std::string line;
  /// Response bytes; empty when none arrived.
  std::string response;
  /// Seconds since the run started: when the request was due, when it
  /// was written, and when its response arrived (-1: never).
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = -1.0;
  bool ok = false;
  /// Open loop: the ladder rung that sent it; closed loop: 0.
  int rung = 0;

  double latency_ms() const { return (done_s - due_s) * 1e3; }
};

/// \brief Outcome of one ladder rung (open loop) or the whole run.
struct RungResult {
  double rate = 0.0;
  size_t first = 0;
  size_t count = 0;
  /// From the first due time to the last response.
  double window_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  size_t ok = 0;
  size_t ok_within_limit = 0;
  /// Open loop: the rate the rung was sent at ((count − 1) / span of its
  /// write times) × the share answered OK within the limit. Closed loop:
  /// OK responses within the limit per second of the run.
  double goodput_rps = 0.0;
  bool backlog_grew = false;
  bool passed = false;
};

struct LoadResult {
  std::vector<Sample> samples;
  std::vector<RungResult> rungs;
  /// p95 of (write time − due time) over the nominal rung or the run.
  double lag_p95_ms = 0.0;
  /// Largest /stats queue_depth sampled on any stats connection.
  double queue_depth_max = 0.0;
  /// Responses carrying the id of a request already answered: another
  /// request's response went astray.
  size_t duplicate_responses = 0;
};

/// \brief Drives `load_ports` (requests, round robin) and samples
/// `stats_ports` (queue depth every 100 ms) from one thread.
class LoadGenerator {
 public:
  LoadGenerator(std::vector<int> load_ports, std::vector<int> stats_ports);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  bool Connect();

  /// Open loop: each rung of `spec.ladder` offers paced arrivals at
  /// nominal_rps × factor; the rungs above nominal share
  /// spec.ladder_share of `seconds`, the nominal rung takes the rest.
  /// The arrival times are the same for every seed; `source` decides,
  /// from the seed, which request arrives when.
  /// Stops after the first rung that fails.
  /// `on_nominal_done` runs once the nominal rung has drained.
  LoadResult RunOpen(const WorkloadSpec& spec, RequestSource& source,
                     double seconds,
                     const std::function<void()>& on_nominal_done);

  /// Closed loop: spec.clients connections each keep one request
  /// outstanding for `seconds`.
  LoadResult RunClosed(const WorkloadSpec& spec, RequestSource& source,
                       double seconds);

 private:
  struct Conn;
  void Send(Conn& conn, const std::string& line);
  /// Waits up to `timeout_s` for socket events and handles them.
  void Step(double timeout_s);
  /// `read_s`: when the bytes holding the line were read.
  void HandleLine(Conn& conn, const std::string& line, double read_s);
  double Now() const;
  void Summarize(const WorkloadSpec& spec, RungResult* rung) const;

  std::vector<Conn> load_;
  std::vector<Conn> stats_;
  Clock::time_point start_;
  LoadResult result_;
  /// Closed loop: (connection index, when its reply was read) of each
  /// connection free to send; the reply time is the next request's due
  /// time, so the generator's reaction time counts as lag and latency.
  std::vector<std::pair<size_t, double>> ready_conns_;
  /// (time, queue depth) samples from the stats connections.
  std::vector<std::pair<double, double>> depth_samples_;
  size_t outstanding_ = 0;
};

/// One blocking {"kind":"stats"} call; the parsed "stats" object.
std::optional<mrperf::JsonValue> FetchStats(int port, bool reset_window);

/// stats.<path...> as a number, 0 when absent.
double StatNumber(const mrperf::JsonValue& stats,
                  std::initializer_list<const char*> path);

}  // namespace perfbench
