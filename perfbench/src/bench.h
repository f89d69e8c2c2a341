/// \file bench.h
/// \brief Shared definitions of the repository benchmark runner:
/// workload specifications, request generation, the metric sink and the
/// small statistics helpers every part uses.
///
/// The runner has three parts: children.cc spawns and accounts for the
/// measured server processes, loadgen.cc drives them over TCP (open or
/// closed loop), replay.cc re-evaluates requests in-process — untimed
/// for output verification, timed layer by layer for the traced run.
/// main.cc ties them together per workload. README.md in the
/// benchmark's directory records why each workload exists and which
/// layer metric should move which end-to-end metric.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// How a workload offers load.
enum class Loop {
  /// Paced arrivals on a fixed schedule, independent of replies.
  kOpen,
  /// A fixed number of clients, each waiting for its reply.
  kClosed,
  /// In-process SweepRunner sweeps; no transport.
  kOffline,
};

/// \brief One benchmark workload (see README.md for the reasons).
struct WorkloadSpec {
  std::string name;
  Loop loop = Loop::kOpen;
  /// Requests go through predict_router to two replicas.
  bool fleet = false;
  /// Open loop: the nominal arrival rate; latency is reported at it.
  double nominal_rps = 0.0;
  /// Open loop: the goodput ladder, as multiples of nominal_rps, in
  /// ascending order. The first rung is always 1 (the nominal rate).
  std::vector<double> ladder = {1.0};
  /// Open loop: the share of the run the rungs above nominal take
  /// together; the nominal rung takes the rest.
  double ladder_share = 0.0;
  /// Closed loop: concurrent clients.
  int clients = 0;
  /// Flags of the single predictd besides its port and event loop (the
  /// fleet's replicas run one worker each).
  std::vector<std::string> server_flags = {"--threads=2"};
  /// Latency limit on p95 (open loop) or per request (closed loop).
  double latency_limit_ms = 0.0;
  /// Traced run: how many leading requests are replayed layer by layer
  /// (paper-validate replays its whole grid).
  size_t replay_requests = 0;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// \brief Deterministic request stream of a served workload. The same
/// (workload, seed) always yields the same lines; ids are "r<index>".
class RequestSource {
 public:
  RequestSource(const WorkloadSpec& spec, uint64_t seed);
  ~RequestSource();
  RequestSource(const RequestSource&) = delete;
  RequestSource& operator=(const RequestSource&) = delete;

  /// Starts an open-loop rung of `count` requests: the next `count`
  /// requests of a fixed stream (whatif-cold: distinct keys; whatif-hot:
  /// Zipf draws over the hot set), the same for every seed so that every
  /// seed offers the same work, in an order drawn from the seed.
  void BeginRung(size_t count);

  /// The request line with id "r<index>"; indices are drawn in order.
  std::string Next(size_t index);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// SplitMix64: a small, portable generator (the standard library's
/// distributions are implementation-defined, so inputs would differ
/// between standard libraries).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1p-53; }
  /// Uniform integer in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

/// Arrival offsets (seconds) of round(rate × duration) requests sent
/// evenly, one every 1 / `rate` seconds.
std::vector<double> PacedArrivals(double rate, double duration);

/// Linear-interpolated percentile (0..100) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Mean of |e| × 100 over relative errors `errors`; 0 when empty.
double MeanAbsPct(const std::vector<double>& errors);

/// \brief Named metric values, printed as the result line's "metrics".
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Renders {"name": {"value": v, "unit": u}, ...}.
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Sets every per-layer metric to 0 with its unit, so layers a workload
/// does not exercise still report.
void DeclarePerLayerMetrics(MetricSink* sink);

}  // namespace perfbench
