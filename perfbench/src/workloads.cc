#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <tuple>

#include "bench.h"
#include "common/statistics.h"

namespace perfbench {
namespace {

// Rates, ladders and limits are sized for predictd with 2 workers (and
// the 2 × 1-worker fleet) on a 4-core host; README.md lists them with
// the reasons for each workload.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> s;
    WorkloadSpec cold;
    cold.name = "whatif-cold";
    cold.loop = Loop::kOpen;
    cold.nominal_rps = 9.0;
    // ×10 offers about twice predictd's capacity (~40–45 req/s with full
    // micro-batches): 2 s of it leave a backlog of seconds.
    cold.ladder = {1.0, 10.0};
    cold.ladder_share = 0.08;
    cold.latency_limit_ms = 1000.0;
    cold.replay_requests = 32;
    s.push_back(cold);

    WorkloadSpec hot;
    hot.name = "whatif-hot";
    hot.loop = Loop::kOpen;
    hot.fleet = true;
    hot.nominal_rps = 9.0;
    hot.ladder = {1.0, 2.0};
    hot.ladder_share = 0.1;
    hot.latency_limit_ms = 500.0;
    hot.replay_requests = 48;
    s.push_back(hot);

    WorkloadSpec sim;
    sim.name = "measure-sim";
    sim.loop = Loop::kClosed;
    sim.clients = 2;
    // One worker, one request per micro-batch: fanned out over two
    // workers, a request's wall time depended on both vCPUs running at
    // once; batched in pairs, the worker idled while both replies went
    // out and came back. Both made the tail move with the host
    // (README.md, "Why measure-sim runs one worker").
    sim.server_flags = {"--threads=1", "--batch=1"};
    sim.latency_limit_ms = 250.0;
    sim.replay_requests = 48;
    s.push_back(sim);

    WorkloadSpec paper;
    paper.name = "paper-validate";
    paper.loop = Loop::kOffline;
    paper.latency_limit_ms = 10000.0;
    s.push_back(paper);
    return s;
  }();
  return specs;
}

/// measure-sim's request pool; a 25 s run sends ~1200 of them.
constexpr int kSimPoolSize = 2048;

const char* const kProfiles[] = {"wordcount", "terasort", "grep",
                                 "inverted-index"};
const char* const kSchedulers[] = {"capacity", "tetris"};
constexpr int64_t kMiB = 1024 * 1024;
constexpr int64_t kGiB = 1024 * kMiB;

/// Evaluation identity of a generated request: the line without its id,
/// priority or trailing brace (the fields are always written in one
/// order, so equal strings are equal requests).
struct Point {
  int nodes = 4;
  int64_t input_bytes = kGiB;
  int jobs = 1;
  int block_mb = 128;
  const char* profile = "wordcount";
  const char* scheduler = "capacity";
  int repetitions = 0;
  uint64_t seed = 0;

  std::string Body() const {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "\"kind\":\"predict\",\"nodes\":%d,\"input_bytes\":%lld,"
                  "\"jobs\":%d,\"block_mb\":%d,\"profile\":\"%s\","
                  "\"scheduler\":\"%s\"",
                  nodes, static_cast<long long>(input_bytes), jobs, block_mb,
                  profile, scheduler);
    std::string body = buf;
    if (repetitions == 0) {
      body += ",\"model_only\":true";
    } else {
      std::snprintf(buf, sizeof(buf), ",\"repetitions\":%d,\"seed\":%llu",
                    repetitions, static_cast<unsigned long long>(seed));
      body += buf;
    }
    return body;
  }
};

/// A point of whatif-cold's space, every point equally likely: the
/// paper's §5.1 space (nodes 4–16, the four profiles, both schedulers)
/// narrowed to one job of 1–1.5 GB in 1/16 GB steps with 128 MB blocks,
/// requests of 30–70 ms. README.md gives the reasons for the narrowing;
/// paper-validate covers the rest of the space.
Point DrawColdPoint(Rng& rng) {
  Point p;
  p.nodes = static_cast<int>(rng.Between(4, 16));
  p.input_bytes = rng.Between(16, 24) * (kGiB / 16);
  p.profile = kProfiles[rng.Between(0, 3)];
  p.scheduler = kSchedulers[rng.Between(0, 1)];
  return p;
}

/// Size of the whatif-hot working set: an assumption ("a small hot set"),
/// a few keys per worker of the 2-replica fleet.
constexpr size_t kHotKeys = 24;
/// Exponent of the whatif-hot Zipf draw: 1, Zipf's law itself.
constexpr double kZipfExponent = 1.0;

/// measure-sim requests: uniform over the cheap points, the ≥ 8-node
/// 1 GB points whose model costs ~5 ms. Of nodes 8–16 × 64/128 MB
/// only two shapes qualify, the ones whose map tasks fill exactly one wave
/// (8 nodes with 128 MB blocks, 16 nodes with 64 MB blocks; 5–11 ms); the
/// others take 23–64 ms. Each carries 50–100 repetitions, so the simulator
/// carries the work.
Point DrawSimPoint(Rng& rng) {
  Point p;
  const bool eight = rng.Between(0, 1) == 0;
  p.nodes = eight ? 8 : 16;
  p.block_mb = eight ? 128 : 64;
  p.input_bytes = kGiB;
  p.profile = kProfiles[rng.Between(0, 3)];
  p.scheduler = kSchedulers[rng.Between(0, 1)];
  p.repetitions = static_cast<int>(rng.Between(50, 100));
  p.seed = static_cast<uint64_t>(rng.Between(1, (int64_t{1} << 31) - 1));
  return p;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

struct RequestSource::Impl {
  std::string workload;
  Rng rng{0};
  // whatif-cold and whatif-hot: a fixed stream of requests (cold: distinct
  // points; hot: Zipf draws over the hot set with their priorities), the
  // keys it has produced, and the current rung's block in the run's order.
  Rng pool_rng{0xc01dc0ffeeULL};
  std::set<std::string> seen;
  std::vector<std::pair<Point, const char*>> block;
  size_t block_next = 0;
  // measure-sim: a fixed pool of requests, sent in an order drawn from
  // the seed (reshuffled if a run gets through all of it).
  std::vector<Point> sim_pool;
  size_t sim_next = 0;
  // whatif-hot: rank -> point, and the Zipf CDF over ranks.
  std::vector<Point> hot;
  std::vector<double> zipf_cdf;

  Point NextDistinctColdPoint() {
    for (;;) {
      const Point p = DrawColdPoint(pool_rng);
      if (seen.insert(p.Body()).second) return p;
    }
  }

  /// The next request of the fixed stream, with its priority.
  std::pair<Point, const char*> NextPooled() {
    if (workload == "whatif-cold") {
      return {NextDistinctColdPoint(), "interactive"};
    }
    const double u = pool_rng.Uniform();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
        zipf_cdf.begin());
    // No measured interactive/bulk shares to follow: even odds.
    const char* priority =
        pool_rng.Between(0, 1) == 0 ? "interactive" : "bulk";
    return {hot[std::min(rank, hot.size() - 1)], priority};
  }
};

RequestSource::RequestSource(const WorkloadSpec& spec, uint64_t seed)
    : impl_(std::make_unique<Impl>()) {
  impl_->workload = spec.name;
  impl_->rng = Rng(seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
  if (spec.name == "whatif-hot") {
    // The hot set, in popularity-rank order: the first distinct points of
    // a fixed draw from whatif-cold's space, the same for every seed.
    Rng hot_rng(0x5eedf00dULL);
    std::set<std::string> hot_keys;
    while (impl_->hot.size() < kHotKeys) {
      const Point p = DrawColdPoint(hot_rng);
      if (hot_keys.insert(p.Body()).second) impl_->hot.push_back(p);
    }
    double total = 0.0;
    for (size_t k = 1; k <= impl_->hot.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), kZipfExponent);
      impl_->zipf_cdf.push_back(total);
    }
    for (double& c : impl_->zipf_cdf) c /= total;
  }
}

RequestSource::~RequestSource() = default;

namespace {

template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[static_cast<size_t>(rng.Between(
                                0, static_cast<int64_t>(i) - 1))]);
  }
}

}  // namespace

void RequestSource::BeginRung(size_t count) {
  if (impl_->workload != "whatif-cold" && impl_->workload != "whatif-hot") {
    return;
  }
  auto& block = impl_->block;
  block.clear();
  impl_->block_next = 0;
  for (size_t i = 0; i < count; ++i) block.push_back(impl_->NextPooled());
  Shuffle(block, impl_->rng);
}

std::string RequestSource::Next(size_t index) {
  Rng& rng = impl_->rng;
  Point p;
  const char* priority = nullptr;
  if (impl_->workload == "whatif-cold" || impl_->workload == "whatif-hot") {
    std::tie(p, priority) = impl_->block_next < impl_->block.size()
                                ? impl_->block[impl_->block_next++]
                                : impl_->NextPooled();
  } else {
    std::vector<Point>& pool = impl_->sim_pool;
    if (impl_->sim_next == pool.size()) {
      if (pool.empty()) {
        Rng pool_rng(0x51eedULL);
        for (int i = 0; i < kSimPoolSize; ++i) pool.push_back(DrawSimPoint(pool_rng));
      }
      Shuffle(pool, rng);
      impl_->sim_next = 0;
    }
    p = pool[impl_->sim_next++];
  }
  std::string line = "{\"id\":\"r" + std::to_string(index) + "\"," + p.Body();
  if (priority != nullptr) {
    line += ",\"priority\":\"";
    line += priority;
    line += '"';
  }
  line += '}';
  return line;
}

std::vector<double> PacedArrivals(double rate, double duration) {
  const size_t n =
      static_cast<size_t>(std::max(1.0, std::round(rate * duration)));
  std::vector<double> times(n);
  for (size_t i = 0; i < n; ++i) times[i] = static_cast<double>(i) / rate;
  return times;
}

double Percentile(std::vector<double> values, double p) {
  mrperf::Result<double> value = mrperf::Percentile(std::move(values), p);
  return value.ok() ? *value : 0.0;
}

double MeanAbsPct(const std::vector<double>& errors) {
  std::vector<double> pct;
  for (double e : errors) pct.push_back(100.0 * std::abs(e));
  return mrperf::Mean(pct);
}

void MetricSink::Set(const std::string& name, double value,
                     const std::string& unit) {
  values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

std::string MetricSink::Json() const {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, value] : values_) {
    if (out.size() > 1) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", value.first);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           value.second + "\"}";
  }
  return out + "}";
}

void DeclarePerLayerMetrics(MetricSink* sink) {
  static const std::pair<const char*, const char*> kPerLayer[] = {
      {"model.solve_ms", "ms"},           {"model.outer_iters", "count"},
      {"model.timeline_share", "ratio"},  {"model.overlap_share", "ratio"},
      {"model.tree_share", "ratio"},      {"model.estimator_share", "ratio"},
      {"model.replay_coverage", "ratio"}, {"queueing.mva_share", "ratio"},
      {"queueing.mva_sweeps", "count"},   {"queueing.solves", "count"},
      {"queueing.cache_hit_ratio", "ratio"},
      {"queueing.cache_misses", "count"}, {"sim.rep_ms", "ms"},
      {"sim.reps", "count"},              {"sim.share", "ratio"},
      {"engine.busy_share", "ratio"},     {"engine.tasks", "count"},
      {"experiments.task_us", "us"},      {"serve.parse_us", "us"},
      {"serve.key_us", "us"},             {"serve.serialize_us", "us"},
      {"serve.server_p50_ms", "ms"},      {"serve.transport_ms", "ms"},
      {"serve.evals_per_request", "ratio"},
      {"serve.coalesced_ratio", "ratio"}, {"serve.queue_depth_max", "count"},
      {"serve.rejected", "count"},        {"fleet.hop_ms", "ms"},
      {"fleet.replica_skew", "ratio"},    {"fleet.rerouted", "count"},
      {"loadgen.lag_p95_ms", "ms"},       {"trace.overhead_ratio", "ratio"},
  };
  for (const auto& [name, unit] : kPerLayer) sink->Set(name, 0.0, unit);
}

}  // namespace perfbench
