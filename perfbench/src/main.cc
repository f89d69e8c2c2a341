/// \file main.cc
/// \brief Entry point of the repository benchmark runner.
///
///   perfbench_runner --workload=<name> --seed=<n> --seconds=<s>
///                    --trace=<0|1> --bin-dir=<dir> --reference=<file>
///
/// Runs one workload once and prints, as its last stdout line, one JSON
/// object {"correct", "attempted", "failed", "metrics"}. With --trace=0
/// the metrics are the end-to-end ones (measured untraced); with
/// --trace=1 the per-layer ones (the same timed run for the live
/// counters, then an in-process replay timed layer by layer).
/// perfbench/run.py builds the runner and the measured programs from
/// the checkout and passes --bin-dir and --reference.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "children.h"
#include "common/statistics.h"
#include "engine/sweep_runner.h"
#include "experiments/experiment.h"
#include "loadgen.h"
#include "replay.h"
#include "serve/client.h"
#include "serve/json.h"

namespace perfbench {
namespace {

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;
  std::string reference;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      flags->workload = value;
    } else if (key == "seed") {
      flags->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      flags->seconds = std::atof(value.c_str());
    } else if (key == "trace") {
      flags->trace = value == "1";
    } else if (key == "bin-dir") {
      flags->bin_dir = value;
    } else if (key == "reference") {
      flags->reference = value;
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return false;
    }
  }
  return flags->seconds > 0;
}

/// Set-ups per run, before and after the timed window; setup_s is the
/// median of all of them, so it spans the host's state over the run
/// rather than one second of it.
constexpr int kSetupsBefore = 4;
constexpr int kSetupsAfter = 3;

/// The outcome of one run, printed as the result line.
struct Report {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  MetricSink metrics;

  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metrics.Json().c_str());
    std::fflush(stdout);
  }
};

// ------------------------------------------------------------ served runs

/// The measured servers of one workload.
struct Deployment {
  std::vector<Child> replicas;  // predictd processes
  Child router;                 // predict_router (fleet workloads)
  int entry_port = 0;           // where requests are sent

  void Kill() {
    for (Child& c : replicas) KillChild(&c);
    KillChild(&router);
  }
  std::vector<pid_t> pids() const {
    std::vector<pid_t> out;
    for (const Child& c : replicas) out.push_back(c.pid);
    if (router.pid > 0) out.push_back(router.pid);
    return out;
  }
};

/// Warm-up requests: reducers=3 is never generated by a workload, so
/// warm-up fills no key a timed request could reuse.
std::vector<std::string> WarmupLines() {
  std::vector<std::string> lines;
  for (int k = 0; k < 4; ++k) {
    lines.push_back("{\"id\":\"w" + std::to_string(k) +
                    "\",\"kind\":\"predict\",\"nodes\":" +
                    std::to_string(5 + k) +
                    ",\"input_gb\":1,\"reducers\":3,\"model_only\":true}");
  }
  return lines;
}

/// Spawns the workload's servers and warms them up; false on failure.
bool Deploy(const WorkloadSpec& spec, const std::string& bin_dir,
            Deployment* d) {
  const std::string predictd = bin_dir + "/predictd";
  if (spec.fleet) {
    std::string replica_list;
    for (int r = 0; r < 2; ++r) {
      Child child;
      if (!SpawnServer(predictd,
                       {"--port=0", "--threads=1", "--event-loop-threads=1",
                        "--replica-id=r" + std::to_string(r)},
                       &child)) {
        return false;
      }
      d->replicas.push_back(child);
      if (!replica_list.empty()) replica_list += ',';
      replica_list += "127.0.0.1:" + std::to_string(child.port);
    }
    if (!SpawnServer(bin_dir + "/predict_router",
                     {"--port=0", "--event-loop-threads=1",
                      "--replicas=" + replica_list},
                     &d->router)) {
      return false;
    }
    d->entry_port = d->router.port;
  } else {
    Child child;
    std::vector<std::string> flags = {"--port=0", "--event-loop-threads=1"};
    flags.insert(flags.end(), spec.server_flags.begin(),
                 spec.server_flags.end());
    if (!SpawnServer(predictd, flags, &child)) {
      return false;
    }
    d->replicas.push_back(child);
    d->entry_port = child.port;
  }
  mrperf::PredictClientOptions options;
  options.connect_timeout_ms = 5000;
  options.read_timeout_ms = 30000;
  mrperf::PredictClient client(options);
  if (!client.ConnectWithRetry("127.0.0.1", d->entry_port).ok()) return false;
  for (const std::string& line : WarmupLines()) {
    mrperf::Result<std::string> reply = client.Call(line);
    if (!reply.ok() || reply->find("\"ok\": true") == std::string::npos) {
      std::fprintf(stderr, "warm-up request failed\n");
      return false;
    }
  }
  return true;
}

/// Sums a /stats counter over the replicas.
double SumStat(const std::vector<mrperf::JsonValue>& stats,
               std::initializer_list<const char*> path) {
  double total = 0.0;
  for (const mrperf::JsonValue& s : stats) total += StatNumber(s, path);
  return total;
}

bool FetchAll(const Deployment& d, bool reset,
              std::vector<mrperf::JsonValue>* out) {
  out->clear();
  for (const Child& c : d.replicas) {
    std::optional<mrperf::JsonValue> s = FetchStats(c.port, reset);
    if (!s) return false;
    out->push_back(*s);
  }
  return true;
}

double ChildCpu(const std::vector<pid_t>& pids, double* peak_rss_mb) {
  double cpu = 0.0;
  if (peak_rss_mb != nullptr) *peak_rss_mb = 0.0;
  for (pid_t pid : pids) {
    ChildUsage usage;
    if (!ReadChildUsage(pid, &usage)) continue;
    cpu += usage.cpu_s;
    if (peak_rss_mb != nullptr) *peak_rss_mb += usage.peak_rss_mb;
  }
  return cpu;
}

int RunServed(const WorkloadSpec& spec, const Flags& flags, Report* report) {
  // Set-up: spawn, warm up. The last deployment before the timed window
  // is the one measured.
  std::vector<double> setups;
  Deployment d;
  const auto set_up = [&] {
    d.Kill();
    d = Deployment();
    const Clock::time_point t0 = Clock::now();
    if (!Deploy(spec, flags.bin_dir, &d)) return false;
    setups.push_back(SecondsBetween(t0, Clock::now()));
    return true;
  };
  for (int attempt = 0; attempt < kSetupsBefore; ++attempt) {
    if (!set_up()) return 1;
  }

  std::vector<mrperf::JsonValue> before, after;
  std::optional<mrperf::JsonValue> router_before, router_after;
  if (!FetchAll(d, /*reset=*/true, &before)) return 1;
  if (spec.fleet) router_before = FetchStats(d.router.port, false);
  const std::vector<pid_t> pids = d.pids();
  const double cpu_before = ChildCpu(pids, nullptr);

  std::vector<int> stats_ports;
  for (const Child& c : d.replicas) stats_ports.push_back(c.port);
  LoadGenerator generator({d.entry_port, d.entry_port}, stats_ports);
  if (!generator.Connect()) return 1;
  RequestSource source(spec, flags.seed);
  // CPU and memory are taken when the nominal rung has drained, so the
  // ladder rungs above it (how many run depends on the outcome) do not
  // move them.
  double peak_rss_mb = 0.0;
  double cpu_after = 0.0;
  const auto on_nominal_done = [&] { cpu_after = ChildCpu(pids, &peak_rss_mb); };
  LoadResult load =
      spec.loop == Loop::kOpen
          ? generator.RunOpen(spec, source, flags.seconds, on_nominal_done)
          : generator.RunClosed(spec, source, flags.seconds);
  if (spec.loop != Loop::kOpen) on_nominal_done();
  if (!FetchAll(d, /*reset=*/false, &after)) return 1;
  if (spec.fleet) router_after = FetchStats(d.router.port, false);
  for (int attempt = 0; attempt < kSetupsAfter; ++attempt) {
    if (!set_up()) return 1;
  }
  d.Kill();

  VerifyResult verify = VerifyServed(load.samples, /*threads=*/4);
  size_t ok = 0;
  for (const Sample& s : load.samples) ok += s.ok ? 1 : 0;
  const RungResult& nominal = load.rungs.front();
  report->attempted = load.samples.size();
  report->failed = report->attempted - ok + verify.mismatched;
  // Wrong bytes or misaddressed responses are wrong outputs, not just
  // failed operations.
  report->correct = verify.mismatched == 0 && load.duplicate_responses == 0;
  // A generator that fell behind its schedule measured itself, not the
  // servers: the run is invalid rather than fast. Behind means a p95
  // send lag above a tenth of the nominal inter-arrival gap.
  const double lag_limit_ms =
      spec.loop == Loop::kOpen ? 100.0 / spec.nominal_rps : 5.0;
  if (load.lag_p95_ms > lag_limit_ms) {
    std::fprintf(stderr, "load generator lag p95 %.3f ms: run invalid\n",
                 load.lag_p95_ms);
    report->correct = false;
  }

  const RungResult* best = nullptr;
  for (const RungResult& rung : load.rungs) {
    if (rung.passed) best = &rung;
  }
  // The /stats percentiles interpolate inside coarse histogram buckets,
  // so the transport and router hops are differences of exact means.
  double client_mean = 0.0;
  size_t answered = 0;
  for (const Sample& s : load.samples) {
    if (s.done_s < 0) continue;
    client_mean += s.latency_ms();
    ++answered;
  }
  client_mean /= std::max<double>(1.0, static_cast<double>(answered));

  MetricSink& m = report->metrics;
  if (!flags.trace) {
    m.Set("setup_s", mrperf::Median(setups), "s");
    m.Set("latency_p50_ms", nominal.p50_ms, "ms");
    m.Set("latency_p95_ms", nominal.p95_ms, "ms");
    m.Set("throughput_ops_s", static_cast<double>(nominal.ok) / nominal.window_s,
          "1/s");
    const RungResult& g = best != nullptr ? *best : nominal;
    m.Set("goodput_rps", g.goodput_rps, "1/s");
    m.Set("ok_ratio",
          1.0 - static_cast<double>(report->failed) /
                    std::max<double>(1.0, static_cast<double>(report->attempted)),
          "ratio");
    m.Set("cpu_ms_per_op",
          (cpu_after - cpu_before) * 1e3 /
              std::max<double>(1.0, static_cast<double>(nominal.ok)),
          "ms");
    m.Set("peak_rss_mb", peak_rss_mb, "MiB");
    m.Set("fj_mape_pct", verify.fj_mape_pct, "%");
    m.Set("tri_mape_pct", verify.tri_mape_pct, "%");
    return 0;
  }

  // Live per-layer counters of the timed run.
  const double requests = std::max(
      1.0, SumStat(after, {"requests_total"}) - SumStat(before, {"requests_total"}));
  // Server-side latency of the timed requests: the latency histograms
  // are cumulative, so the warm-up's samples are taken out of the sums.
  double server_p50 = 0.0, server_sum = 0.0, server_count = 0.0;
  std::vector<double> per_replica;
  for (size_t r = 0; r < after.size(); ++r) {
    const double n = StatNumber(after[r], {"requests_total"}) -
                     StatNumber(before[r], {"requests_total"});
    per_replica.push_back(n);
    server_p50 += n * StatNumber(after[r], {"latency_ms", "p50"});
    for (const auto* s : {&after[r], &before[r]}) {
      const double sign = s == &after[r] ? 1.0 : -1.0;
      server_sum += sign * StatNumber(*s, {"latency_ms", "count"}) *
                    StatNumber(*s, {"latency_ms", "mean"});
      server_count += sign * StatNumber(*s, {"latency_ms", "count"});
    }
  }
  server_p50 /= std::max(1.0, requests);
  const double server_mean = server_sum / std::max(1.0, server_count);
  const double hits = SumStat(after, {"cache_window", "hits"});
  const double misses = SumStat(after, {"cache_window", "misses"});
  m.Set("serve.server_p50_ms", server_p50, "ms");
  m.Set("serve.transport_ms", client_mean - server_mean, "ms");
  m.Set("serve.evals_per_request",
        (SumStat(after, {"evaluations_total"}) -
         SumStat(before, {"evaluations_total"})) / requests,
        "ratio");
  m.Set("serve.coalesced_ratio",
        (SumStat(after, {"coalesced_total"}) - SumStat(before, {"coalesced_total"})) /
            requests,
        "ratio");
  m.Set("serve.queue_depth_max", load.queue_depth_max, "count");
  double rejected = 0.0;
  for (const char* key : {"rejected_overload_total", "rejected_shutdown_total",
                          "rejected_quota_total", "deadline_exceeded_total"}) {
    rejected += SumStat(after, {key}) - SumStat(before, {key});
  }
  m.Set("serve.rejected", rejected, "count");
  double skew = 0.0, rerouted = 0.0, hop = 0.0;
  if (spec.fleet) {
    double sum = 0.0, max = 0.0;
    for (double n : per_replica) {
      sum += n;
      max = std::max(max, n);
    }
    skew = max / std::max(1e-9, sum / static_cast<double>(per_replica.size()));
    if (router_before && router_after) {
      rerouted = StatNumber(*router_after, {"rerouted_total"}) -
                 StatNumber(*router_before, {"rerouted_total"});
    }
    hop = client_mean - server_mean;
  }
  m.Set("fleet.hop_ms", hop, "ms");
  m.Set("fleet.replica_skew", skew, "ratio");
  m.Set("fleet.rerouted", rerouted, "count");
  m.Set("loadgen.lag_p95_ms", load.lag_p95_ms, "ms");

  std::vector<ReplayItem> items;
  for (size_t i = 0; i < load.samples.size() && items.size() < spec.replay_requests;
       ++i) {
    ReplayItem item;
    item.line = load.samples[i].line;
    if (load.samples[i].ok) item.served = load.samples[i].response;
    items.push_back(std::move(item));
  }
  size_t replay_mismatched = 0;
  TracedReplay(items, &m, &replay_mismatched);
  report->failed += replay_mismatched;
  report->correct = report->correct && replay_mismatched == 0;
  // The live server's A4 cache, not the replay's.
  m.Set("queueing.cache_hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  m.Set("queueing.cache_misses", misses, "count");
  return 0;
}

// ----------------------------------------------------------- offline sweep

struct ReferencePoint {
  std::string figure;
  mrperf::ExperimentPoint point;
  double measured_sec = 0.0;
  double forkjoin_sec = 0.0;
  double tripathi_sec = 0.0;
};

bool LoadReference(const std::string& path, std::vector<ReferencePoint>* out) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  mrperf::Result<mrperf::JsonValue> parsed = mrperf::ParseJson(text.str());
  if (!in || !parsed.ok() || !parsed->is_array()) {
    std::fprintf(stderr, "cannot read reference %s\n", path.c_str());
    return false;
  }
  for (const mrperf::JsonValue& r : parsed->array_items()) {
    ReferencePoint p;
    if (const mrperf::JsonValue* figure = r.Find("figure");
        figure != nullptr && figure->is_string()) {
      p.figure = figure->string_value();
    }
    p.point.num_nodes = static_cast<int>(StatNumber(r, {"nodes"}));
    p.point.input_bytes = static_cast<int64_t>(StatNumber(r, {"input_bytes"}));
    p.point.num_jobs = static_cast<int>(StatNumber(r, {"jobs"}));
    p.point.block_size_bytes =
        static_cast<int64_t>(StatNumber(r, {"block_size_bytes"}));
    p.point.num_reducers = static_cast<int>(StatNumber(r, {"reducers"}));
    p.measured_sec = StatNumber(r, {"measured_sec"});
    p.forkjoin_sec = StatNumber(r, {"forkjoin_sec"});
    p.tripathi_sec = StatNumber(r, {"tripathi_sec"});
    out->push_back(p);
  }
  return !out->empty();
}

/// The figure benches' sweep options (figure_common.h): calibrated
/// options, pinned seed, 5 repetitions, shared A4 cache; 2 threads.
mrperf::SweepOptions FigureSweepOptions() {
  mrperf::SweepOptions options;
  options.num_threads = 2;
  options.experiment = mrperf::DefaultExperimentOptions();
  options.derive_point_seeds = false;
  return options;
}

bool Same(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

int RunPaper(const WorkloadSpec& spec, const Flags& flags, Report* report) {
  std::vector<ReferencePoint> reference;
  std::vector<double> setups;
  std::vector<mrperf::ExperimentPoint> points;
  // The grid split into its figures, in file order.
  std::vector<std::vector<size_t>> figures;
  const auto grid_of = [&](const std::vector<size_t>& figure) {
    std::vector<mrperf::ExperimentPoint> grid;
    for (size_t i : figure) grid.push_back(points[i]);
    return grid;
  };
  // Set-up: read the grid, build a runner, warm it on Figures 10 and 11
  // (~0.3 s; Figure 10 alone took ~40 ms, and its median over a run
  // moved by up to half between runs).
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    reference.clear();
    if (!LoadReference(flags.reference, &reference)) return false;
    points.clear();
    figures.clear();
    for (size_t i = 0; i < reference.size(); ++i) {
      points.push_back(reference[i].point);
      if (i == 0 || reference[i].figure != reference[i - 1].figure) {
        figures.emplace_back();
      }
      figures.back().push_back(i);
    }
    if (figures.size() < 2) return false;
    mrperf::SweepRunner runner(FigureSweepOptions());
    for (size_t f = 0; f < 2; ++f) {
      if (!runner.Run(grid_of(figures[f])).all_ok()) return false;
    }
    setups.push_back(SecondsBetween(t0, Clock::now()));
    return true;
  };
  for (int attempt = 0; attempt < kSetupsBefore; ++attempt) {
    if (!set_up()) return 1;
  }

  rusage usage_before{};
  getrusage(RUSAGE_SELF, &usage_before);
  const auto cpu_of = [](const rusage& u) {
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
  };
  std::vector<double> latencies;
  std::vector<double> fj_errors, tri_errors;
  size_t ok = 0, failed = 0, within_limit = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  // Whole rounds of all figures, so every run evaluates the same mix.
  while (elapsed < flags.seconds) {
    for (const std::vector<size_t>& figure : figures) {
      // One closed-loop operation: a figure's sweep on a fresh runner, as
      // its figure bench runs it. Each point's latency runs from the
      // sweep's submission to that point's completion. One sweep of the
      // whole grid put its median at a gap between the light and heavy
      // points' completions, and which side it fell on moved with the
      // two workers' schedule (README.md, "Why paper-validate sweeps
      // figure by figure").
      mrperf::SweepOptions options = FigureSweepOptions();
      Clock::time_point sweep_start;
      options.progress = [&](const mrperf::SweepProgress&) {
        const double ms = SecondsBetween(sweep_start, Clock::now()) * 1e3;
        latencies.push_back(ms);
        if (ms <= spec.latency_limit_ms) ++within_limit;
      };
      const std::vector<mrperf::ExperimentPoint> grid = grid_of(figure);
      mrperf::SweepRunner runner(options);
      sweep_start = Clock::now();
      const mrperf::SweepReport sweep = runner.Run(grid);
      for (size_t k = 0; k < figure.size(); ++k) {
        const auto& r = sweep.results[k];
        const ReferencePoint& want = reference[figure[k]];
        if (!r.ok() || !Same(r->forkjoin_sec, want.forkjoin_sec) ||
            !Same(r->tripathi_sec, want.tripathi_sec) ||
            !Same(r->measured_sec, want.measured_sec)) {
          ++failed;
          continue;
        }
        ++ok;
        fj_errors.push_back(r->forkjoin_error);
        tri_errors.push_back(r->tripathi_error);
      }
    }
    elapsed = SecondsBetween(start, Clock::now());
  }
  rusage usage_after{};
  getrusage(RUSAGE_SELF, &usage_after);
  for (int attempt = 0; attempt < kSetupsAfter; ++attempt) {
    if (!set_up()) return 1;
  }

  report->attempted = ok + failed;
  report->failed = failed;
  report->correct = failed == 0;
  MetricSink& m = report->metrics;
  if (!flags.trace) {
    m.Set("setup_s", mrperf::Median(setups), "s");
    m.Set("latency_p50_ms", Percentile(latencies, 50), "ms");
    m.Set("latency_p95_ms", Percentile(latencies, 95), "ms");
    m.Set("throughput_ops_s", static_cast<double>(ok) / elapsed, "1/s");
    m.Set("goodput_rps", static_cast<double>(within_limit) / elapsed, "1/s");
    m.Set("ok_ratio",
          static_cast<double>(ok) / std::max<double>(1.0, static_cast<double>(report->attempted)),
          "ratio");
    m.Set("cpu_ms_per_op",
          (cpu_of(usage_after) - cpu_of(usage_before)) * 1e3 /
              std::max<double>(1.0, static_cast<double>(ok)),
          "ms");
    m.Set("peak_rss_mb", static_cast<double>(usage_after.ru_maxrss) / 1024.0,
          "MiB");
    m.Set("fj_mape_pct", MeanAbsPct(fj_errors), "%");
    m.Set("tri_mape_pct", MeanAbsPct(tri_errors), "%");
    return 0;
  }

  std::vector<ReplayItem> items;
  for (const mrperf::ExperimentPoint& point : points) {
    ReplayItem item;
    item.task.point = point;
    item.task.options = FigureSweepOptions().experiment;
    item.task.derive_seed = false;
    items.push_back(item);
  }
  size_t replay_mismatched = 0;
  TracedReplay(items, &m, &replay_mismatched);
  report->failed += replay_mismatched;
  report->correct = report->correct && replay_mismatched == 0;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::fprintf(stderr,
               "perfbench: refusing to measure a non-Release or sanitizer "
               "build\n");
  return 3;
#endif
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  const WorkloadSpec* spec = FindWorkload(flags.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", flags.workload.c_str());
    return 2;
  }
  InstallChildHygiene();
  Report report;
  // Layers a workload does not exercise report 0.
  if (flags.trace) DeclarePerLayerMetrics(&report.metrics);
  const int status = spec->loop == Loop::kOffline
                         ? RunPaper(*spec, flags, &report)
                         : RunServed(*spec, flags, &report);
  KillAllChildren();
  if (status != 0) return status;
  if (report.attempted == 0) return 1;
  report.Print();
  return 0;
}
