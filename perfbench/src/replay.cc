#include "replay.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "experiments/experiment.h"
#include "experiments/scenario.h"
#include "model/estimators.h"
#include "model/input.h"
#include "model/overlap.h"
#include "model/precedence_tree.h"
#include "model/timeline.h"
#include "queueing/solve_cache.h"
#include "serve/request.h"
#include "workload/wordcount.h"

namespace perfbench {
namespace {

using mrperf::ExperimentOptions;
using mrperf::ExperimentPoint;
using mrperf::ExperimentResult;
using mrperf::ModelResult;

double MsSince(Clock::time_point t0) {
  return SecondsBetween(t0, Clock::now()) * 1e3;
}

/// Model options of a task with `cache` as the A4 memo.
ExperimentOptions WithCache(const ExperimentOptions& options,
                            mrperf::SolveCache* cache) {
  ExperimentOptions out = options;
  out.model.mva_cache = cache;
  out.model.mva_scratch = nullptr;
  return out;
}

/// Forwards every call to a real cache and times the A4 work it sees:
/// a hit costs its Lookup, a miss costs the solve between the missed
/// Lookup and the Insert that follows it (SolveThrough's protocol). It
/// also keeps the last solution handed out, which is the final outer
/// iteration's A4 state once SolveModel returns.
class TimingSolveCache : public mrperf::SolveCache {
 public:
  explicit TimingSolveCache(mrperf::SolveCache* inner) : inner_(inner) {}

  std::optional<mrperf::OverlapMvaSolution> Lookup(
      const std::string& key) override {
    const Clock::time_point t0 = Clock::now();
    std::optional<mrperf::OverlapMvaSolution> hit = inner_->Lookup(key);
    if (hit) {
      a4_ms_ += MsSince(t0);
      last_ = *hit;
      ++hits_;
    } else {
      miss_start_ = Clock::now();
      ++misses_;
    }
    return hit;
  }
  void Insert(const std::string& key,
              const mrperf::OverlapMvaSolution& solution) override {
    a4_ms_ += MsSince(miss_start_);
    last_ = solution;
    inner_->Insert(key, solution);
  }
  mrperf::MvaCacheStats stats() const override { return inner_->stats(); }
  mrperf::MvaCacheStats ResetStats() override { return inner_->ResetStats(); }
  void Clear() override { inner_->Clear(); }
  int shard_count() const override { return inner_->shard_count(); }
  int64_t max_entries() const override { return inner_->max_entries(); }
  void ForEachEntry(
      const std::function<void(const std::string&,
                               const mrperf::OverlapMvaSolution&)>& fn)
      const override {
    inner_->ForEachEntry(fn);
  }

  double a4_ms() const { return a4_ms_; }
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  const mrperf::OverlapMvaSolution& last() const { return last_; }

 private:
  mrperf::SolveCache* inner_;
  Clock::time_point miss_start_;
  double a4_ms_ = 0.0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  mrperf::OverlapMvaSolution last_;
};

/// The model input RunModelPrediction builds for `point` (the same
/// cluster, configuration and profile resolution as experiments/).
mrperf::Result<mrperf::ModelInput> InputFor(const ExperimentPoint& point,
                                            const ExperimentOptions& options) {
  mrperf::ClusterConfig cluster = mrperf::PaperCluster(point.num_nodes);
  if (!point.scenario.cluster.empty()) {
    cluster.node_groups = point.scenario.cluster;
    cluster.num_nodes = cluster.TotalNodes();
  }
  mrperf::JobProfile profile = options.profile;
  if (!point.scenario.profile.empty()) {
    MRPERF_ASSIGN_OR_RETURN(profile,
                            mrperf::WorkloadProfileByName(point.scenario.profile));
  }
  return mrperf::ModelInputFromHerodotou(
      cluster,
      mrperf::PaperHadoopConfig(point.block_size_bytes, point.num_reducers),
      profile, point.input_bytes, point.num_jobs);
}

/// Per-iteration cost of A2, A3, the precedence trees and the A5
/// estimators, timed once on the converged state of a solve.
struct IterationCosts {
  double timeline_ms = 0.0;
  double overlap_ms = 0.0;
  double tree_ms = 0.0;
  double estimator_ms = 0.0;
};

IterationCosts TimeConvergedIteration(const ExperimentPoint& point,
                                      const ExperimentOptions& options,
                                      const ModelResult& model,
                                      const mrperf::OverlapMvaSolution& mva) {
  IterationCosts costs;
  mrperf::Result<mrperf::ModelInput> input = InputFor(point, options);
  if (!input.ok()) return costs;
  // The converged class responses; the network-contention multiplier
  // is internal to SolveModel and taken as 1 here.
  mrperf::TaskDurations durations;
  durations.map = model.map_response;
  durations.merge = model.merge_response;
  durations.shuffle_per_remote_map = input->shuffle_per_remote_map_sec;
  const int nodes = input->NodeCount();
  const double remote_maps =
      nodes > 1 ? input->map_tasks * (1.0 - 1.0 / nodes) : 0.0;
  durations.shuffle_sort_base =
      std::max(0.0, model.shuffle_sort_response -
                        remote_maps * durations.shuffle_per_remote_map);
  Clock::time_point t0 = Clock::now();
  (void)mrperf::BuildTimeline(*input, durations);
  costs.timeline_ms = MsSince(t0);

  const mrperf::Timeline& timeline = model.timeline;
  t0 = Clock::now();
  mrperf::Result<mrperf::GroupedOverlapFactors> overlap =
      mrperf::ComputeGroupedOverlapFactors(timeline, options.model.overlap);
  costs.overlap_ms = MsSince(t0);
  if (!overlap.ok()) return costs;

  // Leaf responses of the final A4 solution, per task.
  mrperf::OverlapMvaSolution per_task =
      mva.response.size() == timeline.tasks.size()
          ? mva
          : mrperf::ExpandGroupedMvaSolution(mva, overlap->task_group);
  if (per_task.response.size() != timeline.tasks.size()) return costs;
  const auto leaf = [&per_task](int task) { return per_task.response[task]; };
  mrperf::TreeOptions tree_options;
  tree_options.balance = options.model.balance_tree;
  for (int job = 0; job < input->num_jobs; ++job) {
    t0 = Clock::now();
    mrperf::Result<mrperf::PrecedenceTree> tree =
        mrperf::BuildPrecedenceTree(timeline, job, tree_options);
    costs.tree_ms += MsSince(t0);
    if (!tree.ok()) continue;
    t0 = Clock::now();
    (void)mrperf::EstimateForkJoin(*tree, leaf, options.model.estimator);
    (void)mrperf::EstimateTripathi(*tree, leaf, options.model.estimator);
    costs.estimator_ms += MsSince(t0);
  }
  return costs;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}


/// Runs fn(i) for i in [0, n) on `threads` threads.
void ParallelFor(size_t n, int threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace

VerifyResult VerifyServed(const std::vector<Sample>& samples, int threads) {
  const ExperimentOptions base = mrperf::DefaultExperimentOptions();
  struct Work {
    size_t sample;
    std::optional<std::string> id;
    mrperf::SweepRunner::Task task;
    size_t point;
    std::vector<double> rep_means;
  };
  std::vector<Work> work;
  std::map<std::string, size_t> point_index;
  std::vector<ExperimentPoint> points;
  size_t mismatched = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (!samples[i].ok) continue;
    mrperf::Result<mrperf::ServeRequest> parsed =
        mrperf::ParseServeRequest(samples[i].line);
    if (!parsed.ok()) {
      ++mismatched;
      continue;
    }
    Work w;
    w.sample = i;
    w.id = parsed->id;
    w.task = mrperf::TaskForRequest(parsed->predict, base);
    // The model's identity: the canonical key without the simulator's
    // seed and repetitions.
    mrperf::PredictRequest model_request = parsed->predict;
    model_request.repetitions = 0;
    model_request.seed = 0;
    auto [it, inserted] = point_index.emplace(
        mrperf::CanonicalPredictKey(model_request), points.size());
    if (inserted) points.push_back(w.task.point);
    w.point = it->second;
    work.push_back(std::move(w));
  }

  // One model solve per distinct point: the model never depends on the
  // request's seed or repetitions. No A4 cache: the oracle is plain
  // recomputation, so a cache that broke its bit-identity promise in the
  // server would show as a mismatch.
  std::vector<mrperf::Result<ModelResult>> models(
      points.size(), mrperf::Status::Internal("not evaluated"));
  // Model-only requests have no measurement: their accuracy reference
  // is a 5-repetition simulation at the default seed.
  std::vector<double> reference(points.size(), 0.0);
  ParallelFor(points.size(), threads, [&](size_t p) {
    models[p] = mrperf::RunModelPrediction(points[p], base);
    ExperimentOptions sim_options = base;
    sim_options.repetitions = 5;
    mrperf::Result<double> median =
        mrperf::RunSimulatedMeasurement(points[p], sim_options);
    reference[p] = median.ok() ? *median : 0.0;
  });
  ParallelFor(work.size(), threads, [&](size_t i) {
    Work& w = work[i];
    for (int rep = 0; rep < w.task.options.repetitions; ++rep) {
      mrperf::Result<double> mean =
          mrperf::RunSimulatedRepetition(w.task.point, w.task.options, rep);
      w.rep_means.push_back(mean.ok() ? *mean : std::nan(""));
    }
  });

  std::vector<double> fj_errors, tri_errors;
  std::vector<char> point_scored(points.size(), 0);
  for (const Work& w : work) {
    const mrperf::Result<ModelResult>& model = models[w.point];
    std::string expected;
    mrperf::Result<ExperimentResult> result =
        model.ok() ? mrperf::AssembleExperimentResult(w.task.point, *model,
                                                      w.rep_means)
                   : mrperf::Result<ExperimentResult>(model.status());
    if (result.ok()) expected = mrperf::MakePredictResponse(w.id, *result);
    if (expected != samples[w.sample].response) {
      ++mismatched;
      continue;
    }
    if (samples[w.sample].rung != 0) continue;
    if (!w.rep_means.empty()) {
      fj_errors.push_back(result->forkjoin_error);
      tri_errors.push_back(result->tripathi_error);
    } else if (!point_scored[w.point] && reference[w.point] > 0) {
      point_scored[w.point] = 1;
      fj_errors.push_back((result->forkjoin_sec - reference[w.point]) /
                          reference[w.point]);
      tri_errors.push_back((result->tripathi_sec - reference[w.point]) /
                           reference[w.point]);
    }
  }
  VerifyResult out;
  out.mismatched = mismatched;
  out.fj_mape_pct = MeanAbsPct(fj_errors);
  out.tri_mape_pct = MeanAbsPct(tri_errors);
  return out;
}

void TracedReplay(const std::vector<ReplayItem>& items, MetricSink* sink,
                  size_t* mismatched) {
  const ExperimentOptions base = mrperf::DefaultExperimentOptions();
  std::unique_ptr<mrperf::SolveCache> inner = mrperf::MakeSolveCache(1, 4096);
  TimingSolveCache cache(inner.get());

  double parse_us = 0, key_us = 0, task_us = 0, serialize_us = 0;
  double request_ms = 0, solve_ms = 0, sim_ms = 0, traced_work_ms = 0;
  double timeline_ms = 0, overlap_ms = 0, tree_ms = 0, estimator_ms = 0;
  double iterations = 0, sweeps = 0;
  size_t served_lines = 0, reps = 0;
  std::vector<mrperf::SweepRunner::Task> tasks;

  for (const ReplayItem& item : items) {
    const Clock::time_point request_start = Clock::now();
    mrperf::SweepRunner::Task task = item.task;
    std::optional<std::string> id;
    if (!item.line.empty()) {
      Clock::time_point t0 = Clock::now();
      mrperf::Result<mrperf::ServeRequest> parsed =
          mrperf::ParseServeRequest(item.line);
      parse_us += MsSince(t0) * 1e3;
      if (!parsed.ok()) {
        ++*mismatched;
        continue;
      }
      t0 = Clock::now();
      const std::string key = mrperf::CanonicalPredictKey(parsed->predict);
      key_us += MsSince(t0) * 1e3;
      t0 = Clock::now();
      task = mrperf::TaskForRequest(parsed->predict, base);
      task_us += MsSince(t0) * 1e3;
      id = parsed->id;
      ++served_lines;
    }
    tasks.push_back(task);

    const ExperimentOptions options = WithCache(task.options, &cache);
    Clock::time_point t0 = Clock::now();
    mrperf::Result<ModelResult> model =
        mrperf::RunModelPrediction(task.point, options);
    const double model_ms = MsSince(t0);
    solve_ms += model_ms;
    if (!model.ok()) {
      ++*mismatched;
      continue;
    }
    std::vector<double> rep_means;
    double item_sim_ms = 0.0;
    for (int rep = 0; rep < task.options.repetitions; ++rep) {
      t0 = Clock::now();
      mrperf::Result<double> mean =
          mrperf::RunSimulatedRepetition(task.point, task.options, rep);
      item_sim_ms += MsSince(t0);
      rep_means.push_back(mean.ok() ? *mean : std::nan(""));
    }
    sim_ms += item_sim_ms;
    reps += rep_means.size();
    traced_work_ms += model_ms + item_sim_ms;
    mrperf::Result<ExperimentResult> result =
        mrperf::AssembleExperimentResult(task.point, *model, rep_means);
    if (!item.line.empty()) {
      t0 = Clock::now();
      const std::string response =
          result.ok() ? mrperf::MakePredictResponse(id, *result) : std::string();
      serialize_us += MsSince(t0) * 1e3;
      if (!item.served.empty() && response != item.served) ++*mismatched;
    }
    request_ms += MsSince(request_start);

    // Outside the request's time: one timed pass of A2, A3 and A5 on
    // the converged state, scaled by the outer iterations it ran.
    const IterationCosts costs =
        TimeConvergedIteration(task.point, options, *model, cache.last());
    iterations += model->iterations;
    sweeps += static_cast<double>(model->mva_iterations);
    timeline_ms += costs.timeline_ms * model->iterations;
    overlap_ms += costs.overlap_ms * model->iterations;
    tree_ms += costs.tree_ms * model->iterations;
    estimator_ms += costs.estimator_ms * model->iterations;
  }

  // The same work untraced, for the tracing overhead.
  std::unique_ptr<mrperf::SolveCache> plain = mrperf::MakeSolveCache(1, 4096);
  const Clock::time_point untraced_start = Clock::now();
  for (const mrperf::SweepRunner::Task& task : tasks) {
    (void)mrperf::RunExperiment(task.point, WithCache(task.options, plain.get()));
  }
  const double untraced_ms = MsSince(untraced_start);

  mrperf::SweepOptions sweep;
  sweep.num_threads = 2;
  sweep.experiment = base;
  sweep.derive_point_seeds = false;
  mrperf::SweepRunner runner(sweep);
  // The tasks are CPU-bound, so the process CPU time spent inside
  // RunTasks is the summed task time of the engine's workers.
  const double cpu_before = ProcessCpuSeconds();
  const mrperf::SweepReport report = runner.RunTasks(tasks);
  const double engine_cpu_ms = (ProcessCpuSeconds() - cpu_before) * 1e3;

  const double n = std::max<double>(1.0, static_cast<double>(tasks.size()));
  const double lines = std::max<double>(1.0, static_cast<double>(served_lines));
  const double req = std::max(1e-9, request_ms);
  sink->Set("model.solve_ms", solve_ms / n, "ms");
  sink->Set("model.outer_iters", iterations / n, "count");
  sink->Set("model.timeline_share", timeline_ms / req, "ratio");
  sink->Set("model.overlap_share", overlap_ms / req, "ratio");
  sink->Set("model.tree_share", tree_ms / req, "ratio");
  sink->Set("model.estimator_share", estimator_ms / req, "ratio");
  sink->Set("model.replay_coverage",
            (timeline_ms + overlap_ms + tree_ms + estimator_ms + cache.a4_ms()) /
                std::max(1e-9, solve_ms),
            "ratio");
  sink->Set("queueing.mva_share", cache.a4_ms() / req, "ratio");
  sink->Set("queueing.mva_sweeps", sweeps, "count");
  // Executed A4 solves: every miss runs one (warm starts are off). The
  // server's cache.solves counter cannot be used for this yet; see
  // README.md.
  sink->Set("queueing.solves", static_cast<double>(cache.misses()), "count");
  sink->Set("queueing.cache_hit_ratio",
            static_cast<double>(cache.hits()) /
                std::max<double>(1.0, static_cast<double>(cache.hits() + cache.misses())),
            "ratio");
  sink->Set("queueing.cache_misses", static_cast<double>(cache.misses()), "count");
  sink->Set("sim.rep_ms", reps > 0 ? sim_ms / static_cast<double>(reps) : 0.0,
            "ms");
  sink->Set("sim.reps", static_cast<double>(reps), "count");
  sink->Set("sim.share", sim_ms / req, "ratio");
  sink->Set("engine.busy_share",
            engine_cpu_ms / std::max(1e-9, report.wall_seconds * 1e3 *
                                               runner.thread_count()),
            "ratio");
  sink->Set("engine.tasks", static_cast<double>(tasks.size()), "count");
  sink->Set("experiments.task_us", served_lines > 0 ? task_us / lines : 0.0,
            "us");
  sink->Set("serve.parse_us", served_lines > 0 ? parse_us / lines : 0.0, "us");
  sink->Set("serve.key_us", served_lines > 0 ? key_us / lines : 0.0, "us");
  sink->Set("serve.serialize_us",
            served_lines > 0 ? serialize_us / lines : 0.0, "us");
  sink->Set("trace.overhead_ratio",
            traced_work_ms / std::max(1e-9, untraced_ms), "ratio");
  if (!report.all_ok()) ++*mismatched;
}

}  // namespace perfbench
