#include "engine/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/thread_annotations.h"
#include "model/model.h"
#include "queueing/mva_kernel.h"

namespace mrperf {
namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}


/// Shared state of one RunTasks fan-out. Held by shared_ptr in every
/// worker task so an exception unwinding the RunTasks frame while
/// workers are still draining can never leave them with dangling
/// references (RunTasks additionally joins every worker before
/// returning or rethrowing).
struct SweepWorkState {
  struct Unit {
    ExperimentPoint point;
    ExperimentOptions options;
  };
  std::vector<Unit> units;
  /// Chunk c covers point indices [c·chunk_points, …) — fixed before
  /// any worker starts.
  size_t chunk_points = 1;
  /// Fan a point's repetitions out as pool sub-tasks (set only when
  /// chunks leave pool threads idle, so the sub-tasks always have a
  /// free thread to run on).
  bool fan_repetitions = false;
  /// One slot per point, each written by exactly the worker holding its
  /// chunk; engaged for every point once all workers have joined.
  std::vector<std::optional<Result<ExperimentResult>>> slots;

  Mutex mu;
  std::deque<size_t> chunk_queue GUARDED_BY(mu);

  /// Steals the next whole chunk; false when the deque is empty.
  bool PopChunk(size_t* chunk) {
    MutexLock lock(mu);
    if (chunk_queue.empty()) return false;
    *chunk = chunk_queue.front();
    chunk_queue.pop_front();
    return true;
  }
};

/// Evaluates one point, fanning its independent simulator repetitions
/// out to `pool` when allowed. The fanned path computes exactly the
/// values of RunExperiment's sequential loop (seed = base_seed +
/// rep·7919) and assembles them with the shared helper, so both paths
/// are byte-identical — the fan-out decision may therefore depend on
/// worker count (it is scheduling only).
Result<ExperimentResult> EvaluatePoint(ThreadPool& pool,
                                       const ExperimentPoint& point,
                                       const ExperimentOptions& options,
                                       bool fan_repetitions) {
  const int reps = options.repetitions;
  if (!fan_repetitions || reps <= 1) return RunExperiment(point, options);

  // Sub-tasks only touch the simulator side; strip the model options so
  // no cross-thread pointer (the worker's kernel scratch) leaks into the
  // captured copies.
  ExperimentOptions sim_options = options;
  sim_options.model = ModelOptions{};
  std::vector<std::optional<std::future<Result<double>>>> futures(
      static_cast<size_t>(reps));
  std::vector<std::optional<Result<double>>> inline_results(
      static_cast<size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    try {
      futures[rep] = pool.Submit([point, sim_options, rep]() {
        return RunSimulatedRepetition(point, sim_options, rep);
      });
    } catch (const std::runtime_error&) {
      // Pool shutting down mid-sweep: finish this repetition inline.
      inline_results[rep] = RunSimulatedRepetition(point, sim_options, rep);
    }
  }
  // The model solve overlaps with the in-flight repetitions.
  Result<ModelResult> model = RunModelPrediction(point, options);

  std::vector<double> rep_means;
  rep_means.reserve(static_cast<size_t>(reps));
  Status rep_error = Status::OK();
  for (int rep = 0; rep < reps; ++rep) {
    // Drain every future even after a failure so no sub-task outlives
    // this frame unobserved.
    Result<double> mean =
        futures[rep] ? futures[rep]->get() : *std::move(inline_results[rep]);
    if (!mean.ok()) {
      if (rep_error.ok()) rep_error = mean.status();
      continue;
    }
    rep_means.push_back(*mean);
  }
  // Error precedence matches the sequential path: the first failing
  // repetition (in rep order) wins over a model failure.
  if (!rep_error.ok()) return rep_error;
  if (!model.ok()) return model.status();
  return AssembleExperimentResult(point, *model, rep_means);
}

/// Walks one stolen chunk in index order. `point_done` is the progress
/// callback hook.
void ProcessChunk(ThreadPool& pool, SweepWorkState& state, size_t chunk,
                  const std::function<void()>& point_done) {
  const size_t begin = chunk * state.chunk_points;
  const size_t end =
      std::min(begin + state.chunk_points, state.units.size());
  for (size_t i = begin; i < end; ++i) {
    const SweepWorkState::Unit& unit = state.units[i];
    ExperimentOptions opts = unit.options;
    // Resolved on the worker thread: each worker reuses one kernel
    // scratch across every point it evaluates (and across sweeps), so
    // grid sweeps stop reallocating solver buffers per point.
    opts.model.mva_scratch = &ThreadLocalMvaScratch();
    state.slots[i] =
        EvaluatePoint(pool, unit.point, opts, state.fan_repetitions);
    point_done();
  }
}

}  // namespace

size_t DefaultSweepChunkPoints(size_t points) {
  return std::max<size_t>(1, points / 32);
}

/// Counts completed points and invokes the user callback under a mutex,
/// so observers see serialized, completion-ordered snapshots whatever
/// the worker count. Shared (by value) with every worker lambda: if an
/// exception unwinds the Run* frame while pool tasks are still
/// in-flight, the last task keeps the reporter alive — a stack-local
/// would be destroyed under them. The callback and cache are copied /
/// owned by the runner, which outlives its pool.
class SweepRunner::ProgressReporter {
 public:
  ProgressReporter(std::function<void(const SweepProgress&)> callback,
                   size_t total, const SolveCache& cache)
      : callback_(std::move(callback)), total_(total), cache_(cache) {}

  /// No-op when no callback is configured.
  void PointDone() {
    if (!callback_) return;
    MutexLock lock(mu_);
    SweepProgress progress;
    progress.points_done = ++done_;
    progress.points_total = total_;
    progress.cache = cache_.stats();
    callback_(progress);
  }

 private:
  const std::function<void(const SweepProgress&)> callback_;
  const size_t total_;
  const SolveCache& cache_;
  Mutex mu_;
  size_t done_ GUARDED_BY(mu_) = 0;
};

bool SweepReport::all_ok() const {
  for (const auto& r : results) {
    if (!r.ok()) return false;
  }
  return true;
}

Status SweepReport::first_error() const {
  for (const auto& r : results) {
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

std::vector<ExperimentResult> SweepReport::values() const {
  std::vector<ExperimentResult> out;
  out.reserve(results.size());
  for (const auto& r : results) {
    if (r.ok()) out.push_back(*r);
  }
  return out;
}

uint64_t PointSeed(uint64_t base_seed, size_t point_index) {
  // SplitMix64 (Steele, Lea & Flood): full-avalanche mix of the master
  // seed and the point index. Fixed constants, no platform dependence.
  uint64_t z = base_seed + 0x9E3779B97F4A7C15ull *
                               (static_cast<uint64_t>(point_index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options)),
      cache_(MakeSolveCache(options_.cache_shards,
                            options_.cache_max_entries)),
      pool_(options_.num_threads > 0 ? options_.num_threads
                                     : ThreadPool::DefaultThreadCount()) {}

ExperimentOptions SweepRunner::PointOptions(size_t index) {
  ExperimentOptions opts = options_.experiment;
  if (options_.derive_point_seeds) {
    opts.base_seed = PointSeed(options_.experiment.base_seed, index);
  }
  opts.model.mva_cache = options_.use_mva_cache ? cache_.get() : nullptr;
  return opts;
}

SweepReport SweepRunner::Run(const std::vector<ExperimentPoint>& points) {
  std::vector<Task> tasks;
  tasks.reserve(points.size());
  for (const ExperimentPoint& point : points) {
    Task task;
    task.point = point;
    task.options = options_.experiment;
    task.derive_seed = options_.derive_point_seeds;
    tasks.push_back(std::move(task));
  }
  return RunTasks(tasks);
}

SweepReport SweepRunner::Run(const SweepGrid& grid) {
  return Run(grid.Expand());
}

SweepReport SweepRunner::RunTasks(const std::vector<Task>& tasks) {
  const auto start = SteadyClock::now();
  const size_t n = tasks.size();

  auto reporter = std::make_shared<ProgressReporter>(options_.progress, n,
                                                     *cache_);
  auto state = std::make_shared<SweepWorkState>();
  state->units.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SweepWorkState::Unit unit;
    unit.point = tasks[i].point;
    unit.options = tasks[i].options;
    if (tasks[i].derive_seed) {
      unit.options.base_seed = PointSeed(tasks[i].options.base_seed, i);
    }
    unit.options.model.mva_cache =
        options_.use_mva_cache ? cache_.get() : nullptr;
    state->units.push_back(std::move(unit));
  }
  state->chunk_points = DefaultSweepChunkPoints(n);
  const size_t num_chunks =
      n == 0 ? 0 : (n + state->chunk_points - 1) / state->chunk_points;
  state->slots.resize(n);
  {
    MutexLock lock(state->mu);
    for (size_t c = 0; c < num_chunks; ++c) state->chunk_queue.push_back(c);
  }
  const size_t workers = std::min<size_t>(
      static_cast<size_t>(pool_.thread_count()), num_chunks);
  // Small grids: with pool threads left idle by the chunk workers, fan
  // each point's simulator repetitions out as sub-tasks (the idle
  // threads run them; results are byte-identical either way).
  state->fan_repetitions =
      workers < static_cast<size_t>(pool_.thread_count());

  std::vector<std::future<void>> worker_futures;
  worker_futures.reserve(workers);
  std::exception_ptr failure;
  try {
    for (size_t w = 0; w < workers; ++w) {
      worker_futures.push_back(
          pool_.Submit([state, reporter, &pool = pool_]() {
            size_t chunk = 0;
            while (state->PopChunk(&chunk)) {
              ProcessChunk(pool, *state, chunk,
                           [&reporter]() { reporter->PointDone(); });
            }
          }));
    }
  } catch (...) {
    failure = std::current_exception();  // pool shut down mid-submit
  }
  // Join every worker before touching the slots (and before any
  // rethrow can unwind this frame).
  for (auto& f : worker_futures) {
    try {
      f.get();
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);

  SweepReport report;
  report.results.reserve(n);
  for (auto& slot : state->slots) {
    report.results.push_back(*std::move(slot));
  }
  report.wall_seconds = SecondsSince(start);
  report.threads_used = pool_.thread_count();
  report.cache_stats = cache_->stats();
  return report;
}

std::vector<Result<ModelResult>> SweepRunner::RunModels(
    const std::vector<ExperimentPoint>& points) {
  auto reporter = std::make_shared<ProgressReporter>(options_.progress,
                                                     points.size(), *cache_);
  std::vector<std::future<Result<ModelResult>>> futures;
  futures.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const ExperimentPoint point = points[i];
    ExperimentOptions opts = PointOptions(i);
    futures.push_back(pool_.Submit([point, opts, reporter]() mutable {
      opts.model.mva_scratch = &ThreadLocalMvaScratch();
      Result<ModelResult> result = RunModelPrediction(point, opts);
      reporter->PointDone();
      return result;
    }));
  }
  std::vector<Result<ModelResult>> out;
  out.reserve(points.size());
  for (auto& f : futures) {
    out.push_back(f.get());
  }
  return out;
}

}  // namespace mrperf
