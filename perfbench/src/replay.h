/// \file replay.h
/// \brief In-process re-evaluation of benchmark requests: the untimed
/// oracle that verifies every served response byte for byte, and the
/// traced replay that times each layer's public entry points from the
/// benchmark's own code (no spans inside the program).

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/sweep_runner.h"
#include "loadgen.h"

namespace perfbench {

/// \brief Outcome of verifying a served run.
struct VerifyResult {
  /// OK responses whose bytes differ from the in-process evaluation.
  size_t mismatched = 0;
  /// Mean absolute relative error (%) of the Fork/Join and Tripathi
  /// predictions against simulated medians: the served measurement for
  /// requests that carry repetitions, else a 5-repetition simulation at
  /// the default seed of each distinct point.
  double fj_mape_pct = 0.0;
  double tri_mape_pct = 0.0;
};

/// Re-evaluates every OK sample (TaskForRequest → model and simulator
/// repetitions → MakePredictResponse) on `threads` threads and compares
/// bytes. Model solves are shared between requests of one point.
/// Accuracy is scored on the nominal rung's requests (rung 0), so the
/// ladder rungs a run reaches do not move it.
VerifyResult VerifyServed(const std::vector<Sample>& samples, int threads);

/// \brief One request of the traced replay.
struct ReplayItem {
  /// The wire line (empty for offline sweep points).
  std::string line;
  /// What the server answered in the timed run (empty: not compared).
  std::string served;
  /// Offline sweep points: the task to evaluate (ignored with a line).
  mrperf::SweepRunner::Task task;
};

/// Replays `items` sequentially with every layer call timed, then once
/// untimed (trace overhead) and once through a 2-thread
/// SweepRunner::RunTasks (engine busy share). Writes the model, queueing,
/// sim, engine, experiments, serve parse/serialize and trace metrics to
/// `sink`; counts served bytes that differ from the replay in
/// `mismatched`.
void TracedReplay(const std::vector<ReplayItem>& items, MetricSink* sink,
                  size_t* mismatched);

}  // namespace perfbench
