/// Stored exact goldens for the modified-MVA model: the model-only
/// Fork/Join and Tripathi responses and outer-loop iteration counts of
/// the six Figure 10/11 points (1 GB WordCount, 4/6/8 nodes, 1 and 4
/// concurrent jobs, 128 MB blocks) under DefaultExperimentOptions,
/// compared bit for bit against tests/golden/model_fig10_11.csv.
///
/// The other model goldens compare one code path with another, so a
/// change that moves every path together passes them; this one pins the
/// numbers themselves. The file holds RunModelPrediction's values
/// printed with %.17g, which round-trips a double exactly. Regenerate it
/// only for a deliberate numeric change, and say why in CHANGES.md.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/experiment.h"

namespace mrperf {
namespace {

struct GoldenRow {
  int nodes = 0;
  double input_gb = 0.0;
  int jobs = 0;
  double forkjoin_response = 0.0;
  double tripathi_response = 0.0;
  int iterations = 0;
};

/// Parses the golden CSV (header line, then one row per point).
std::vector<GoldenRow> ReadGolden(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file) << "cannot open " << path;
  std::vector<GoldenRow> rows;
  std::string line;
  std::getline(file, line);  // header
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    std::vector<std::string> cells;
    std::stringstream fields(line);
    std::string cell;
    while (std::getline(fields, cell, ',')) cells.push_back(cell);
    EXPECT_EQ(cells.size(), 6u) << line;
    if (cells.size() != 6) continue;
    GoldenRow row;
    row.nodes = std::atoi(cells[0].c_str());
    row.input_gb = std::strtod(cells[1].c_str(), nullptr);
    row.jobs = std::atoi(cells[2].c_str());
    row.forkjoin_response = std::strtod(cells[3].c_str(), nullptr);
    row.tripathi_response = std::strtod(cells[4].c_str(), nullptr);
    row.iterations = std::atoi(cells[5].c_str());
    rows.push_back(row);
  }
  return rows;
}

/// One instance per golden row, so each ctest entry solves one point.
class StoredGoldenTest : public ::testing::TestWithParam<size_t> {};

TEST_P(StoredGoldenTest, ModelPredictionIsBitExact) {
  const std::vector<GoldenRow> golden =
      ReadGolden(std::string(MRPERF_GOLDEN_DIR) + "/model_fig10_11.csv");
  ASSERT_EQ(golden.size(), 6u);
  const GoldenRow& row = golden[GetParam()];
  ExperimentPoint point;
  point.num_nodes = row.nodes;
  point.input_bytes = static_cast<int64_t>(row.input_gb * kGiB);
  point.num_jobs = row.jobs;
  point.block_size_bytes = 128 * kMiB;
  Result<ModelResult> model =
      RunModelPrediction(point, DefaultExperimentOptions());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // gtest prints doubles at 6 significant digits; show the row this
  // build computes in the golden's own format.
  char actual[160];
  std::snprintf(actual, sizeof(actual), "computed row: %d,%g,%d,%.17g,%.17g,%d",
                row.nodes, row.input_gb, row.jobs, model->forkjoin_response,
                model->tripathi_response, model->iterations);
  EXPECT_EQ(model->forkjoin_response, row.forkjoin_response) << actual;
  EXPECT_EQ(model->tripathi_response, row.tripathi_response) << actual;
  EXPECT_EQ(model->iterations, row.iterations) << actual;
}

INSTANTIATE_TEST_SUITE_P(Fig10And11, StoredGoldenTest,
                         ::testing::Range<size_t>(0, 6));

}  // namespace
}  // namespace mrperf
