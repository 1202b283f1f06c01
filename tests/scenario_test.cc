// Tests for the declarative scenario matrix (src/scenario): the committed
// smoke-matrix cell list (pinned so bench/CMakeLists.txt and the blessed
// baselines under bench/baselines/ cannot drift from it silently), the cell
// naming scheme, the recovery-gap metric, the deterministic streaming-TACC
// frame schedule, and one full cell run end to end.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/obs/artifact.h"
#include "src/scenario/matrix.h"
#include "src/scenario/scenario.h"
#include "src/tacc/streaming.h"
#include "src/util/json_reader.h"
#include "src/util/logging.h"

namespace sns {
namespace {

// The committed smoke matrix, by name and in order. bench/CMakeLists.txt names
// these cells literally and bench/baselines/<name>.json holds one blessed
// baseline per cell — a change here must update both (and re-bless).
const char* const kSmokeCellNames[] = {
    "zipf_w2fe1c2r2u_f0_nom",
    "zipf_w2fe1c2r2u_f0_sat",
    "zipf_w4fe2c3r3u_f31_nom",
    "replay_w2fe2c2r1u_f0_nom",
    "replay_w4fe2c4r2u_f0_nom",
    "replay_w2fe1c2r1u_f0_sat",
    "flash_w3fe2c2r2u_f0_nom",
    "flash_w3fe2c2r2u_f47_nom",
    "flash_w3fe2c2r1u_f47_nom",
    "diurnal_w2fe1c2r2cw_f0_nom",
    "diurnal_w3fe2c2r2cw_f5a_nom",
    "stream_w2fe1c2r2u_f0_nom",
    "stream_w3fe2c2r3u_f6b_nom",
    "stream_w2fe1c2r2u_f0_sat",
};

TEST(ScenarioMatrixTest, SmokeMatrixPinsItsCellNames) {
  std::vector<ScenarioCell> cells = SmokeMatrix();
  ASSERT_EQ(cells.size(), sizeof(kSmokeCellNames) / sizeof(kSmokeCellNames[0]));
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].Name(), kSmokeCellNames[i]) << "cell " << i;
  }
}

TEST(ScenarioMatrixTest, SmokeMatrixCoversRequiredAxes) {
  std::vector<ScenarioCell> cells = SmokeMatrix();
  EXPECT_GE(cells.size(), 12u);  // The issue's floor for the CI matrix.
  int stream = 0, flash = 0, faulted = 0, saturating = 0, core_weighted = 0;
  std::set<int> replication;
  std::set<std::string> names;
  for (const ScenarioCell& cell : cells) {
    EXPECT_TRUE(names.insert(cell.Name()).second) << "duplicate " << cell.Name();
    stream += cell.workload == WorkloadShape::kStream;
    flash += cell.workload == WorkloadShape::kFlashCrowd;
    faulted += cell.fault_seed != 0;
    saturating += cell.regime == OverloadRegime::kSaturating;
    core_weighted += cell.cluster.votes == VoteLayout::kCoreWeighted;
    replication.insert(cell.cluster.cache_replication);
    if (cell.fault_seed != 0) {
      // Every fault window must heal before the drain: the schedule horizon
      // plus the longest outage has to fit inside the measured window.
      EXPECT_LE(cell.gen.horizon + cell.gen.max_outage, cell.measure)
          << cell.Name();
    }
  }
  EXPECT_GE(stream, 1);
  EXPECT_GE(flash, 1);
  EXPECT_GE(faulted, 1);
  EXPECT_GE(saturating, 1);
  EXPECT_GE(core_weighted, 1);
  EXPECT_EQ(replication, (std::set<int>{1, 2, 3}));
}

TEST(ScenarioMatrixTest, FindCellResolvesNamesExactly) {
  std::vector<ScenarioCell> cells = SmokeMatrix();
  const ScenarioCell* cell = FindCell(cells, "stream_w3fe2c2r3u_f6b_nom");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->workload, WorkloadShape::kStream);
  EXPECT_EQ(cell->cluster.cache_replication, 3);
  EXPECT_EQ(cell->stream.sessions, 10);
  EXPECT_EQ(FindCell(cells, "no_such_cell"), nullptr);
}

TEST(ScenarioCellTest, NameEncodesEveryAxis) {
  ScenarioCell cell;
  cell.workload = WorkloadShape::kDiurnal;
  cell.cluster.worker_pool_nodes = 5;
  cell.cluster.front_ends = 3;
  cell.cluster.cache_nodes = 4;
  cell.cluster.cache_replication = 2;
  cell.cluster.votes = VoteLayout::kCoreWeighted;
  cell.regime = OverloadRegime::kSaturating;
  cell.fault_seed = 0xAB;
  EXPECT_EQ(cell.Name(), "diurnal_w5fe3c4r2cw_fab_sat");
  cell.fault_seed = 0;
  cell.cluster.votes = VoteLayout::kUniform;
  cell.regime = OverloadRegime::kNominal;
  EXPECT_EQ(cell.Name(), "diurnal_w5fe3c4r2u_f0_nom");
}

TEST(RecoveryGapTest, NoCompletionsAtAllIsOneLongGap) {
  std::map<int64_t, int64_t> per_second;
  EXPECT_EQ(LongestZeroCompletionGap(per_second, 10, 20), 10);
}

TEST(RecoveryGapTest, FullCoverageHasZeroGap) {
  std::map<int64_t, int64_t> per_second;
  for (int64_t s = 10; s < 20; ++s) {
    per_second[s] = 1;
  }
  EXPECT_EQ(LongestZeroCompletionGap(per_second, 10, 20), 0);
}

TEST(RecoveryGapTest, ReportsTheLongestInteriorGap) {
  std::map<int64_t, int64_t> per_second;
  for (int64_t s = 0; s < 30; ++s) {
    per_second[s] = 1;
  }
  per_second.erase(4);               // 1 s gap.
  for (int64_t s = 12; s < 17; ++s) {  // 5 s gap.
    per_second.erase(s);
  }
  EXPECT_EQ(LongestZeroCompletionGap(per_second, 0, 30), 5);
}

TEST(RecoveryGapTest, GapsAtTheWindowEdgesCount) {
  std::map<int64_t, int64_t> per_second;
  per_second[13] = 2;  // Covered second in the middle; gaps of 3 and 6 around it.
  EXPECT_EQ(LongestZeroCompletionGap(per_second, 10, 20), 6);
  // Buckets outside the window are ignored.
  per_second[9] = 5;
  per_second[25] = 5;
  EXPECT_EQ(LongestZeroCompletionGap(per_second, 10, 20), 6);
}

TEST(StreamScheduleTest, SameConfigYieldsIdenticalSchedule) {
  StreamSessionConfig config;
  config.sessions = 5;
  config.duration = Seconds(12);
  int64_t space = StreamUrlSpace(config);
  std::vector<StreamFrame> a = GenerateStreamFrames(config, space);
  std::vector<StreamFrame> b = GenerateStreamFrames(config, space);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), static_cast<size_t>(config.sessions) *
                          static_cast<size_t>(StreamFramesPerSession(config)));
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].session, b[i].session);
    EXPECT_EQ(a[i].frame, b[i].frame);
    EXPECT_EQ(a[i].url_index, b[i].url_index);
  }
  config.seed ^= 1;
  std::vector<StreamFrame> c = GenerateStreamFrames(config, space);
  bool differs = false;
  for (size_t i = 0; i < a.size() && i < c.size(); ++i) {
    differs = differs || a[i].at != c[i].at;
  }
  EXPECT_TRUE(differs) << "reseeding did not move the frame schedule";
}

TEST(StreamScheduleTest, FramesAreOrderedFreshAndSessionDisjoint) {
  StreamSessionConfig config;
  config.sessions = 4;
  config.duration = Seconds(10);
  int64_t space = StreamUrlSpace(config);
  std::vector<StreamFrame> frames = GenerateStreamFrames(config, space);
  ASSERT_FALSE(frames.empty());
  std::set<int64_t> urls;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(frames[i].at, frames[i - 1].at);
    }
    EXPECT_GE(frames[i].at, 0);
    EXPECT_LT(frames[i].url_index, space);
    // Every frame is fresh content: no URL ever repeats across the whole run.
    EXPECT_TRUE(urls.insert(frames[i].url_index).second)
        << "frame " << i << " reuses url " << frames[i].url_index;
  }
}

// One cell end to end: clean nominal run, invariants hold, and the artifact
// parses with the shared reader and carries every section plus the matrix cell.
TEST(ScenarioCellTest, NominalZipfCellRunsCleanAndWritesArtifact) {
  Logger::Get().set_min_level(LogLevel::kNone);
  std::vector<ScenarioCell> cells = SmokeMatrix();
  const ScenarioCell* cell = FindCell(cells, "zipf_w2fe1c2r2u_f0_nom");
  ASSERT_NE(cell, nullptr);
  CellRunOptions options;
  options.artifact_dir = testing::TempDir();
  CellResult result = RunScenarioCell(*cell, options);
  EXPECT_TRUE(result.passed()) << result.invariants.ToString();
  EXPECT_EQ(result.faults_injected, 0);
  EXPECT_GT(result.metrics.sent, 0);
  EXPECT_GT(result.metrics.goodput, 0.95);
  EXPECT_GT(result.metrics.latency_p50_s, 0.0);
  EXPECT_GE(result.metrics.latency_p99_s, result.metrics.latency_p50_s);
  EXPECT_GE(result.metrics.hit_rate, 0.0);
  EXPECT_LE(result.metrics.hit_rate, 1.0);
  EXPECT_EQ(result.metrics.recovery_s, 0.0);  // Fault-free: no outage window.
  EXPECT_EQ(result.metrics.late_completions, 0);

  ASSERT_TRUE(result.artifact_written);
  std::string text;
  ASSERT_TRUE(ReadFileToString(result.artifact_path, &text)) << result.artifact_path;
  JsonReader reader(text);
  std::set<std::string> sections;
  std::string matrix_cell;
  std::string key;
  ASSERT_TRUE(reader.BeginObject()) << reader.error();
  while (reader.NextMember(&key)) {
    sections.insert(key);
    if (key != "matrix") {
      reader.Skip();
      continue;
    }
    std::string field;
    ASSERT_TRUE(reader.BeginObject()) << reader.error();
    while (reader.NextMember(&field)) {
      if (field == "cell") {
        reader.ReadString(&matrix_cell);
      } else {
        reader.Skip();
      }
    }
  }
  ASSERT_TRUE(reader.ExpectEnd()) << reader.error();
  for (const char* section : kArtifactSections) {
    EXPECT_EQ(sections.count(section), 1u) << section;
  }
  EXPECT_EQ(sections.count("matrix"), 1u);
  EXPECT_EQ(matrix_cell, "zipf_w2fe1c2r2u_f0_nom");
  EXPECT_NE(MatrixSectionJson(result).find("\"invariants_ok\":true"), std::string::npos);

  std::string baseline = BaselineJson(result);
  EXPECT_NE(baseline.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(baseline.find("\"cell\":\"zipf_w2fe1c2r2u_f0_nom\""), std::string::npos);
  // v2 baselines carry the availability ledger's run metrics so bench_diff
  // can gate them alongside goodput.
  EXPECT_NE(baseline.find("\"yield\":"), std::string::npos);
  EXPECT_NE(baseline.find("\"harvest\":"), std::string::npos);
}

}  // namespace
}  // namespace sns
