// The BENCH run-artifact format: the schema version, the ordered list of
// required top-level sections, and the one writer every artifact goes through
// (the bench binaries, the scenario-matrix cells and micro_substrate).
//
//   {"meta":{"schema_version":2,"bench":<string>,"time_ns":<int>},
//    "snapshot":..,       monitor JSON (every registry metric, components, alarms)
//    "timeseries":..,     columnar ring-buffer samples from the flight recorder
//    "critical_path":..,  per-stage latency decomposition over retained traces
//    "availability":..,   harvest/yield ledger (DESIGN.md §15)
//    "profile":..,        wall-clock zone profiler snapshot
//    "traces":..          raw span trees
//    [,<extra sections>]} e.g. the scenario matrix's "matrix" section
//
// CollectRunArtifact (src/sns/system.h) fills the sections from a running
// system. tools/validate_bench_artifact and tools/bench_diff check artifacts
// against the constants below.

#ifndef SRC_OBS_ARTIFACT_H_
#define SRC_OBS_ARTIFACT_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sns {

// meta.schema_version of run artifacts and schema_version of matrix baselines.
inline constexpr int kArtifactSchemaVersion = 2;

// Every artifact carries these top-level sections, written in this order.
inline constexpr std::array<const char*, 7> kArtifactSections = {
    "meta", "snapshot", "timeseries", "critical_path", "availability", "profile",
    "traces"};

// The required sections: meta from `bench` and `time_ns`, the rest as JSON
// values.
struct RunArtifact {
  std::string bench;
  int64_t time_ns = 0;
  std::string snapshot = "{}";
  std::string timeseries = "{}";
  std::string critical_path = "{}";
  std::string availability = "{}";
  std::string profile = "{}";
  std::string traces = "{}";
};

// An optional top-level section written after the required ones: {name, JSON}.
using ArtifactSection = std::pair<std::string, std::string>;

// Writes the artifact to `path` as one line. Returns false if the file could
// not be written.
bool WriteRunArtifact(const std::string& path, const RunArtifact& artifact,
                      const std::vector<ArtifactSection>& extra = {});

}  // namespace sns

#endif  // SRC_OBS_ARTIFACT_H_
