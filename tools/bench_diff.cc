// Baseline-diff gate for BENCH artifacts (the perf side of matrix-smoke).
//
//   bench_diff <baseline.json | baseline-dir> <BENCH_*.json ...>
//
// Each artifact must carry a "matrix" section ({"cell":...,"metrics":{...}},
// emitted by src/scenario); its metrics are compared against the committed
// baseline — <baseline-dir>/<cell>.json, or the single baseline file — under
// per-metric tolerance rules:
//
//   latency_p50_s   current <= base * 1.35 + 0.05 s
//   latency_p99_s   current <= base * 1.35 + 0.10 s
//   goodput         current >= base * 0.90   (purely relative: goodput is a
//                   ratio of integer request counts, so runs are exactly
//                   reproducible and even a tiny base stays gateable — a 20%
//                   regression trips in every cell, saturated ones included)
//   hit_rate        current >= base - 0.10
//   recovery_s      current <= base * 1.5 + 2.0 s
//   yield           current >= base * 0.90   (same relative floor as goodput:
//                   answered/offered over integer counts, exactly reproducible)
//   harvest         current >= base * 0.90   (mean answer completeness; a shift
//                   toward approximate/degraded answers trips the gate)
//
// (upper-bounded metrics may improve freely; lower-bounded ones likewise).
// Every baseline must carry all seven gated metrics; other metrics in it
// (sent, completed, ...) are informational. Any regression, missing metric,
// NaN/Inf value, malformed or trailing JSON, or cell-name mismatch exits
// nonzero. Both files are read with the strict src/util/json_reader.h.

#include <sys/stat.h>

#include <cstdio>
#include <map>
#include <string>

#include "src/obs/artifact.h"
#include "src/util/json_reader.h"

namespace sns {
namespace {

struct MetricsDoc {
  std::string cell;
  std::map<std::string, double> metrics;
  int64_t schema_version = -1;
};

// One tolerance rule: the limit is base * scale + slack, and the current value
// must stay at or below it (upper) or at or above it (lower).
struct Gate {
  const char* metric;
  double scale;
  double slack;
  bool upper;
};

constexpr Gate kGates[] = {
    {"latency_p50_s", 1.35, 0.05, true}, {"latency_p99_s", 1.35, 0.10, true},
    {"goodput", 0.90, 0.0, false},       {"hit_rate", 1.0, -0.10, false},
    {"recovery_s", 1.5, 2.0, true},      {"yield", 0.90, 0.0, false},
    {"harvest", 0.90, 0.0, false},
};

const Gate* FindGate(const std::string& metric) {
  for (const Gate& gate : kGates) {
    if (metric == gate.metric) return &gate;
  }
  return nullptr;
}

// Reads an object carrying "cell" / "metrics" / "schema_version" (other keys
// skipped): the artifact's matrix section, or a whole baseline file.
void ReadMetricsDoc(JsonReader* r, MetricsDoc* doc) {
  std::string key;
  std::string metric;
  if (!r->BeginObject()) return;
  while (r->NextMember(&key)) {
    if (key == "cell") {
      r->ReadString(&doc->cell);
    } else if (key == "schema_version") {
      r->ReadInt(&doc->schema_version);
    } else if (key != "metrics") {
      r->Skip();
    } else if (r->BeginObject()) {
      while (r->NextMember(&metric)) r->ReadNumber(&doc->metrics[metric]);
    }
  }
}

// from_artifact: read the top-level "matrix" section and skip the rest of the
// (large) artifact. Otherwise the document itself is the baseline object.
bool ParseDoc(const std::string& text, bool from_artifact, MetricsDoc* doc,
              std::string* error) {
  JsonReader r(text);
  bool saw_matrix = false;
  if (!from_artifact) {
    ReadMetricsDoc(&r, doc);
  } else if (r.BeginObject()) {
    std::string key;
    while (r.NextMember(&key)) {
      if (key == "matrix") {
        saw_matrix = true;
        ReadMetricsDoc(&r, doc);
      } else {
        r.Skip();
      }
    }
  }
  r.ExpectEnd();
  if (!r.ok()) {
    *error = r.error();
    return false;
  }
  if (from_artifact && !saw_matrix) {
    *error = "artifact has no \"matrix\" section";
    return false;
  }
  if (doc->cell.empty()) {
    *error = "missing \"cell\"";
    return false;
  }
  if (doc->metrics.empty()) {
    *error = "missing or empty \"metrics\"";
    return false;
  }
  return true;
}

bool IsDirectory(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

int DiffOne(const std::string& baseline_arg, bool baseline_is_dir,
            const std::string& artifact_path) {
  std::string text;
  if (!ReadFileToString(artifact_path, &text)) {
    std::fprintf(stderr, "%s: MISSING\n", artifact_path.c_str());
    return 1;
  }
  MetricsDoc current;
  std::string error;
  if (!ParseDoc(text, /*from_artifact=*/true, &current, &error)) {
    std::fprintf(stderr, "%s: INVALID: %s\n", artifact_path.c_str(), error.c_str());
    return 1;
  }

  std::string baseline_path =
      baseline_is_dir ? baseline_arg + "/" + current.cell + ".json" : baseline_arg;
  std::string baseline_text;
  if (!ReadFileToString(baseline_path, &baseline_text)) {
    std::fprintf(stderr, "%s: no baseline %s (bless it with tools/bless_baseline)\n",
                 artifact_path.c_str(), baseline_path.c_str());
    return 1;
  }
  MetricsDoc baseline;
  if (!ParseDoc(baseline_text, /*from_artifact=*/false, &baseline, &error)) {
    std::fprintf(stderr, "%s: INVALID baseline: %s\n", baseline_path.c_str(),
                 error.c_str());
    return 1;
  }
  if (baseline.schema_version != kArtifactSchemaVersion) {
    std::fprintf(stderr,
                 "%s: baseline schema_version is not %d (re-bless with "
                 "tools/bless_baseline)\n",
                 baseline_path.c_str(), kArtifactSchemaVersion);
    return 1;
  }
  for (const Gate& gate : kGates) {
    if (baseline.metrics.count(gate.metric) == 0) {
      std::fprintf(stderr, "%s: INVALID baseline: gated metric \"%s\" is missing\n",
                   baseline_path.c_str(), gate.metric);
      return 1;
    }
  }
  if (baseline.cell != current.cell) {
    std::fprintf(stderr, "%s: cell \"%s\" does not match baseline cell \"%s\"\n",
                 artifact_path.c_str(), current.cell.c_str(), baseline.cell.c_str());
    return 1;
  }

  int regressions = 0;
  std::printf("%s (cell %s):\n", artifact_path.c_str(), current.cell.c_str());
  for (const auto& [metric, base] : baseline.metrics) {
    const Gate* gate = FindGate(metric);
    if (gate == nullptr) {
      continue;  // Informational metric; not gated.
    }
    auto it = current.metrics.find(metric);
    if (it == current.metrics.end()) {
      std::printf("  %-16s REGRESSION: metric missing from artifact\n", metric.c_str());
      ++regressions;
      continue;
    }
    double limit = base * gate->scale + gate->slack;
    bool ok = gate->upper ? it->second <= limit : it->second >= limit;
    std::printf("  %-16s %11.6g vs base %11.6g (need %s %.6g) %s\n", metric.c_str(),
                it->second, base, gate->upper ? "<=" : ">=", limit,
                ok ? "ok" : "REGRESSION");
    if (!ok) {
      ++regressions;
    }
  }
  return regressions > 0 ? 1 : 0;
}

}  // namespace
}  // namespace sns

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s <baseline.json|baseline-dir> <BENCH_*.json ...>\n",
                 argv[0]);
    return 2;
  }
  std::string baseline_arg = argv[1];
  bool baseline_is_dir = sns::IsDirectory(baseline_arg);
  int bad = 0;
  for (int i = 2; i < argc; ++i) {
    bad += sns::DiffOne(baseline_arg, baseline_is_dir, argv[i]);
  }
  if (bad > 0) {
    std::fprintf(stderr, "%d artifact(s) regressed\n", bad);
    return 1;
  }
  return 0;
}
