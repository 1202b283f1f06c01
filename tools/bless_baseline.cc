// Regenerates the committed scenario-matrix baselines deterministically.
//
//   bless_baseline [--out DIR] [--cell NAME ...] [--list]
//
// Runs each smoke-matrix cell (all of them by default) and writes
// DIR/<cell>.json in the baseline layout tools/bench_diff consumes:
//   {"schema_version":2,"cell":"<name>","metrics":{...}}
// (the artifact schema version, kArtifactSchemaVersion in src/obs/artifact.h).
// The simulator is deterministic, so blessing is reproducible: the same build
// always emits byte-identical baselines. Run from the repo root after any
// change that legitimately moves the numbers, then commit bench/baselines/.
// Exits nonzero if any cell violates a quiesce invariant — a baseline must
// never bless a broken run.

#include <cstdio>
#include <string>
#include <vector>

#include "src/scenario/matrix.h"
#include "src/scenario/scenario.h"

namespace sns {
namespace {

int Run(int argc, char** argv) {
  std::string out_dir = "bench/baselines";
  std::vector<std::string> wanted;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--cell" && i + 1 < argc) {
      wanted.push_back(argv[++i]);
    } else if (arg == "--list") {
      list = true;
    } else {
      std::fprintf(stderr, "usage: %s [--out DIR] [--cell NAME ...] [--list]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<ScenarioCell> matrix = SmokeMatrix();
  if (list) {
    for (const ScenarioCell& cell : matrix) {
      std::printf("%s\n", cell.Name().c_str());
    }
    return 0;
  }
  std::vector<ScenarioCell> to_run;
  if (wanted.empty()) {
    to_run = matrix;
  } else {
    for (const std::string& name : wanted) {
      const ScenarioCell* cell = FindCell(matrix, name);
      if (cell == nullptr) {
        std::fprintf(stderr, "unknown cell '%s' (see --list)\n", name.c_str());
        return 2;
      }
      to_run.push_back(*cell);
    }
  }

  int failed = 0;
  for (const ScenarioCell& cell : to_run) {
    CellResult result = RunScenarioCell(cell);  // No artifact; metrics only.
    if (!result.passed()) {
      std::fprintf(stderr, "%s: invariants VIOLATED, refusing to bless:\n%s",
                   cell.Name().c_str(), result.invariants.ToString().c_str());
      ++failed;
      continue;
    }
    std::string path = out_dir + "/" + cell.Name() + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s (does %s/ exist?)\n", path.c_str(),
                   out_dir.c_str());
      ++failed;
      continue;
    }
    std::fputs(BaselineJson(result).c_str(), f);
    std::fclose(f);
    std::printf("blessed %s (goodput=%.3f p99=%.0fms hit=%.3f)\n", path.c_str(),
                result.metrics.goodput, result.metrics.latency_p99_s * 1000,
                result.metrics.hit_rate);
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sns

int main(int argc, char** argv) { return sns::Run(argc, argv); }
