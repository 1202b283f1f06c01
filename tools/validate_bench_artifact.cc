// Validates a BENCH_<name>.json run artifact against the uniform schema every
// bench binary emits (see src/obs/artifact.h, which owns the version and the
// section list):
//
//   {"meta":{"schema_version":2,"bench":<non-empty string>,"time_ns":<int>},
//    "snapshot":{...},"timeseries":{...},"critical_path":{...},
//    "availability":{...},"profile":{...},"traces":{...}}
//
// Used by the perf-smoke ctest label: each short-mode bench run is a fixture
// setup, and this validator is the check that the artifact exists, parses, and
// carries every top-level section. Exit 0 on success; non-zero with a message
// on any missing/malformed artifact. The artifact is read with the strict
// src/util/json_reader.h (no NaN/Inf, no trailing content, bounded nesting).
//
// The profile-smoke label additionally gates the profiler's quality figures:
//   --min-profile-coverage X   require profile.coverage >= X (named root zones
//                              must attribute at least this wall fraction)
//   --max-profile-overhead Y   require profile.self_overhead <= Y (measured
//                              profiler cost bound as a wall fraction)
// Both gates also require profile.enabled == true (an artifact from a run that
// never enabled the profiler carries no evidence either way).

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/obs/artifact.h"
#include "src/util/json_reader.h"

namespace sns {
namespace {

// The fields the schema pins, and the profiler quality figures the
// profile-smoke gates read, as found in one artifact.
struct ArtifactFacts {
  std::set<std::string> sections;
  std::optional<int64_t> schema_version;
  std::string bench;
  std::optional<int64_t> time_ns;
  bool profile_enabled = false;
  double coverage = 0;
  double self_overhead = 1.0;
};

// Reads the meta object. Returns a schema error naming the field whose value
// has the wrong type, or "" (syntax errors are left in the reader).
std::string ReadMeta(JsonReader* r, ArtifactFacts* facts) {
  std::string key;
  int64_t value = 0;
  if (!r->BeginObject()) return "";
  while (r->NextMember(&key)) {
    if (key == "schema_version") {
      if (!r->ReadInt(&value)) return "meta.schema_version is not an integer";
      facts->schema_version = value;
    } else if (key == "time_ns") {
      if (!r->ReadInt(&value)) return "meta.time_ns is not an integer";
      facts->time_ns = value;
    } else if (key == "bench") {
      if (!r->ReadString(&facts->bench)) return "meta.bench is not a string";
    } else {
      r->Skip();
    }
  }
  return "";
}

// Reads the profile object's top-level figures, like ReadMeta.
std::string ReadProfile(JsonReader* r, ArtifactFacts* facts) {
  std::string key;
  if (!r->BeginObject()) return "";
  while (r->NextMember(&key)) {
    if (key == "enabled") {
      if (!r->ReadBool(&facts->profile_enabled)) return "profile.enabled is not a bool";
    } else if (key == "coverage" || key == "self_overhead") {
      double* figure = key == "coverage" ? &facts->coverage : &facts->self_overhead;
      if (!r->ReadNumber(figure)) return "profile." + key + " is not a number";
    } else {
      r->Skip();
    }
  }
  return "";
}

bool ValidateArtifact(const std::string& text, ArtifactFacts* facts, std::string* error) {
  JsonReader r(text);
  std::string key;
  if (r.BeginObject()) {
    while (error->empty() && r.NextMember(&key)) {
      facts->sections.insert(key);
      if (key == "meta") {
        *error = ReadMeta(&r, facts);
      } else if (key == "profile") {
        *error = ReadProfile(&r, facts);
      } else {
        r.Skip();
      }
    }
  }
  if (!error->empty()) return false;
  if (!r.ExpectEnd()) {
    *error = r.error();
    return false;
  }
  for (const char* section : kArtifactSections) {
    if (facts->sections.count(section) == 0) {
      *error = std::string("missing top-level section \"") + section + "\"";
      return false;
    }
  }
  if (!facts->schema_version) {
    *error = "meta.schema_version is missing";
  } else if (facts->schema_version != kArtifactSchemaVersion) {
    *error = "meta.schema_version is not " + std::to_string(kArtifactSchemaVersion);
  } else if (facts->bench.empty()) {
    *error = "meta.bench is missing or empty";
  } else if (!facts->time_ns) {
    *error = "meta.time_ns is missing";
  }
  return error->empty();
}

}  // namespace
}  // namespace sns

int main(int argc, char** argv) {
  double min_coverage = -1;
  double max_overhead = -1;
  std::vector<const char*> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--min-profile-coverage" && i + 1 < argc) {
      min_coverage = std::strtod(argv[++i], nullptr);
    } else if (arg == "--max-profile-overhead" && i + 1 < argc) {
      max_overhead = std::strtod(argv[++i], nullptr);
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--min-profile-coverage X] [--max-profile-overhead Y] "
                 "BENCH_<name>.json [...]\n",
                 argv[0]);
    return 2;
  }
  int bad = 0;
  for (const char* path : paths) {
    std::string text;
    if (!sns::ReadFileToString(path, &text)) {
      std::fprintf(stderr, "%s: MISSING (bench did not emit its artifact)\n", path);
      ++bad;
      continue;
    }
    std::string error;
    sns::ArtifactFacts facts;
    if (!sns::ValidateArtifact(text, &facts, &error)) {
      std::fprintf(stderr, "%s: INVALID: %s\n", path, error.c_str());
      ++bad;
      continue;
    }
    if (min_coverage >= 0 || max_overhead >= 0) {
      if (!facts.profile_enabled) {
        std::fprintf(stderr, "%s: PROFILE GATE: profiler was not enabled for this run\n",
                     path);
        ++bad;
        continue;
      }
      if (min_coverage >= 0 && facts.coverage < min_coverage) {
        std::fprintf(stderr, "%s: PROFILE GATE: coverage %.4f < required %.4f\n", path,
                     facts.coverage, min_coverage);
        ++bad;
        continue;
      }
      if (max_overhead >= 0 && facts.self_overhead > max_overhead) {
        std::fprintf(stderr, "%s: PROFILE GATE: self-overhead %.4f > allowed %.4f\n",
                     path, facts.self_overhead, max_overhead);
        ++bad;
        continue;
      }
      std::printf("%s: profile ok (coverage %.3f, self-overhead %.4f)\n", path,
                  facts.coverage, facts.self_overhead);
    }
    std::printf("%s: ok (%zu bytes)\n", path, text.size());
  }
  return bad == 0 ? 0 : 1;
}
