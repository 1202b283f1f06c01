#include "src/obs/artifact.h"

#include <cstdio>

#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace sns {

bool WriteRunArtifact(const std::string& path, const RunArtifact& artifact,
                      const std::vector<ArtifactSection>& extra) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::string meta =
      StrFormat("{\"schema_version\":%d,\"bench\":\"%s\",\"time_ns\":%lld}",
                kArtifactSchemaVersion, JsonEscape(artifact.bench).c_str(),
                static_cast<long long>(artifact.time_ns));
  // In kArtifactSections order.
  const std::string* bodies[] = {&meta, &artifact.snapshot, &artifact.timeseries,
                                 &artifact.critical_path, &artifact.availability,
                                 &artifact.profile, &artifact.traces};
  static_assert(std::size(bodies) == kArtifactSections.size());
  for (size_t i = 0; i < kArtifactSections.size(); ++i) {
    std::fprintf(f, "%s\"%s\":", i == 0 ? "{" : ",", kArtifactSections[i]);
    std::fputs(bodies[i]->c_str(), f);
  }
  for (const auto& [name, body] : extra) {
    std::fprintf(f, ",\"%s\":", name.c_str());
    std::fputs(body.c_str(), f);
  }
  std::fputs("}\n", f);
  bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written;
}

}  // namespace sns
