// The simulated web: a deterministic mapping from URLs to content.
//
// Stands in for the live Internet behind the paper's proxy. Every URL's content is
// a pure function of (universe seed, url), so runs are reproducible and any
// component can regenerate the same bytes — which is precisely the property BASE
// soft state relies on ("transformed content ... can be regenerated from the
// original", §3.1.8).
//
// Two content modes:
//   - real:   images are synthesized and actually encoded with the SGIF/SJPG codecs,
//             so distillers run genuine pixel transforms. Costs real host CPU;
//             meant for examples, tests, and small universes.
//   - opaque: content is random bytes of the modeled size (not decodable).
//             Distillers detect this and fall back to a calibrated size-reduction
//             model, keeping SAN/cache byte counts realistic at negligible host
//             cost; meant for large-scale benchmarks.
// HTML is always real (generation is cheap), so the HTML munger always does real
// string rewriting.

#ifndef SRC_WORKLOAD_CONTENT_UNIVERSE_H_
#define SRC_WORKLOAD_CONTENT_UNIVERSE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/content/content.h"
#include "src/workload/size_model.h"

namespace sns {

struct ContentUniverseConfig {
  uint64_t seed = 0xBE12C0DE;
  int64_t url_count = 10000;
  SizeModelConfig sizes;
  // Encode real raster images when the modeled size is at most this; 0 = always
  // opaque imagery.
  int64_t real_image_max_bytes = 0;
  double zipf_skew = 0.8;  // URL popularity for SamplePopularUrl.
};

// A universe of nearly-uniform ~10 KB JPEGs, as prepared for the scalability
// experiment: "a trace file that repeatedly requested a fixed number of JPEG
// images, all approximately 10KB in size" (§4.6). Every URL is above the distill
// threshold, so with distilled-variant caching off each request re-distills and
// the worker pool stays load-bearing (the fault tests, chaos campaign and
// scenario matrix rely on that).
ContentUniverseConfig FixedJpegUniverse(int64_t url_count);

class ContentUniverse {
 public:
  explicit ContentUniverse(const ContentUniverseConfig& config);

  // The i-th URL (0 <= i < url_count). URL extensions encode the MIME type.
  std::string UrlAt(int64_t index) const;
  int64_t url_count() const { return config_.url_count; }

  // Zipf-popularity URL draw (popular pages dominate, giving cache locality).
  std::string SamplePopularUrl(Rng* rng) const;

  // Deterministic content for a URL (memoized). Unknown URLs still produce
  // deterministic content keyed by their hash.
  ContentPtr GetContent(const std::string& url);

  // Modeled (pre-generation) size of a URL's content; cheap, no synthesis.
  int64_t ModeledSize(const std::string& url) const;
  MimeType MimeOf(const std::string& url) const;

  const SizeModel& size_model() const { return size_model_; }

  size_t generated_count() const { return cache_.size(); }
  int64_t generated_bytes() const { return generated_bytes_; }

 private:
  struct UrlTraits {
    MimeType mime = MimeType::kOther;
    int64_t size = 0;
    bool error_page = false;
  };
  UrlTraits TraitsOf(const std::string& url) const;
  ContentPtr Generate(const std::string& url, const UrlTraits& traits) const;

  ContentUniverseConfig config_;
  SizeModel size_model_;
  std::unordered_map<std::string, ContentPtr> cache_;
  int64_t generated_bytes_ = 0;
};

// True if `bytes` are real decodable content for their MIME type (images only;
// opaque blobs fail the magic check).
bool IsRealImage(MimeType mime, const std::vector<uint8_t>& bytes);

}  // namespace sns

#endif  // SRC_WORKLOAD_CONTENT_UNIVERSE_H_
