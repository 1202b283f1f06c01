// TranSend's datatype-specific distillers (paper §3.1.6).
//
// Three parameterizable TACC workers:
//   - distill-jpeg: scaling and low-pass filtering of JPEG images (re-encoded at a
//     lower quality).
//   - distill-gif:  GIF-to-JPEG conversion followed by JPEG degradation (the paper
//     chose this "after discovering that the JPEG representation is smaller and
//     faster to operate on for most images").
//   - munge-html:   marks up inline image references with distillation preferences,
//     adds [original] links next to distilled images, and prepends the preferences
//     toolbar.
//
// Each distiller transforms real bytes when the input is decodable (SGIF/SJPG/HTML).
// Opaque benchmark content (Content::Opaque: a size, no bytes) takes a calibrated
// size-reduction model instead, and its output is opaque too: the modeled size, at
// least 160 bytes, and no bytes.
// Simulated CPU cost follows Fig. 7: roughly linear in input size (the GIF distiller
// measured ~8 ms/KB), with item-to-item variance.

#ifndef SRC_SERVICES_TRANSEND_DISTILLERS_H_
#define SRC_SERVICES_TRANSEND_DISTILLERS_H_

#include <string>

#include "src/tacc/registry.h"
#include "src/tacc/worker.h"

namespace sns {

// Shared argument names.
//   "scale":   integer downscale factor (>= 1).
//   "quality": target JPEG quality (1..100).
inline constexpr char kArgScale[] = "scale";
inline constexpr char kArgQuality[] = "quality";

inline constexpr char kJpegDistillerType[] = "distill-jpeg";
inline constexpr char kGifDistillerType[] = "distill-gif";
inline constexpr char kHtmlDistillerType[] = "munge-html";

struct DistillerCostConfig {
  // Fig. 7: ~8 ms per input KB for the GIF distiller (decode + scale + re-encode).
  SimDuration gif_fixed = Milliseconds(4);
  SimDuration gif_per_kb = Milliseconds(8);
  // JPEG path is cheaper (no palette work); calibrated so a distiller sustains
  // ~23 requests/second on the ~10 KB images of the §4.6 scalability experiment.
  SimDuration jpeg_fixed = Milliseconds(2);
  SimDuration jpeg_per_kb = Milliseconds(4);
  // "the HTML distiller is far more efficient".
  SimDuration html_fixed = Milliseconds(1);
  SimDuration html_per_kb = Milliseconds(0.8);
  // Lognormal sigma of the per-item cost noise (Fig. 7 shows large variance).
  double noise_sigma = 0.25;
};

class JpegDistiller : public TaccWorker {
 public:
  explicit JpegDistiller(const DistillerCostConfig& cost = DistillerCostConfig{})
      : cost_(cost) {}
  std::string type() const override { return kJpegDistillerType; }
  TaccResult Process(const TaccRequest& request) override;
  SimDuration EstimateCost(const TaccRequest& request) const override;

 private:
  DistillerCostConfig cost_;
};

class GifDistiller : public TaccWorker {
 public:
  explicit GifDistiller(const DistillerCostConfig& cost = DistillerCostConfig{})
      : cost_(cost) {}
  std::string type() const override { return kGifDistillerType; }
  TaccResult Process(const TaccRequest& request) override;
  SimDuration EstimateCost(const TaccRequest& request) const override;

 private:
  DistillerCostConfig cost_;
};

class HtmlDistiller : public TaccWorker {
 public:
  explicit HtmlDistiller(const DistillerCostConfig& cost = DistillerCostConfig{})
      : cost_(cost) {}
  std::string type() const override { return kHtmlDistillerType; }
  TaccResult Process(const TaccRequest& request) override;
  SimDuration EstimateCost(const TaccRequest& request) const override;

 private:
  DistillerCostConfig cost_;
};

// Registers all three distiller factories.
void RegisterTranSendDistillers(WorkerRegistry* registry,
                                const DistillerCostConfig& cost = DistillerCostConfig{});

// Expected output/input size ratio for image distillation — used for opaque
// content and exposed for tests. Calibrated to the paper's example: scale 2 +
// quality 25 turns a 10 KB JPEG into ~1.5 KB (Fig. 3).
double ImageReductionRatio(int scale, int quality);

// Deterministic per-item cost jitter in [e^-2s, e^2s], keyed by URL.
double CostNoiseFactor(const std::string& url, double sigma);

}  // namespace sns

#endif  // SRC_SERVICES_TRANSEND_DISTILLERS_H_
