#include "src/workload/content_universe.h"

#include <algorithm>
#include <cmath>

#include "src/content/gif_codec.h"
#include "src/content/html.h"
#include "src/content/image.h"
#include "src/content/jpeg_codec.h"
#include "src/util/strings.h"

namespace sns {

namespace {

const char* ExtensionFor(MimeType mime) {
  switch (mime) {
    case MimeType::kHtml:
      return "html";
    case MimeType::kGif:
      return "gif";
    case MimeType::kJpeg:
      return "jpg";
    case MimeType::kOther:
      return "dat";
  }
  return "dat";
}

// Pads encoded content with trailing bytes up to `target` — decoders stop at the
// logical end of stream, so padding is ignored on decode but counts on the wire.
void PadTo(std::vector<uint8_t>* bytes, int64_t target, Rng* rng) {
  while (static_cast<int64_t>(bytes->size()) < target) {
    bytes->push_back(static_cast<uint8_t>(rng->UniformInt(0, 255)));
  }
}

}  // namespace

bool IsRealImage(MimeType mime, const std::vector<uint8_t>& bytes) {
  if (mime == MimeType::kGif) {
    return IsGif(bytes);
  }
  if (mime == MimeType::kJpeg) {
    return IsJpeg(bytes);
  }
  return false;
}

ContentUniverseConfig FixedJpegUniverse(int64_t url_count) {
  ContentUniverseConfig config;
  config.url_count = url_count;
  config.sizes.gif_fraction = 0.0;
  config.sizes.html_fraction = 0.0;
  config.sizes.jpeg_fraction = 1.0;
  config.sizes.jpeg_mu = 9.2335;  // exp(mu + s^2/2) ~ 10240 B
  config.sizes.jpeg_sigma = 0.05;
  config.sizes.error_page_fraction = 0.0;
  return config;
}

ContentUniverse::ContentUniverse(const ContentUniverseConfig& config)
    : config_(config), size_model_(config.sizes) {}

std::string ContentUniverse::UrlAt(int64_t index) const {
  // Derive the mime type for this slot deterministically from the index.
  Rng rng(config_.seed ^ (0x51AB1E5ULL + static_cast<uint64_t>(index) * 0x9E3779B97F4A7C15ULL));
  MimeType mime = size_model_.SampleMime(&rng);
  return StrFormat("http://site%lld.example.edu/obj%lld.%s",
                   static_cast<long long>(index % 977), static_cast<long long>(index),
                   ExtensionFor(mime));
}

std::string ContentUniverse::SamplePopularUrl(Rng* rng) const {
  int64_t rank = rng->Zipf(config_.url_count, config_.zipf_skew);
  return UrlAt(rank);
}

ContentUniverse::UrlTraits ContentUniverse::TraitsOf(const std::string& url) const {
  UrlTraits traits;
  traits.mime = MimeTypeFromUrl(url);
  Rng rng(config_.seed ^ Fnv1a(url));
  traits.error_page = size_model_.SampleErrorPage(traits.mime, &rng);
  if (traits.error_page) {
    traits.size = rng.UniformInt(size_model_.config().error_page_min,
                                 size_model_.config().error_page_max);
  } else {
    traits.size = size_model_.SampleSize(traits.mime, &rng);
  }
  return traits;
}

int64_t ContentUniverse::ModeledSize(const std::string& url) const {
  return TraitsOf(url).size;
}

MimeType ContentUniverse::MimeOf(const std::string& url) const {
  return MimeTypeFromUrl(url);
}

ContentPtr ContentUniverse::GetContent(const std::string& url) {
  auto it = cache_.find(url);
  if (it != cache_.end()) {
    return it->second;
  }
  ContentPtr content = Generate(url, TraitsOf(url));
  generated_bytes_ += content->size();
  cache_[url] = content;
  return content;
}

ContentPtr ContentUniverse::Generate(const std::string& url, const UrlTraits& traits) const {
  Rng rng(config_.seed ^ Fnv1a(url) ^ 0xC0FFEE);
  std::vector<uint8_t> bytes;

  if (traits.error_page) {
    // An HTML error message served under an image URL (Fig. 5's spikes).
    std::string body = "<html><body><h1>404 Not Found</h1><p>" + url +
                       " could not be located on this server.</p></body></html>";
    bytes.assign(body.begin(), body.end());
    PadTo(&bytes, traits.size, &rng);
    return Content::Make(url, traits.mime, std::move(bytes));
  }

  switch (traits.mime) {
    case MimeType::kHtml: {
      HtmlGenOptions options;
      // Scale prose volume to approximate the target size (~7 bytes per word).
      int64_t body_budget = std::max<int64_t>(traits.size - 300, 100);
      options.paragraphs = std::max(1, static_cast<int>(body_budget / 500));
      options.words_per_paragraph =
          std::max(10, static_cast<int>(body_budget / (7 * options.paragraphs)));
      options.inline_images = static_cast<int>(rng.UniformInt(0, 5));
      options.links = static_cast<int>(rng.UniformInt(1, 8));
      std::string page = GenerateHtmlPage(&rng, options);
      bytes.assign(page.begin(), page.end());
      // Pad with an HTML comment so the page stays well-formed.
      if (static_cast<int64_t>(bytes.size()) < traits.size) {
        std::string pad = "<!-- ";
        bytes.insert(bytes.end(), pad.begin(), pad.end());
        while (static_cast<int64_t>(bytes.size()) < traits.size - 4) {
          bytes.push_back(static_cast<uint8_t>('a' + rng.UniformInt(0, 25)));
        }
        std::string close = " -->";
        bytes.insert(bytes.end(), close.begin(), close.end());
      }
      break;
    }
    case MimeType::kGif:
    case MimeType::kJpeg: {
      bool real = traits.size <= config_.real_image_max_bytes;
      if (real) {
        // Choose dimensions so the encoded size lands near the target, then pad.
        bool jpeg = traits.mime == MimeType::kJpeg;
        bool icon = !jpeg && traits.size < 1024;
        double bpp = jpeg ? 0.18 : (icon ? 0.14 : 0.75);
        double pixels = std::max(64.0, static_cast<double>(traits.size) / bpp);
        int width = std::clamp(static_cast<int>(std::sqrt(pixels * 4.0 / 3.0)), 8, 1024);
        int height = std::clamp(static_cast<int>(pixels / width), 8, 1024);
        RasterImage img = icon ? SynthesizeIcon(&rng, width, height)
                               : SynthesizePhoto(&rng, width, height);
        bytes = jpeg ? JpegEncode(img, 85) : GifEncode(img, icon ? 32 : 128);
        PadTo(&bytes, traits.size, &rng);
      } else {
        // Opaque image: correct size, undecodable (no codec magic).
        bytes.resize(static_cast<size_t>(traits.size));
        for (auto& b : bytes) {
          b = static_cast<uint8_t>(rng.UniformInt(0, 255));
        }
        if (bytes.size() >= 2) {
          bytes[0] = 'X';  // Ensure the magic check fails.
          bytes[1] = 'X';
        }
      }
      break;
    }
    case MimeType::kOther: {
      bytes.resize(static_cast<size_t>(traits.size));
      for (auto& b : bytes) {
        b = static_cast<uint8_t>(rng.UniformInt(0, 255));
      }
      break;
    }
  }
  return Content::Make(url, traits.mime, std::move(bytes));
}

}  // namespace sns
