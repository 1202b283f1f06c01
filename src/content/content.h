// A unit of web content flowing through the system: the thing caches store and
// distillers transform.
//
// size() is the wire size: what the SAN, the caches, the origin and the cost
// models count. `bytes` is the readable representation, held only where a reader
// decodes it (the codecs, the HTML munger, the HotBot parsers). Opaque content
// (benchmark imagery no codec reads, modeled distiller output) is a size with no
// bytes, so every codec magic check finds it not decodable.

#ifndef SRC_CONTENT_CONTENT_H_
#define SRC_CONTENT_CONTENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/content/mime.h"

namespace sns {

struct Content {
  std::string url;
  MimeType mime;
  std::vector<uint8_t> bytes;  // Encoded representation (SGIF/SJPG/HTML text/...).

  int64_t size() const { return size_; }

  // Readable content: the wire size is bytes.size().
  static std::shared_ptr<const Content> Make(std::string url, MimeType mime,
                                             std::vector<uint8_t> bytes) {
    int64_t size = static_cast<int64_t>(bytes.size());
    return std::shared_ptr<const Content>(
        new Content(std::move(url), mime, size, std::move(bytes)));
  }

  // Opaque content: `size` bytes on the wire, none held.
  static std::shared_ptr<const Content> Opaque(std::string url, MimeType mime, int64_t size) {
    return std::shared_ptr<const Content>(new Content(std::move(url), mime, size, {}));
  }

 private:
  Content(std::string u, MimeType m, int64_t size, std::vector<uint8_t> b)
      : url(std::move(u)), mime(m), bytes(std::move(b)), size_(size) {}

  int64_t size_;
};

using ContentPtr = std::shared_ptr<const Content>;

}  // namespace sns

#endif  // SRC_CONTENT_CONTENT_H_
