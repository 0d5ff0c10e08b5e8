#include "sim/job.h"

namespace autodml::sim {

SyncMode sync_mode_from_string(std::string_view s) {
  if (s == "bsp") return SyncMode::kBsp;
  if (s == "asp") return SyncMode::kAsp;
  if (s == "ssp") return SyncMode::kSsp;
  throw std::invalid_argument("unknown sync mode: " + std::string(s));
}

Compression compression_from_string(std::string_view s) {
  if (s == "none") return Compression::kNone;
  if (s == "fp16") return Compression::kFp16;
  if (s == "int8") return Compression::kInt8;
  if (s == "topk") return Compression::kTopK;
  throw std::invalid_argument("unknown compression: " + std::string(s));
}

CompressionProps compression_props(Compression c) {
  switch (c) {
    case Compression::kNone:
      return {1.0, 1.0, 0.0, 1.0};
    case Compression::kFp16:
      // Halves both directions; near-free numerically and statistically.
      return {0.5, 0.5, 0.2, 1.01};
    case Compression::kInt8:
      return {0.25, 1.0, 0.6, 1.06};
    case Compression::kTopK:
      // Top-1% sparsification with index overhead: ~2% of the bytes, but a
      // real convergence cost and a sort-like compute cost.
      return {0.02, 1.0, 2.5, 1.22};
  }
  return {};
}

}  // namespace autodml::sim
