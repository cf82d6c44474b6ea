#pragma once
/// \file io_status.hpp
/// Error codes for the util/state_file loaders (build and rank
/// checkpoints, rank results, flight-recorder fragments).
///
/// Malformed, truncated or corrupt files must be *rejected with a code* —
/// never UB, never an abort, never a silently wrong object. Loaders return
/// the parsed value on success and one of these on failure so callers can
/// distinguish "file absent" (fine, start fresh) from "file corrupt"
/// (warn loudly, then start fresh) from "file from a different build"
/// (refuse to resume).

#include <cstddef>
#include <cstdint>

namespace pmpl {

enum class IoStatus {
  kOk = 0,
  kOpenFailed,           ///< file missing or unreadable
  kBadMagic,             ///< not one of our files
  kBadVersion,           ///< recognized magic, unsupported version
  kMalformed,            ///< syntax error / unknown record / bad field
  kTruncated,            ///< ends mid-record or missing footer
  kChecksumMismatch,     ///< payload bytes corrupted
  kCountMismatch,        ///< declared record counts don't match content
  kOutOfRange,           ///< a field exceeds its permitted range
  kFingerprintMismatch,  ///< checkpoint from an incompatible configuration
};

inline const char* to_string(IoStatus s) noexcept {
  switch (s) {
    case IoStatus::kOk: return "ok";
    case IoStatus::kOpenFailed: return "open failed";
    case IoStatus::kBadMagic: return "bad magic";
    case IoStatus::kBadVersion: return "unsupported version";
    case IoStatus::kMalformed: return "malformed record";
    case IoStatus::kTruncated: return "truncated file";
    case IoStatus::kChecksumMismatch: return "checksum mismatch";
    case IoStatus::kCountMismatch: return "record count mismatch";
    case IoStatus::kOutOfRange: return "field out of range";
    case IoStatus::kFingerprintMismatch: return "configuration fingerprint mismatch";
  }
  return "unknown";
}

/// FNV-1a 64-bit — the checksum of the state_file container. Not
/// cryptographic; it catches truncation, bit flips and editor mangling.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                             std::uint64_t seed = kFnvOffset) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace pmpl
