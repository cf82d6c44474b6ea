#pragma once
/// \file state_file.hpp
/// The checksummed atomic state-blob container shared by every durable
/// file in the repo (core/anytime build checkpoints, loadbal rank
/// checkpoints and rank results, runtime/trace flight-recorder fragments).
///
/// Format v1 (DESIGN.md §5d lays out the anytime checkpoint payload):
///   header  (56 bytes): magic[8] "PMPLCKPT", version:u32, kind:u32,
///                       fingerprint:u64, seed:u64, meta0:u32, meta1:u32,
///                       payload_bytes:u64, header_checksum:u64
///   payload (payload_bytes): kind-specific records
///   footer  (8 bytes):  payload_checksum:u64
///
/// Every byte is covered by one of the two FNV-1a checksums; the total
/// length is implied by the header, so truncation and trailing garbage are
/// both detected. Saves publish atomically (tmp file + rename): a crash
/// mid-write leaves the previous snapshot (or nothing) in place, never a
/// torn file — the property the supervisor restart path depends on, since
/// a rank may be SIGKILLed in the middle of its own checkpoint write.
///
/// The `kind` field namespaces payload schemas (kCheckpointKindPrm/Rrt in
/// core/anytime; the kStateKind* ids here); `meta0`/`meta1` are two u32s of
/// kind-specific header metadata (anytime: num_regions / region_count).

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "util/io_status.hpp"

namespace pmpl {

/// Payload-schema ids. Anytime build checkpoints own 1 and 2; rank
/// checkpoints (loadbal/ws_rank) own 3; flight-recorder trace fragments
/// (runtime/trace) own 4; rank results (loadbal/ws_rank, read by the
/// ws_cluster supervisor) own 5. Append only.
inline constexpr std::uint32_t kStateKindWsRank = 3;
inline constexpr std::uint32_t kStateKindTraceRing = 4;
inline constexpr std::uint32_t kStateKindWsResult = 5;

/// One durable snapshot: identity header plus an opaque payload.
struct StateBlob {
  std::uint32_t kind = 0;
  std::uint64_t fingerprint = 0;  ///< configuration fingerprint
  std::uint64_t seed = 0;
  std::uint32_t meta0 = 0;  ///< kind-specific (anytime: num_regions)
  std::uint32_t meta1 = 0;  ///< kind-specific (anytime: region_count)
  std::vector<char> payload;
};

/// Serialize atomically (tmp file + rename). Returns false on any I/O
/// failure; a pre-existing file under `path` is never left half-written.
bool save_state_file(const StateBlob& b, const std::string& path);

/// Load and fully validate. On failure returns nullopt and (when `status`
/// is non-null) the precise reason — malformed, truncated and bit-flipped
/// files are all rejected, never misread.
std::optional<StateBlob> load_state_file(const std::string& path,
                                         IoStatus* status = nullptr);

/// Append-only little-endian serialization helpers for payloads.
inline void put_bytes(std::vector<char>& out, const void* p, std::size_t n) {
  // Not a range insert: GCC 12 at -O3 reports a false -Wstringop-overflow
  // on one.
  const std::size_t at = out.size();
  out.resize(at + n);
  if (n > 0) std::memcpy(out.data() + at, p, n);
}
inline void put_u32(std::vector<char>& out, std::uint32_t v) {
  put_bytes(out, &v, sizeof v);
}
inline void put_u64(std::vector<char>& out, std::uint64_t v) {
  put_bytes(out, &v, sizeof v);
}
inline void put_f64(std::vector<char>& out, double v) {
  put_bytes(out, &v, sizeof v);
}

/// Bounds-checked cursor over a payload; any read past the end latches a
/// failure instead of touching memory.
struct StateReader {
  const char* p;
  std::size_t left;
  bool ok = true;

  bool take(void* dst, std::size_t n) {
    if (!ok || left < n) {
      ok = false;
      return false;
    }
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
    return true;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    take(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    take(&v, sizeof v);
    return v;
  }
  double f64() {
    double v = 0.0;
    take(&v, sizeof v);
    return v;
  }
};

}  // namespace pmpl
