#ifndef CACHEPORTAL_COMMON_RECORD_CODEC_H_
#define CACHEPORTAL_COMMON_RECORD_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace cacheportal {

/// The one codec for persisted blobs (invalidator snapshot and durable
/// delta, delivery-queue state, storage manifest). A blob is positional:
/// a 4-byte magic, then fields in a fixed order. There are two field
/// types, built on the WAL's framing primitives (file_util.h):
///   - u64:   PutFixed64, little-endian;
///   - bytes: a u32 length (PutFixed32), then that many bytes — the
///            convention WAL records and EJECT_BATCH entries use.
/// A list is a u64 count followed by its elements. There is no version
/// field: a blob whose magic differs is not this format.

/// Appends `bytes` prefixed with its u32 length. `bytes` must be shorter
/// than 4 GiB.
void PutLengthPrefixed(std::string* dst, std::string_view bytes);

/// Strict positional reader over a blob. Every read checks bounds and
/// fails with a ParseError naming the blob and the field; nothing is
/// sized from a value before it is checked against the bytes left.
class RecordReader {
 public:
  /// ParseError unless `blob` starts with `magic`. `what` names the blob
  /// in error messages. The reader borrows `blob`.
  static Result<RecordReader> Open(std::string_view blob,
                                   std::string_view magic,
                                   std::string_view what);

  Result<uint64_t> U64(std::string_view field);
  /// A u64 that must be 0 or 1.
  Result<bool> Flag(std::string_view field);
  /// A length-prefixed byte string; the view borrows from the blob.
  Result<std::string_view> Bytes(std::string_view field);
  /// A list count. Each element takes at least `min_element_bytes` (>= 1),
  /// so a count the remaining bytes cannot hold is rejected here, before
  /// any caller reserves space for it.
  Result<uint64_t> Count(std::string_view field, size_t min_element_bytes);

  /// A ParseError naming `field`, for checks the caller makes on a value.
  Status Invalid(std::string_view field, std::string_view why) const;

  /// OK only when every byte was consumed: trailing bytes are corruption.
  Status Finish() const;

 private:
  RecordReader(std::string_view rest, std::string_view what)
      : rest_(rest), what_(what) {}

  std::string_view rest_;
  std::string_view what_;
};

}  // namespace cacheportal

#endif  // CACHEPORTAL_COMMON_RECORD_CODEC_H_
