#ifndef CACHEPORTAL_STORAGE_MANIFEST_H_
#define CACHEPORTAL_STORAGE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/env.h"
#include "common/status.h"

namespace cacheportal::storage {

/// The store's root pointer: which snapshot is live and which WAL
/// segment recovery starts replaying from. Installed atomically
/// (AtomicFileWriter), so at any kill point the directory holds either
/// the old manifest or the new one — never a torn mix.
struct Manifest {
  /// File name (within the store directory) of the live snapshot; ""
  /// means no snapshot yet (genesis — replay every segment).
  std::string snapshot_file;
  /// CRC-32 and length of the snapshot payload; recovery refuses a
  /// snapshot whose bytes don't match (bit rot is detected, not
  /// deserialized).
  uint32_t snapshot_crc = 0;
  uint64_t snapshot_size = 0;
  /// First WAL segment recovery must replay (segments below it are
  /// covered by the snapshot and garbage-collected).
  uint64_t wal_start = 1;
  /// The store's record sequence at manifest-write time — the floor for
  /// new sequence numbers when recovery finds no replayable records
  /// (so a restart never reuses a sequence the old incarnation burned).
  uint64_t next_seq = 1;
};

/// Serialized name inside the store directory.
inline constexpr char kManifestFileName[] = "MANIFEST";

/// The MANIFEST file's bytes (record codec plus a trailing CRC32,
/// DESIGN.md §18) and their strict inverse: ParseError on any corruption,
/// truncation, trailing byte or foreign format.
std::string EncodeManifest(const Manifest& manifest);
Result<Manifest> DecodeManifest(std::string_view bytes);

/// Atomically (re)writes `dir`/MANIFEST.
Status WriteManifest(Env* env, const std::string& dir,
                     const Manifest& manifest);

/// Reads and validates `dir`/MANIFEST. NotFound when the store has never
/// written one (fresh directory or genesis crash); ParseError when the
/// bytes are corrupt — loud, never a silent empty store.
Result<Manifest> ReadManifest(Env* env, const std::string& dir);

}  // namespace cacheportal::storage

#endif  // CACHEPORTAL_STORAGE_MANIFEST_H_
