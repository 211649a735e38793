#include "storage/manifest.h"

#include "common/file_util.h"
#include "common/record_codec.h"
#include "common/strings.h"

namespace cacheportal::storage {

namespace {

/// Layout (common/record_codec.h): magic, snapshot file name bytes ("" =
/// none), snapshot_size u64, snapshot_crc u64 (< 2^32), wal_start u64
/// (>= 1), next_seq u64; then a fixed32 CRC over everything before it.
constexpr char kManifestMagic[] = "CPMF";

}  // namespace

std::string EncodeManifest(const Manifest& manifest) {
  std::string out = kManifestMagic;
  PutLengthPrefixed(&out, manifest.snapshot_file);
  PutFixed64(&out, manifest.snapshot_size);
  PutFixed64(&out, manifest.snapshot_crc);
  PutFixed64(&out, manifest.wal_start);
  PutFixed64(&out, manifest.next_seq);
  PutFixed32(&out, Crc32(out));
  return out;
}

Result<Manifest> DecodeManifest(std::string_view bytes) {
  // Verify the trailing CRC first: any flip anywhere in the file is one
  // detectable failure, not five.
  if (bytes.size() < 4) return Status::ParseError("manifest missing crc");
  std::string_view body = bytes.substr(0, bytes.size() - 4);
  if (GetFixed32(bytes.data() + body.size()) != Crc32(body)) {
    return Status::ParseError("manifest crc mismatch");
  }
  CACHEPORTAL_ASSIGN_OR_RETURN(
      RecordReader r, RecordReader::Open(body, kManifestMagic, "manifest"));
  Manifest out;
  CACHEPORTAL_ASSIGN_OR_RETURN(std::string_view file, r.Bytes("snapshot"));
  out.snapshot_file = file;
  CACHEPORTAL_ASSIGN_OR_RETURN(out.snapshot_size, r.U64("snapshot_size"));
  CACHEPORTAL_ASSIGN_OR_RETURN(uint64_t crc, r.U64("snapshot_crc"));
  if (crc > UINT32_MAX) return r.Invalid("snapshot_crc", "exceeds 32 bits");
  out.snapshot_crc = static_cast<uint32_t>(crc);
  CACHEPORTAL_ASSIGN_OR_RETURN(out.wal_start, r.U64("wal_start"));
  if (out.wal_start == 0) return r.Invalid("wal_start", "zero");
  CACHEPORTAL_ASSIGN_OR_RETURN(out.next_seq, r.U64("next_seq"));
  CACHEPORTAL_RETURN_NOT_OK(r.Finish());
  return out;
}

Status WriteManifest(Env* env, const std::string& dir,
                     const Manifest& manifest) {
  return AtomicFileWriter::Write(env, StrCat(dir, "/", kManifestFileName),
                                 EncodeManifest(manifest));
}

Result<Manifest> ReadManifest(Env* env, const std::string& dir) {
  Result<std::string> content =
      env->ReadFile(StrCat(dir, "/", kManifestFileName));
  if (!content.ok()) return content.status();
  return DecodeManifest(*content);
}

}  // namespace cacheportal::storage
