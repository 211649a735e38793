#include "common/record_codec.h"

#include "common/file_util.h"
#include "common/strings.h"

namespace cacheportal {

void PutLengthPrefixed(std::string* dst, std::string_view bytes) {
  PutFixed32(dst, static_cast<uint32_t>(bytes.size()));
  dst->append(bytes);
}

Result<RecordReader> RecordReader::Open(std::string_view blob,
                                        std::string_view magic,
                                        std::string_view what) {
  if (blob.substr(0, magic.size()) != magic) {
    return Status::ParseError(StrCat("not a ", what));
  }
  return RecordReader(blob.substr(magic.size()), what);
}

Result<uint64_t> RecordReader::U64(std::string_view field) {
  if (rest_.size() < 8) return Invalid(field, "truncated");
  uint64_t value = GetFixed64(rest_.data());
  rest_.remove_prefix(8);
  return value;
}

Result<bool> RecordReader::Flag(std::string_view field) {
  CACHEPORTAL_ASSIGN_OR_RETURN(uint64_t value, U64(field));
  if (value > 1) return Invalid(field, StrCat("flag is ", value));
  return value == 1;
}

Result<std::string_view> RecordReader::Bytes(std::string_view field) {
  if (rest_.size() < 4) return Invalid(field, "truncated length");
  uint32_t length = GetFixed32(rest_.data());
  if (rest_.size() - 4 < length) return Invalid(field, "truncated bytes");
  std::string_view bytes = rest_.substr(4, length);
  rest_.remove_prefix(4 + size_t{length});
  return bytes;
}

Result<uint64_t> RecordReader::Count(std::string_view field,
                                     size_t min_element_bytes) {
  CACHEPORTAL_ASSIGN_OR_RETURN(uint64_t count, U64(field));
  if (count > rest_.size() / min_element_bytes) {
    return Invalid(field, StrCat("count ", count, " exceeds the ",
                                 rest_.size(), " bytes left"));
  }
  return count;
}

Status RecordReader::Invalid(std::string_view field,
                             std::string_view why) const {
  return Status::ParseError(StrCat(what_, ": bad ", field, " (", why, ")"));
}

Status RecordReader::Finish() const {
  if (rest_.empty()) return Status::OK();
  return Status::ParseError(
      StrCat(what_, ": ", rest_.size(), " trailing bytes"));
}

}  // namespace cacheportal
