#include "net/wire.h"

#include "common/file_util.h"
#include "common/strings.h"

namespace cacheportal::net {

namespace {

constexpr char kFrameMagic[4] = {'C', 'P', 'W', '1'};
constexpr char kHelloToken[] = "cachewire";

/// crc-covered region: type(1) + epoch(8) + seq(8) = 17 bytes of header
/// plus the payload.
constexpr size_t kCrcCoveredHeader = 17;

bool ValidFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kEjectBatch);
}

}  // namespace

void AppendFrame(std::string* dst, const WireFrame& frame) {
  std::string covered;
  covered.reserve(kCrcCoveredHeader + frame.payload.size());
  covered.push_back(static_cast<char>(frame.type));
  PutFixed64(&covered, frame.epoch);
  PutFixed64(&covered, frame.seq);
  covered.append(frame.payload);

  dst->append(kFrameMagic, sizeof(kFrameMagic));
  PutFixed32(dst, static_cast<uint32_t>(frame.payload.size()));
  PutFixed32(dst, Crc32(covered));
  dst->append(covered);
}

std::string EncodeFrame(const WireFrame& frame) {
  std::string out;
  AppendFrame(&out, frame);
  return out;
}

DecodeResult DecodeFrame(std::string_view buffer) {
  DecodeResult result;
  // Magic first: check however many of its bytes have arrived, so a
  // stream that opens with anything else is corrupt immediately, not
  // after 29 bytes of garbage accumulate.
  size_t magic_bytes = std::min(buffer.size(), sizeof(kFrameMagic));
  if (buffer.compare(0, magic_bytes,
                     std::string_view(kFrameMagic, magic_bytes)) != 0) {
    result.outcome = DecodeOutcome::kCorrupt;
    result.reason = "bad frame magic";
    return result;
  }
  if (buffer.size() < kFrameHeaderSize) return result;  // kNeedMore.
  uint32_t len = GetFixed32(buffer.data() + 4);
  if (len > kMaxFramePayload) {
    result.outcome = DecodeOutcome::kCorrupt;
    result.reason = StrCat("absurd frame length ", len);
    return result;
  }
  if (buffer.size() < kFrameHeaderSize + len) return result;  // kNeedMore.
  uint32_t crc = GetFixed32(buffer.data() + 8);
  std::string_view covered(buffer.data() + 12, kCrcCoveredHeader + len);
  if (Crc32(covered) != crc) {
    result.outcome = DecodeOutcome::kCorrupt;
    result.reason = "frame crc mismatch";
    return result;
  }
  uint8_t type = static_cast<uint8_t>(buffer[12]);
  if (!ValidFrameType(type)) {
    result.outcome = DecodeOutcome::kCorrupt;
    result.reason = StrCat("unknown frame type ", static_cast<int>(type));
    return result;
  }
  result.outcome = DecodeOutcome::kFrame;
  result.frame.type = static_cast<FrameType>(type);
  result.frame.epoch = GetFixed64(buffer.data() + 13);
  result.frame.seq = GetFixed64(buffer.data() + 21);
  result.frame.payload.assign(buffer.data() + kFrameHeaderSize, len);
  result.consumed = kFrameHeaderSize + len;
  return result;
}

std::string EncodeHelloPayload(uint32_t version,
                               const std::string& client_id) {
  return StrCat(kHelloToken, " ", version, " ", client_id);
}

Result<HelloInfo> ParseHelloPayload(const std::string& payload) {
  std::vector<std::string> fields = StrSplit(payload, ' ');
  if (fields.size() != 3 || fields[0] != kHelloToken) {
    return Status::ParseError(StrCat("not a HELLO payload: ", payload));
  }
  CACHEPORTAL_ASSIGN_OR_RETURN(uint64_t version, ParseUint64(fields[1]));
  HelloInfo info;
  info.version = static_cast<uint32_t>(version);
  info.client_id = fields[2];
  return info;
}

std::string EncodeHelloAckPayload(uint32_t version) {
  return StrCat(kHelloToken, " ", version);
}

Result<uint32_t> ParseHelloAckPayload(const std::string& payload) {
  std::vector<std::string> fields = StrSplit(payload, ' ');
  if (fields.size() != 2 || fields[0] != kHelloToken) {
    return Status::ParseError(StrCat("not a HELLO_ACK payload: ", payload));
  }
  CACHEPORTAL_ASSIGN_OR_RETURN(uint64_t version, ParseUint64(fields[1]));
  return static_cast<uint32_t>(version);
}

std::string EncodeEjectBatchPayload(
    const std::vector<std::string_view>& entries) {
  std::string out;
  size_t total = 4;
  for (std::string_view entry : entries) total += 4 + entry.size();
  out.reserve(total);
  PutFixed32(&out, static_cast<uint32_t>(entries.size()));
  for (std::string_view entry : entries) {
    PutFixed32(&out, static_cast<uint32_t>(entry.size()));
    out.append(entry);
  }
  return out;
}

Result<std::vector<std::string_view>> ParseEjectBatchPayload(
    std::string_view payload) {
  if (payload.size() < 4) {
    return Status::ParseError("EJECT_BATCH payload truncated before count");
  }
  uint32_t count = GetFixed32(payload.data());
  if (count == 0) {
    return Status::ParseError("EJECT_BATCH with zero entries");
  }
  if (count > kMaxBatchEntries) {
    return Status::ParseError(
        StrCat("absurd EJECT_BATCH count ", count, " (max ",
               kMaxBatchEntries, ")"));
  }
  std::vector<std::string_view> entries;
  entries.reserve(count);
  size_t pos = 4;
  for (uint32_t i = 0; i < count; ++i) {
    if (payload.size() - pos < 4) {
      return Status::ParseError(
          StrCat("EJECT_BATCH truncated at entry ", i, " length"));
    }
    uint32_t len = GetFixed32(payload.data() + pos);
    pos += 4;
    if (payload.size() - pos < len) {
      return Status::ParseError(
          StrCat("EJECT_BATCH truncated inside entry ", i, " (len ", len,
                 ", remaining ", payload.size() - pos, ")"));
    }
    entries.push_back(payload.substr(pos, len));
    pos += len;
  }
  if (pos != payload.size()) {
    return Status::ParseError(
        StrCat("EJECT_BATCH has ", payload.size() - pos,
               " trailing bytes after entry ", count - 1));
  }
  return entries;
}

ResumeLedger::Verdict ResumeLedger::Admit(uint64_t epoch, uint64_t seq) {
  uint64_t& high = entries_[epoch];
  if (seq <= high) return Verdict::kDuplicate;
  high = seq;
  return Verdict::kApply;
}

uint64_t ResumeLedger::last_applied(uint64_t epoch) const {
  auto it = entries_.find(epoch);
  return it == entries_.end() ? 0 : it->second;
}

}  // namespace cacheportal::net
