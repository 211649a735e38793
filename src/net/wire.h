#ifndef CACHEPORTAL_NET_WIRE_H_
#define CACHEPORTAL_NET_WIRE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace cacheportal::net {

/// The invalidation wire protocol: the framing the invalidator and the
/// caches speak when they are separate processes (the deployment the
/// paper assumes — Section 4.2.4's eject messages travel a real
/// network). Design mirrors the WAL's record framing (storage/wal.h):
/// length + CRC32 frames, a hard length cap so a bit-flipped length
/// cannot masquerade as a huge frame, and a strict torn-vs-corrupt split
/// so the receiver can tell "more bytes coming" from "this connection is
/// speaking garbage".
///
/// Frame layout (all integers little-endian):
///
///   [magic u32 "CPW1"][len u32][crc u32][type u8][epoch u64][seq u64]
///   [payload: len bytes]
///
/// `crc` is CRC-32 over (type || epoch || seq || payload); `len` counts
/// the payload alone.
///
/// Session protocol (client = invalidator, server = cache):
///
///   client -> HELLO   {epoch/seq: last known; payload "cachewire <v> <id>"}
///   server -> HELLO_ACK {epoch: server session epoch, seq: last acked
///                        seq in that epoch; payload "cachewire <v>"}
///   client -> EJECT   {epoch, seq, payload: serialized HTTP eject}
///   client -> EJECT_BATCH {epoch, seq: base_seq, payload: batch blob}
///                     (entry i of the blob carries implicit seq
///                      base_seq + i — one contiguous run)
///   server -> ACK     {epoch, seq}   (CUMULATIVE: confirms every seq
///                      <= seq in that epoch — also for duplicates)
///   client -> HEARTBEAT {seq: counter}; server -> HEARTBEAT_ACK
///   either -> ERROR   {payload: reason} then close
///
/// Delivery is at-least-once: the client resends anything un-acked after
/// a reconnect (reusing the same (epoch, seq)), and the server dedups by
/// (epoch, seq) via a ResumeLedger. The server's session epoch bumps on
/// every process restart, so seqs from a dead incarnation can never
/// collide with fresh ones.
///
/// Cumulative acks are sound because the client streams seqs in
/// ascending order on every connection, always starting from its lowest
/// un-acked seq, and a loss on a connection kills every LATER send on it
/// too (TCP loses suffixes, not middles). The server therefore never
/// admits seq N before every lower seq it was ever sent, so "high-water
/// mark reached N" really does mean "everything <= N applied or deduped"
/// — which is why the per-epoch ResumeLedger needs no change for
/// batching or pipelining.
enum class FrameType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kEject = 3,
  kAck = 4,
  kHeartbeat = 5,
  kHeartbeatAck = 6,
  kError = 7,
  kEjectBatch = 8,
};

/// Protocol version carried in HELLO/HELLO_ACK payloads. A mismatch is
/// FATAL (not retryable): the peers speak different protocols and no
/// amount of reconnecting fixes that.
inline constexpr uint32_t kWireProtocolVersion = 1;

/// magic(4) + len(4) + crc(4) + type(1) + epoch(8) + seq(8).
inline constexpr size_t kFrameHeaderSize = 29;

/// A length field above this is garbage, not a big frame — without the
/// cap a bit-flipped length would read as a torn frame and stall the
/// connection waiting for bytes that never come.
inline constexpr uint32_t kMaxFramePayload = 1u << 26;

/// One decoded frame.
struct WireFrame {
  FrameType type = FrameType::kError;
  uint64_t epoch = 0;
  uint64_t seq = 0;
  std::string payload;
};

/// Serializes `frame`, appending to `*dst`.
void AppendFrame(std::string* dst, const WireFrame& frame);
std::string EncodeFrame(const WireFrame& frame);

/// What DecodeFrame concluded about the head of the buffer. The split
/// matters: kNeedMore is the normal mid-read state (a torn frame — keep
/// reading), while kCorrupt means the stream can never resync (bad
/// magic, bad CRC, absurd length) and the connection must be quarantined
/// loudly rather than guessed at.
enum class DecodeOutcome { kFrame, kNeedMore, kCorrupt };

struct DecodeResult {
  DecodeOutcome outcome = DecodeOutcome::kNeedMore;
  WireFrame frame;        // Valid iff outcome == kFrame.
  size_t consumed = 0;    // Bytes to drop from the buffer (kFrame only).
  std::string reason;     // Why the stream is corrupt (kCorrupt only).
};

/// Decodes the frame at the head of `buffer` (partial reads expected:
/// call again with more bytes on kNeedMore).
DecodeResult DecodeFrame(std::string_view buffer);

/// HELLO payload: "cachewire <version> <client_id>".
std::string EncodeHelloPayload(uint32_t version, const std::string& client_id);
struct HelloInfo {
  uint32_t version = 0;
  std::string client_id;
};
Result<HelloInfo> ParseHelloPayload(const std::string& payload);

/// HELLO_ACK payload: "cachewire <version>".
std::string EncodeHelloAckPayload(uint32_t version);
Result<uint32_t> ParseHelloAckPayload(const std::string& payload);

/// Entries one EJECT_BATCH frame may carry. A count above this is
/// corruption (like kMaxFramePayload for lengths): no conforming sender
/// builds bigger batches, so an absurd count must not drive allocation.
inline constexpr uint32_t kMaxBatchEntries = 4096;

/// EJECT_BATCH payload: [count u32] then count x ([len u32][len bytes]).
/// Entry i carries implicit seq = frame.seq + i; the server answers the
/// whole frame with ONE cumulative ACK of frame.seq + count - 1.
/// Encode requires 1..kMaxBatchEntries entries whose total stays under
/// kMaxFramePayload (the caller chunks; see WireInvalidationClient).
/// Entries are views: each is copied exactly once, into the blob.
std::string EncodeEjectBatchPayload(
    const std::vector<std::string_view>& entries);

/// Strict parse of an EJECT_BATCH payload: every length is bounds-checked
/// against the remaining bytes BEFORE anything is referenced, the count
/// must be 1..kMaxBatchEntries, and the entries must consume the payload
/// exactly (trailing bytes are corruption, not padding). The returned
/// views borrow from `payload` — they are valid only while the caller
/// keeps that buffer alive (the server applies entries straight out of
/// the received frame, so the hot path never copies them).
Result<std::vector<std::string_view>> ParseEjectBatchPayload(
    std::string_view payload);

/// The receiver's dedup state: the highest invalidation seq applied per
/// session epoch. At-least-once delivery means replays are normal (ack
/// lost, client resends); the ledger makes applies exactly-once per
/// (epoch, seq) — a replayed seq is acked without re-applying. The
/// ledger is not persisted: a cache process that resumes dedup across a
/// restart rebuilds it with Admit from its own applied-seq record (see
/// tools/cache_node).
class ResumeLedger {
 public:
  enum class Verdict { kApply, kDuplicate };

  /// Admits (epoch, seq): kApply (and records it) when seq is beyond the
  /// epoch's high-water mark, kDuplicate otherwise.
  Verdict Admit(uint64_t epoch, uint64_t seq);

  /// Highest seq applied in `epoch` (0 when none).
  uint64_t last_applied(uint64_t epoch) const;

  const std::map<uint64_t, uint64_t>& entries() const { return entries_; }

 private:
  std::map<uint64_t, uint64_t> entries_;  // epoch -> highest applied seq.
};

}  // namespace cacheportal::net

#endif  // CACHEPORTAL_NET_WIRE_H_
