// Frame-codec corpus for the invalidation wire (net/wire.h): the same
// adversarial treatment tests/storage_wal_test.cc gives WAL segments —
// truncation at every byte boundary must read as "need more", any
// single-bit flip must never decode as a valid frame, and the resume
// ledger must dedup replays and survive an encode/decode round trip.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/wire.h"

namespace cacheportal::net {
namespace {

WireFrame SampleFrame() {
  WireFrame frame;
  frame.type = FrameType::kEject;
  frame.epoch = 7;
  frame.seq = 42;
  frame.payload = "GET /page?id=1 HTTP/1.1\r\nCache-Control: eject\r\n\r\n";
  return frame;
}

TEST(WireFrameTest, RoundTripsEveryFrameType) {
  for (uint8_t type = 1; type <= 8; ++type) {
    WireFrame frame;
    frame.type = static_cast<FrameType>(type);
    frame.epoch = 0x0123456789abcdefULL;
    frame.seq = 0xfedcba9876543210ULL;
    frame.payload = std::string("payload-") + static_cast<char>('0' + type);
    DecodeResult decoded = DecodeFrame(EncodeFrame(frame));
    ASSERT_EQ(decoded.outcome, DecodeOutcome::kFrame) << int(type);
    EXPECT_EQ(decoded.frame.type, frame.type);
    EXPECT_EQ(decoded.frame.epoch, frame.epoch);
    EXPECT_EQ(decoded.frame.seq, frame.seq);
    EXPECT_EQ(decoded.frame.payload, frame.payload);
    EXPECT_EQ(decoded.consumed, kFrameHeaderSize + frame.payload.size());
  }
}

TEST(WireFrameTest, RoundTripsEmptyAndBinaryPayloads) {
  WireFrame empty;
  empty.type = FrameType::kHeartbeat;
  DecodeResult decoded = DecodeFrame(EncodeFrame(empty));
  ASSERT_EQ(decoded.outcome, DecodeOutcome::kFrame);
  EXPECT_TRUE(decoded.frame.payload.empty());

  WireFrame binary = SampleFrame();
  binary.payload = std::string("\x00\xff\r\n\x01CPW1", 9);  // Embedded magic.
  decoded = DecodeFrame(EncodeFrame(binary));
  ASSERT_EQ(decoded.outcome, DecodeOutcome::kFrame);
  EXPECT_EQ(decoded.frame.payload, binary.payload);
}

TEST(WireFrameTest, DecodesBackToBackFramesFromOneBuffer) {
  WireFrame first = SampleFrame();
  WireFrame second = SampleFrame();
  second.seq = 43;
  second.payload = "second";
  std::string buffer = EncodeFrame(first);
  AppendFrame(&buffer, second);

  DecodeResult one = DecodeFrame(buffer);
  ASSERT_EQ(one.outcome, DecodeOutcome::kFrame);
  EXPECT_EQ(one.frame.seq, 42u);
  DecodeResult two = DecodeFrame(
      std::string_view(buffer).substr(one.consumed));
  ASSERT_EQ(two.outcome, DecodeOutcome::kFrame);
  EXPECT_EQ(two.frame.seq, 43u);
  EXPECT_EQ(two.frame.payload, "second");
}

TEST(WireFrameTest, TruncationAtEveryBoundaryNeedsMore) {
  // A prefix of a valid frame is a torn frame (peer mid-write), never
  // corruption: every cut point must say kNeedMore, because more bytes
  // genuinely could complete it.
  std::string wire = EncodeFrame(SampleFrame());
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    DecodeResult decoded = DecodeFrame(std::string_view(wire).substr(0, cut));
    EXPECT_EQ(decoded.outcome, DecodeOutcome::kNeedMore) << "cut=" << cut;
  }
}

TEST(WireFrameTest, SingleBitFlipsNeverDecodeAsTheSameFrame) {
  // CRC coverage: flipping any bit of the covered region (type, epoch,
  // seq, payload) must be detected as corruption; flipping length or crc
  // bytes must corrupt or (for length bits that enlarge the frame)
  // starve as kNeedMore — never yield a valid frame with wrong content.
  WireFrame frame = SampleFrame();
  std::string wire = EncodeFrame(frame);
  for (size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = wire;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      DecodeResult decoded = DecodeFrame(flipped);
      if (decoded.outcome == DecodeOutcome::kFrame) {
        // Only acceptable if the frame still matches (impossible for a
        // real flip, but keep the assertion precise).
        ADD_FAILURE() << "bit flip at byte " << byte << " bit " << bit
                      << " decoded as a valid frame";
      }
    }
  }
}

TEST(WireFrameTest, ForeignMagicIsCorruptImmediately) {
  // An HTTP client (or garbage) connecting to the wire port must be
  // rejected on the first bytes, not after a header's worth accumulates.
  DecodeResult decoded = DecodeFrame("GET / HTTP/1.1\r\n");
  EXPECT_EQ(decoded.outcome, DecodeOutcome::kCorrupt);
  EXPECT_EQ(DecodeFrame("X").outcome, DecodeOutcome::kCorrupt);
  EXPECT_EQ(DecodeFrame("CPX").outcome, DecodeOutcome::kCorrupt);
  // A true prefix of the magic is still potentially a frame.
  EXPECT_EQ(DecodeFrame("CPW").outcome, DecodeOutcome::kNeedMore);
  EXPECT_EQ(DecodeFrame("CPW2").outcome, DecodeOutcome::kCorrupt);
}

TEST(WireFrameTest, OversizedLengthPrefixIsCorruptNotAllocation) {
  // An absurd length must be rejected from the header alone — waiting
  // for (or allocating) 4 GiB of payload is the DoS this guards.
  std::string wire = EncodeFrame(SampleFrame());
  wire[4] = '\xff';
  wire[5] = '\xff';
  wire[6] = '\xff';
  wire[7] = '\xff';
  DecodeResult decoded = DecodeFrame(wire);
  EXPECT_EQ(decoded.outcome, DecodeOutcome::kCorrupt);

  // Just past the cap: corrupt. At the cap: merely incomplete.
  WireFrame frame = SampleFrame();
  std::string header_only = EncodeFrame(frame).substr(0, kFrameHeaderSize);
  header_only[4] = static_cast<char>((kMaxFramePayload + 1) & 0xff);
  header_only[5] = static_cast<char>(((kMaxFramePayload + 1) >> 8) & 0xff);
  header_only[6] = static_cast<char>(((kMaxFramePayload + 1) >> 16) & 0xff);
  header_only[7] = static_cast<char>(((kMaxFramePayload + 1) >> 24) & 0xff);
  EXPECT_EQ(DecodeFrame(header_only).outcome, DecodeOutcome::kCorrupt);
  header_only[4] = static_cast<char>(kMaxFramePayload & 0xff);
  header_only[5] = static_cast<char>((kMaxFramePayload >> 8) & 0xff);
  header_only[6] = static_cast<char>((kMaxFramePayload >> 16) & 0xff);
  header_only[7] = static_cast<char>((kMaxFramePayload >> 24) & 0xff);
  EXPECT_EQ(DecodeFrame(header_only).outcome, DecodeOutcome::kNeedMore);
}

TEST(WireFrameTest, UnknownFrameTypeIsCorrupt) {
  WireFrame frame = SampleFrame();
  std::string wire = EncodeFrame(frame);
  // Type byte is CRC-covered, so patch both type and a recomputed CRC by
  // re-encoding with a raw out-of-range type.
  for (uint8_t bad_type : {uint8_t{0}, uint8_t{9}, uint8_t{255}}) {
    WireFrame patched = frame;
    patched.type = static_cast<FrameType>(bad_type);
    DecodeResult decoded = DecodeFrame(EncodeFrame(patched));
    EXPECT_EQ(decoded.outcome, DecodeOutcome::kCorrupt)
        << "type=" << int(bad_type);
  }
}

TEST(EjectBatchPayloadTest, RoundTripsTypicalAndBinaryEntries) {
  std::vector<std::string> entries = {
      "GET /a?id=1 HTTP/1.1\r\nCache-Control: eject\r\n\r\n",
      "",  // An empty entry is legal at this layer.
      std::string("\x00\xff\r\nCPW1", 8),  // Binary, embedded magic.
      std::string(1000, 'x'),
  };
  // The parsed views borrow from the blob, so it must be a named local
  // that outlives the assertions (not a temporary).
  std::string blob = EncodeEjectBatchPayload(
      std::vector<std::string_view>(entries.begin(), entries.end()));
  Result<std::vector<std::string_view>> parsed = ParseEjectBatchPayload(blob);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ((*parsed)[i], entries[i]) << "entry " << i;
  }

  std::string single_blob = EncodeEjectBatchPayload({"one"});
  parsed = ParseEjectBatchPayload(single_blob);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0], "one");
}

TEST(EjectBatchPayloadTest, RejectsEmptyZeroCountAndAbsurdCount) {
  EXPECT_FALSE(ParseEjectBatchPayload("").ok());
  EXPECT_FALSE(ParseEjectBatchPayload("abc").ok());  // Short of a count.
  // count = 0: a batch frame with nothing in it is malformed, not empty.
  EXPECT_FALSE(
      ParseEjectBatchPayload(std::string("\x00\x00\x00\x00", 4)).ok());
  // count = 2^32-1: must reject by bound-check, not by allocating.
  EXPECT_FALSE(
      ParseEjectBatchPayload(std::string("\xff\xff\xff\xff", 4)).ok());
  // count just over the cap.
  std::string over(4, '\0');
  uint32_t count = kMaxBatchEntries + 1;
  for (int i = 0; i < 4; ++i) over[i] = static_cast<char>(count >> (8 * i));
  EXPECT_FALSE(ParseEjectBatchPayload(over).ok());
}

TEST(EjectBatchPayloadTest, TruncationAtEveryBoundaryIsParseError) {
  // Inside a decoded frame there is no "more bytes coming": the frame
  // length already bounded the payload, so any cut is corruption.
  std::string payload =
      EncodeEjectBatchPayload({"alpha", "", "gamma-longer-entry"});
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    std::string prefix = payload.substr(0, cut);
    Result<std::vector<std::string_view>> parsed =
        ParseEjectBatchPayload(prefix);
    EXPECT_FALSE(parsed.ok()) << "cut=" << cut;
  }
  // Trailing garbage after the last entry is equally malformed.
  EXPECT_FALSE(ParseEjectBatchPayload(payload + "x").ok());
}

TEST(EjectBatchFrameTest, TruncationAtEveryBoundaryNeedsMore) {
  WireFrame frame;
  frame.type = FrameType::kEjectBatch;
  frame.epoch = 3;
  frame.seq = 100;
  frame.payload = EncodeEjectBatchPayload({"first", "second", "third"});
  std::string wire = EncodeFrame(frame);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    DecodeResult decoded = DecodeFrame(std::string_view(wire).substr(0, cut));
    EXPECT_EQ(decoded.outcome, DecodeOutcome::kNeedMore) << "cut=" << cut;
  }
  DecodeResult whole = DecodeFrame(wire);
  ASSERT_EQ(whole.outcome, DecodeOutcome::kFrame);
  Result<std::vector<std::string_view>> parsed =
      ParseEjectBatchPayload(whole.frame.payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 3u);
}

TEST(EjectBatchFrameTest, SingleBitFlipsNeverDecodeAsTheSameFrame) {
  WireFrame frame;
  frame.type = FrameType::kEjectBatch;
  frame.epoch = 9;
  frame.seq = 7;
  frame.payload = EncodeEjectBatchPayload({"entry-a", "entry-b"});
  std::string wire = EncodeFrame(frame);
  for (size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = wire;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      DecodeResult decoded = DecodeFrame(flipped);
      if (decoded.outcome == DecodeOutcome::kFrame) {
        ADD_FAILURE() << "bit flip at byte " << byte << " bit " << bit
                      << " decoded as a valid frame";
      }
    }
  }
}

TEST(WireHandshakeTest, HelloPayloadRoundTrips) {
  std::string payload = EncodeHelloPayload(3, "edge-17");
  Result<HelloInfo> info = ParseHelloPayload(payload);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 3u);
  EXPECT_EQ(info->client_id, "edge-17");

  EXPECT_FALSE(ParseHelloPayload("").ok());
  EXPECT_FALSE(ParseHelloPayload("cachewire").ok());
  EXPECT_FALSE(ParseHelloPayload("cachewire x edge").ok());
  EXPECT_FALSE(ParseHelloPayload("otherproto 1 edge").ok());

  Result<uint32_t> version = ParseHelloAckPayload(EncodeHelloAckPayload(1));
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u);
  EXPECT_FALSE(ParseHelloAckPayload("cachewire one").ok());
}

TEST(ResumeLedgerTest, DedupsDuplicatesAndOutOfOrderSeqs) {
  ResumeLedger ledger;
  EXPECT_EQ(ledger.Admit(1, 1), ResumeLedger::Verdict::kApply);
  EXPECT_EQ(ledger.Admit(1, 2), ResumeLedger::Verdict::kApply);
  // Exact replay.
  EXPECT_EQ(ledger.Admit(1, 2), ResumeLedger::Verdict::kDuplicate);
  // Out-of-order: below the high-water mark counts as already seen (the
  // client assigns seqs monotonically, so a lower seq is a stale replay).
  EXPECT_EQ(ledger.Admit(1, 1), ResumeLedger::Verdict::kDuplicate);
  EXPECT_EQ(ledger.Admit(1, 5), ResumeLedger::Verdict::kApply);
  EXPECT_EQ(ledger.last_applied(1), 5u);
  // Epochs are independent dedup domains.
  EXPECT_EQ(ledger.Admit(2, 1), ResumeLedger::Verdict::kApply);
  EXPECT_EQ(ledger.last_applied(2), 1u);
  EXPECT_EQ(ledger.last_applied(99), 0u);
}

}  // namespace
}  // namespace cacheportal::net
