// The record codec (common/record_codec.h) and the four blobs persisted
// through it: the invalidator snapshot, the durable delta, the delivery
// queue's state and the storage manifest. Every blob must survive
// encode -> decode -> encode byte for byte, reject every strict prefix
// and a trailing byte without changing what it would restore into, and
// reject the retired text formats.

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/env.h"
#include "common/file_util.h"
#include "common/record_codec.h"
#include "common/strings.h"
#include "core/reliable_delivery.h"
#include "db/database.h"
#include "invalidator/durability.h"
#include "invalidator/invalidator.h"
#include "sniffer/qiurl_map.h"
#include "sql/template.h"
#include "storage/manifest.h"
#include "storage/metadata_store.h"

namespace cacheportal {
namespace {

using core::ReliableDeliveryQueue;
using invalidator::Invalidator;

// ---------------------------------------------------------------------------
// The codec.
// ---------------------------------------------------------------------------

TEST(RecordCodecTest, FieldsRoundTrip) {
  std::string blob = "TEST";
  PutFixed64(&blob, 42);
  PutLengthPrefixed(&blob, "hello");
  PutLengthPrefixed(&blob, "");
  PutFixed64(&blob, 1);
  PutFixed64(&blob, 2);
  PutFixed64(&blob, 7);
  PutFixed64(&blob, UINT64_MAX);

  RecordReader r = RecordReader::Open(blob, "TEST", "test blob").value();
  EXPECT_EQ(r.U64("a").value(), 42u);
  EXPECT_EQ(r.Bytes("b").value(), "hello");
  EXPECT_EQ(r.Bytes("c").value(), "");
  EXPECT_TRUE(r.Flag("d").value());
  EXPECT_EQ(r.Count("e", 8).value(), 2u);
  EXPECT_EQ(r.U64("f").value(), 7u);
  EXPECT_EQ(r.U64("g").value(), UINT64_MAX);
  EXPECT_TRUE(r.Finish().ok());
}

/// Expects `status` to be a ParseError whose message names `field`.
void ExpectParseErrorNaming(const Status& status, const std::string& field) {
  EXPECT_TRUE(status.IsParseError()) << status.ToString();
  EXPECT_NE(status.message().find(field), std::string::npos)
      << status.ToString();
}

TEST(RecordCodecTest, EveryReadIsBoundsCheckedAndNamesItsField) {
  ExpectParseErrorNaming(RecordReader::Open("TES", "TEST", "x").status(),
                         "not a x");
  ExpectParseErrorNaming(
      RecordReader::Open("cacheportal 1\n", "TEST", "x").status(),
      "not a x");

  // The reader borrows its blob, so every blob outlives its reader.
  std::deque<std::string> blobs;
  auto reader = [&blobs](const std::string& body) {
    blobs.push_back("TEST" + body);
    return RecordReader::Open(blobs.back(), "TEST", "blob").value();
  };
  ExpectParseErrorNaming(reader("1234567").U64("update_seq").status(),
                         "update_seq");
  ExpectParseErrorNaming(reader("12").Bytes("name").status(), "name");
  std::string long_length;
  PutFixed32(&long_length, 100);
  ExpectParseErrorNaming(reader(long_length + "short").Bytes("name").status(),
                         "name");
  std::string max_length;
  PutFixed32(&max_length, UINT32_MAX);
  ExpectParseErrorNaming(reader(max_length).Bytes("sql").status(), "sql");

  std::string two;
  PutFixed64(&two, 2);
  ExpectParseErrorNaming(reader(two).Flag("cacheable").status(), "cacheable");

  // A count the remaining bytes cannot hold fails before anything is
  // sized from it — including one whose byte total would overflow.
  std::string count;
  PutFixed64(&count, 3);
  count += std::string(16, '\0');
  ExpectParseErrorNaming(reader(count).Count("types", 8).status(), "types");
  EXPECT_EQ(reader(count).Count("types", 4).value(), 3u);
  std::string huge;
  PutFixed64(&huge, uint64_t{1} << 63);
  huge += std::string(8, '\0');
  ExpectParseErrorNaming(reader(huge).Count("sinks", 1).status(), "sinks");

  RecordReader trailing = reader("x");
  EXPECT_TRUE(trailing.Finish().IsParseError());
}

// ---------------------------------------------------------------------------
// The four persisted blobs.
// ---------------------------------------------------------------------------

/// Every strict prefix of `blob`, and `blob` plus one byte, must be a
/// ParseError from `decode`; `unchanged` checks after each attempt that
/// nothing moved. Prefixes are fresh strings, so a read past their end
/// is a sanitizer finding rather than a silent read of the full blob.
void ExpectPrefixesAndTrailingByteRejected(
    const std::string& blob,
    const std::function<Status(const std::string&)>& decode,
    const std::function<void()>& unchanged) {
  for (size_t n = 0; n < blob.size(); ++n) {
    Status status = decode(blob.substr(0, n));
    ASSERT_TRUE(status.IsParseError())
        << "prefix " << n << " of " << blob.size() << ": "
        << status.ToString();
    unchanged();
  }
  for (char extra : {'\0', 'x'}) {
    Status status = decode(blob + extra);
    ASSERT_TRUE(status.IsParseError()) << status.ToString();
    unchanged();
  }
}

class DownSink : public invalidator::InvalidationSink {
 public:
  Status SendInvalidation(const http::HttpRequest&,
                          const std::string&) override {
    return Status::Unavailable("cache unreachable");
  }
};

void CreateCarTables(db::Database* db) {
  ASSERT_TRUE(db->CreateTable(db::TableSchema(
                                  "Car", {{"maker", db::ColumnType::kString},
                                          {"model", db::ColumnType::kString},
                                          {"price", db::ColumnType::kInt}}))
                  .ok());
  ASSERT_TRUE(
      db->CreateTable(db::TableSchema(
                          "Mileage", {{"model", db::ColumnType::kString},
                                      {"EPA", db::ColumnType::kInt}}))
          .ok());
}

core::DeliveryOptions QueueOptions() {
  core::DeliveryOptions options;
  options.max_attempts = 50;
  options.jitter_fraction = 0.0;
  return options;
}

/// One invalidator process: sink 0 is not checkpointable, sinks 1 and 2
/// are delivery queues over always-down caches (three named sinks in
/// all), so the snapshot and delta carry a sparse, multi-entry sink list.
struct Process {
  Process(db::Database* db, sniffer::QiUrlMap* map, ManualClock* clock)
      : queue_a(clock, QueueOptions()), queue_b(clock, QueueOptions()) {
    invalidator::InvalidatorOptions options;
    options.metadata_shards = 3;
    inv = std::make_unique<Invalidator>(db, map, clock, options);
    queue_a.AddSink(&down, "edge-1");
    queue_a.AddSink(&down, "edge-2");
    queue_b.AddSink(&down, "edge-3");
    inv->AddSink(&plain);
    inv->AddSink(&queue_a);
    inv->AddSink(&queue_b);
  }

  DownSink down;
  DownSink plain;
  ReliableDeliveryQueue queue_a;
  ReliableDeliveryQueue queue_b;
  std::unique_ptr<Invalidator> inv;
};

class PersistedBlobTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CreateCarTables(&db_);
    db_.ExecuteSql("INSERT INTO Car VALUES ('Ford', 'Focus', 9000)").value();
    // A spread of tiers: exact, demoted by a join, demoted by LIKE, and
    // a type declared offline that has no instance (tier unassigned).
    ASSERT_TRUE(live_.inv
                    ->RegisterQueryType("offline",
                                        "SELECT * FROM Mileage WHERE EPA > $1")
                    .ok());
    map_.Add("SELECT * FROM Car WHERE price < 20000", "shop/cheap?##", "/r",
             0);
    map_.Add("SELECT Car.maker FROM Car, Mileage WHERE Car.model = "
             "Mileage.model",
             "shop/epa?##", "/r", 0);
    map_.Add("SELECT * FROM Car WHERE maker LIKE 'F%'", "shop/f?##", "/r", 0);
    live_.inv->RunCycle().value();
    db_.ExecuteSql("INSERT INTO Car VALUES ('Kia', 'Rio', 8000)").value();
    db_.ExecuteSql("INSERT INTO Mileage VALUES ('Rio', 40)").value();
    live_.inv->RunCycle().value();
    ASSERT_GT(live_.queue_a.pending(), 0u);
    ASSERT_GT(live_.queue_b.pending(), 0u);
  }

  /// What a failed decode must leave alone in `process`.
  struct Observed {
    uint64_t seq;
    std::string report;
    std::string queue_a;
    std::string queue_b;
    bool operator==(const Observed&) const = default;
  };
  static Observed Observe(Process& process) {
    return {process.inv->consumed_update_seq(), process.inv->StatsReport(),
            process.queue_a.CheckpointState(),
            process.queue_b.CheckpointState()};
  }

  ManualClock clock_;
  db::Database db_{&clock_};
  sniffer::QiUrlMap map_;
  Process live_{&db_, &map_, &clock_};
};

TEST_F(PersistedBlobTest, SnapshotRoundTripsAndRejectsPrefixes) {
  const std::string blob = live_.inv->Checkpoint();
  Process restored(&db_, &map_, &clock_);
  ASSERT_TRUE(restored.inv->Restore(blob).ok());
  EXPECT_EQ(restored.inv->Checkpoint(), blob);
  EXPECT_EQ(restored.inv->StatsReport(), live_.inv->StatsReport());

  const Observed before = Observe(restored);
  ExpectPrefixesAndTrailingByteRejected(
      blob,
      [&](const std::string& bytes) { return restored.inv->Restore(bytes); },
      [&] { ASSERT_EQ(Observe(restored), before); });
}

TEST_F(PersistedBlobTest, DeltaRoundTripsAndRejectsPrefixes) {
  Process restored(&db_, &map_, &clock_);
  ASSERT_TRUE(restored.inv->Restore(live_.inv->Checkpoint()).ok());
  // More work after the snapshot, so the delta differs from it.
  db_.ExecuteSql("INSERT INTO Car VALUES ('Fiat', 'Uno', 7000)").value();
  live_.inv->RunCycle().value();
  Invalidator::DurableDeltaBaseline baseline;
  const std::string blob = live_.inv->EncodeDurableDelta(&baseline);
  // A second delta from the same baseline carries no type or sink.
  EXPECT_LT(live_.inv->EncodeDurableDelta(&baseline).size(), blob.size());

  ASSERT_TRUE(restored.inv->ApplyDurableDelta(blob).ok());
  restored.inv->ApplyPendingRestore();
  Invalidator::DurableDeltaBaseline restored_baseline;
  EXPECT_EQ(restored.inv->EncodeDurableDelta(&restored_baseline), blob);
  EXPECT_EQ(restored.inv->StatsReport(), live_.inv->StatsReport());

  const Observed before = Observe(restored);
  ExpectPrefixesAndTrailingByteRejected(
      blob,
      [&](const std::string& bytes) {
        return restored.inv->ApplyDurableDelta(bytes);
      },
      [&] { ASSERT_EQ(Observe(restored), before); });

  // Zero shards is rejected in the delta too (the count follows the
  // 4-byte magic and the 8-byte update_seq).
  std::string zero_shards = blob;
  std::string zero;
  PutFixed64(&zero, 0);
  zero_shards.replace(12, 8, zero);
  EXPECT_TRUE(restored.inv->ApplyDurableDelta(zero_shards).IsParseError());
  EXPECT_EQ(Observe(restored), before);
}

TEST_F(PersistedBlobTest, QueueStateRoundTripsAndRejectsPrefixes) {
  const std::string blob = live_.queue_a.CheckpointState();
  Process restored(&db_, &map_, &clock_);
  ASSERT_TRUE(restored.queue_a.RestoreState(blob).ok());
  EXPECT_EQ(restored.queue_a.CheckpointState(), blob);
  EXPECT_EQ(restored.queue_a.pending(), live_.queue_a.pending());

  const std::string before = restored.queue_a.CheckpointState();
  ExpectPrefixesAndTrailingByteRejected(
      blob,
      [&](const std::string& bytes) {
        return restored.queue_a.RestoreState(bytes);
      },
      [&] { ASSERT_EQ(restored.queue_a.CheckpointState(), before); });
}

TEST(ManifestCodecTest, RoundTripsAndRejectsPrefixes) {
  storage::Manifest manifest;
  manifest.snapshot_file = "snap-000003.ckpt";
  manifest.snapshot_crc = 0xDEADBEEF;
  manifest.snapshot_size = 1234;
  manifest.wal_start = 3;
  manifest.next_seq = 99;
  const std::string blob = storage::EncodeManifest(manifest);
  storage::Manifest decoded = storage::DecodeManifest(blob).value();
  EXPECT_EQ(decoded.snapshot_file, manifest.snapshot_file);
  EXPECT_EQ(decoded.snapshot_crc, manifest.snapshot_crc);
  EXPECT_EQ(decoded.snapshot_size, manifest.snapshot_size);
  EXPECT_EQ(decoded.wal_start, manifest.wal_start);
  EXPECT_EQ(decoded.next_seq, manifest.next_seq);
  EXPECT_EQ(storage::EncodeManifest(decoded), blob);
  // Genesis: no snapshot file.
  EXPECT_EQ(storage::DecodeManifest(storage::EncodeManifest({}))
                .value()
                .snapshot_file,
            "");

  ExpectPrefixesAndTrailingByteRejected(
      blob,
      [](const std::string& bytes) {
        return storage::DecodeManifest(bytes).status();
      },
      [] {});
  // Every single-byte flip is caught by the CRC.
  for (size_t i = 0; i < blob.size(); ++i) {
    std::string flipped = blob;
    flipped[i] ^= 0x01;
    EXPECT_TRUE(storage::DecodeManifest(flipped).status().IsParseError())
        << "byte " << i;
  }
}

// ---------------------------------------------------------------------------
// Field checks beyond framing, on hand-built blobs.
// ---------------------------------------------------------------------------

/// A hand-built snapshot in the layout invalidator.cc documents: one
/// type, one instance; each test bends one field.
struct SnapshotSpec {
  uint64_t shards = 1;
  uint64_t cacheable = 1;
  uint64_t tier = 0;
  bool wrong_type_id = false;
  std::vector<uint64_t> sink_indices;
};

std::string BuildSnapshot(const SnapshotSpec& spec,
                          const std::string& sink_state) {
  const std::string sql = "SELECT * FROM Car WHERE price < 20000";
  sql::QueryTemplate tmpl = sql::ExtractTemplateFromSql(sql).value();
  std::string out = "CPIS";
  PutFixed64(&out, 0);  // update_seq
  PutFixed64(&out, spec.shards);
  for (uint64_t i = 0; i < spec.shards; ++i) PutFixed64(&out, 0);
  PutFixed64(&out, 1);  // type_counter
  for (int i = 0; i < 14; ++i) PutFixed64(&out, 0);  // lifetime counters
  PutFixed64(&out, 1);
  PutFixed64(&out, tmpl.type_id + (spec.wrong_type_id ? 1 : 0));
  PutFixed64(&out, spec.cacheable);
  for (int i = 0; i < 6; ++i) PutFixed64(&out, 0);  // type statistics
  PutFixed64(&out, spec.tier);
  PutLengthPrefixed(&out, "Q1");
  PutLengthPrefixed(&out, tmpl.canonical_text);
  PutLengthPrefixed(&out, "");
  PutFixed64(&out, 1);
  PutLengthPrefixed(&out, sql);
  PutFixed64(&out, spec.sink_indices.size());
  for (uint64_t index : spec.sink_indices) {
    PutFixed64(&out, index);
    PutLengthPrefixed(&out, sink_state);
  }
  return out;
}

TEST(SnapshotFieldTest, RejectsOutOfRangeFieldsWithoutChangingState) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  sniffer::QiUrlMap map;
  DownSink down;
  ReliableDeliveryQueue queue(&clock, QueueOptions());
  queue.AddSink(&down, "edge");
  Invalidator inv(&db, &map, &clock);
  inv.AddSink(&queue);
  const std::string state = queue.CheckpointState();

  SnapshotSpec valid;
  valid.sink_indices = {0};
  ASSERT_TRUE(inv.Restore(BuildSnapshot(valid, state)).ok());
  ASSERT_EQ(inv.metadata().NumTypes(), 1u);
  db.ExecuteSql("INSERT INTO Car VALUES ('Kia', 'Rio', 8000)").value();
  const uint64_t seq = inv.consumed_update_seq();
  const std::string report = inv.StatsReport();

  std::vector<std::pair<std::string, SnapshotSpec>> bad;
  bad.emplace_back("zero shards", valid);
  bad.back().second.shards = 0;
  bad.emplace_back("tier 5", valid);
  bad.back().second.tier = 5;
  bad.emplace_back("cacheable 2", valid);
  bad.back().second.cacheable = 2;
  bad.emplace_back("duplicate sink index", valid);
  bad.back().second.sink_indices = {0, 0};
  bad.emplace_back("template hash is not the type_id", valid);
  bad.back().second.wrong_type_id = true;
  for (const auto& [what, spec] : bad) {
    Status status = inv.Restore(BuildSnapshot(spec, state));
    EXPECT_TRUE(status.IsParseError()) << what << ": " << status.ToString();
    EXPECT_EQ(inv.consumed_update_seq(), seq) << what;
    EXPECT_EQ(inv.StatsReport(), report) << what;
  }
  // A sink index with no checkpointable sink behind it is a wiring
  // error, not corruption.
  SnapshotSpec missing_sink = valid;
  missing_sink.sink_indices = {1};
  EXPECT_TRUE(inv.Restore(BuildSnapshot(missing_sink, state))
                  .IsInvalidArgument());
  EXPECT_EQ(inv.StatsReport(), report);
}

TEST(QueueFieldTest, RejectsBadFlagsAndDuplicateSinks) {
  ManualClock clock;
  DownSink down;
  ReliableDeliveryQueue queue(&clock, QueueOptions());
  queue.AddSink(&down, "edge");
  queue.SendInvalidation(*http::HttpRequest::Get("http://cache/p"), "k");
  const std::string before = queue.CheckpointState();

  auto sink_record = [](uint64_t quarantined) {
    std::string out;
    PutLengthPrefixed(&out, "edge");
    PutFixed64(&out, quarantined);
    PutFixed64(&out, 0);  // breaker
    PutFixed64(&out, 0);  // recovery flush
    PutFixed64(&out, 0);  // no messages
    return out;
  };
  std::string one_sink = "CPDQ";
  PutFixed64(&one_sink, 1);
  ASSERT_TRUE(queue.RestoreState(one_sink + sink_record(0)).ok());
  ASSERT_TRUE(queue.RestoreState(before).ok());

  EXPECT_TRUE(queue.RestoreState(one_sink + sink_record(2)).IsParseError());
  std::string two_sinks = "CPDQ";
  PutFixed64(&two_sinks, 2);
  EXPECT_TRUE(
      queue.RestoreState(two_sinks + sink_record(0) + sink_record(0))
          .IsParseError());
  EXPECT_EQ(queue.CheckpointState(), before);
}

// ---------------------------------------------------------------------------
// The retired text formats fail loudly.
// ---------------------------------------------------------------------------

std::string TextStats() { return "stats 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"; }

TEST(RetiredFormatTest, TextBlobsAreParseErrors) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  db.ExecuteSql("INSERT INTO Car VALUES ('Ford', 'Focus', 9000)").value();
  sniffer::QiUrlMap map;
  DownSink down;
  ReliableDeliveryQueue queue(&clock, QueueOptions());
  queue.AddSink(&down, "edge");
  Invalidator inv(&db, &map, &clock);
  inv.AddSink(&queue);
  const uint64_t seq = inv.consumed_update_seq();
  ASSERT_GT(seq, 0u);

  const std::string cursors = "update_seq 0\nshards 1\nshard_map_id 0 0\n";
  const std::vector<std::string> checkpoints = {
      "cacheportal-invalidator-checkpoint 1\nupdate_seq 0\nmap_id 0\nend\n",
      "cacheportal-invalidator-checkpoint 3\n" + cursors + "end\n",
      "cacheportal-invalidator-checkpoint 4\n" + cursors +
          "type_counter 0\n" + TextStats() + "end\n",
      "cacheportal-invalidator-checkpoint 5\n" + cursors +
          "type_counter 0\n" + TextStats() + "end\n",
  };
  for (const std::string& text : checkpoints) {
    EXPECT_TRUE(inv.Restore(text).IsParseError()) << text;
  }
  EXPECT_TRUE(inv.ApplyDurableDelta("cacheportal-invalidator-delta 1\n" +
                                    cursors + TextStats() + "end\n")
                  .IsParseError());
  EXPECT_EQ(inv.consumed_update_seq(), seq);

  for (const std::string& text :
       {std::string("delivery-queue 1\nsink 0 0 4 edge\nend\n"),
        std::string("delivery-queue 2\nsink 0 0 0 0 4 edge\nend\n")}) {
    EXPECT_TRUE(queue.RestoreState(text).IsParseError()) << text;
  }

  const std::string manifest_body =
      "cacheportal-manifest 1\nsnapshot -\nsnapshot_size 0\n"
      "snapshot_crc 0\nwal_start 1\nnext_seq 1\n";
  EXPECT_TRUE(storage::DecodeManifest(StrCat(manifest_body, "crc ",
                                             Crc32(manifest_body), "\n"))
                  .status()
                  .IsParseError());
}

/// A store whose snapshot holds a text checkpoint must not open as an
/// empty store: the coordinator fails, and the invalidator stays where
/// it was.
TEST(RetiredFormatTest, DurableStoreWithATextSnapshotFailsToOpen) {
  SimEnv env;
  {
    storage::DurableMetadataStore store(&env, "meta");
    storage::RecoveredState state;
    ASSERT_TRUE(store.Open(&state).ok());
    ASSERT_TRUE(store.RotateWal().ok());
    ASSERT_TRUE(store
                    .InstallSnapshot("cacheportal-invalidator-checkpoint 5\n"
                                     "update_seq 0\nshards 1\n"
                                     "shard_map_id 0 0\ntype_counter 0\n" +
                                     TextStats() + "end\n")
                    .ok());
  }
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  db.ExecuteSql("INSERT INTO Car VALUES ('Ford', 'Focus', 9000)").value();
  sniffer::QiUrlMap map;
  Invalidator inv(&db, &map, &clock);
  const uint64_t seq = inv.consumed_update_seq();
  invalidator::DurabilityOptions options;
  options.dir = "meta";
  options.env = &env;
  invalidator::DurabilityCoordinator coordinator(&inv, options);
  Status opened = coordinator.Open();
  EXPECT_TRUE(opened.IsParseError()) << opened.ToString();
  EXPECT_EQ(inv.consumed_update_seq(), seq);
  EXPECT_FALSE(coordinator.RunCycle().ok());
}

}  // namespace
}  // namespace cacheportal
