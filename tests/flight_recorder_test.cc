// Tests for server/flight_recorder: ring fill/overwrite invariants (the
// dump is always the newest `capacity` records in seq order), slow-query
// pinning against the threshold, the FLIGHT dump payload shape, and
// record/dump consistency under concurrent writers (the tsan preset runs
// this file).

#include "server/flight_recorder.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/json.h"
#include "server/protocol.h"
#include "util/status.h"

namespace xplain {
namespace server {
namespace {

FlightRecord MakeRecord(uint64_t request_id, int64_t execute_us = 10) {
  FlightRecord record;
  record.request_id = request_id;
  record.op = RequestOp::kExplain;
  record.db_version = 1;
  record.cache = FlightRecord::CacheOutcome::kMiss;
  record.code = StatusCode::kOk;
  record.start_us = static_cast<int64_t>(request_id) * 100;
  record.queue_us = 2;
  record.execute_us = execute_us;
  record.flush_us = 1;
  record.bytes = 64;
  return record;
}

TEST(FlightRecorderTest, CapacityClampsToOne) {
  FlightRecorder recorder(0, -1);
  EXPECT_EQ(recorder.capacity(), 1u);
  EXPECT_TRUE(recorder.Record(MakeRecord(1)) == false);
  EXPECT_TRUE(recorder.Record(MakeRecord(2)) == false);
  const FlightRecorder::Dump dump = recorder.Snapshot();
  ASSERT_EQ(dump.records.size(), 1u);
  EXPECT_EQ(dump.records[0].request_id, 2u);
  EXPECT_EQ(dump.total_recorded, 2u);
  EXPECT_EQ(dump.overwritten, 1u);
}

TEST(FlightRecorderTest, BeforeWrapKeepsInsertionOrder) {
  FlightRecorder recorder(8, -1);
  for (uint64_t i = 0; i < 5; ++i) recorder.Record(MakeRecord(i));
  const FlightRecorder::Dump dump = recorder.Snapshot();
  ASSERT_EQ(dump.records.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(dump.records[i].seq, i);
    EXPECT_EQ(dump.records[i].request_id, i);
  }
  EXPECT_EQ(dump.total_recorded, 5u);
  EXPECT_EQ(dump.overwritten, 0u);
  EXPECT_EQ(dump.slow, 0u);
}

// The central overwrite invariant: after K > capacity records, the dump is
// exactly the last `capacity` records, oldest first, with the totals
// accounting for every record ever seen.
TEST(FlightRecorderTest, OverwriteKeepsNewestCapacityRecordsInSeqOrder) {
  constexpr size_t kCapacity = 4;
  constexpr uint64_t kTotal = 10;
  FlightRecorder recorder(kCapacity, -1);
  for (uint64_t i = 0; i < kTotal; ++i) recorder.Record(MakeRecord(i));
  const FlightRecorder::Dump dump = recorder.Snapshot();
  ASSERT_EQ(dump.records.size(), kCapacity);
  for (size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(dump.records[i].seq, kTotal - kCapacity + i);
  }
  EXPECT_EQ(dump.total_recorded, kTotal);
  EXPECT_EQ(dump.overwritten, kTotal - kCapacity);
}

TEST(FlightRecorderTest, SlowQueriesArePinnedAtThreshold) {
  FlightRecorder recorder(16, 100);
  // 2 + 90 + 1 = 93 us: under the threshold.
  EXPECT_FALSE(recorder.Record(MakeRecord(1, 90)));
  // 2 + 97 + 1 = 100 us: at the threshold counts as slow.
  EXPECT_TRUE(recorder.Record(MakeRecord(2, 97)));
  const FlightRecorder::Dump dump = recorder.Snapshot();
  EXPECT_EQ(dump.slow, 1u);
  ASSERT_EQ(dump.pinned.size(), 1u);
  EXPECT_EQ(dump.pinned[0].request_id, 2u);
  EXPECT_TRUE(dump.pinned[0].pinned);
  ASSERT_EQ(dump.records.size(), 2u);
  EXPECT_FALSE(dump.records[0].pinned);
  EXPECT_TRUE(dump.records[1].pinned);
}

TEST(FlightRecorderTest, NegativeThresholdDisablesPinning) {
  FlightRecorder recorder(4, -1);
  EXPECT_FALSE(recorder.Record(MakeRecord(1, 1000000)));
  const FlightRecorder::Dump dump = recorder.Snapshot();
  EXPECT_EQ(dump.slow, 0u);
  EXPECT_TRUE(dump.pinned.empty());
}

// A fast-traffic burst cannot evict pinned evidence: the pinned ring only
// rotates on *slow* records, with the same overwrite rule as the main one.
TEST(FlightRecorderTest, PinnedRingSurvivesFastTrafficAndOverwritesBySeq) {
  FlightRecorder recorder(8, 50);
  EXPECT_TRUE(recorder.Record(MakeRecord(1, 100)));  // slow, pinned
  for (uint64_t i = 2; i < 50; ++i) {
    EXPECT_FALSE(recorder.Record(MakeRecord(i, 1)));  // fast burst
  }
  FlightRecorder::Dump dump = recorder.Snapshot();
  ASSERT_EQ(dump.pinned.size(), 1u);
  EXPECT_EQ(dump.pinned[0].request_id, 1u);  // evidence survived

  // Now overflow the pinned ring with slow records: it keeps the newest
  // kPinnedCapacity in seq order.
  const uint64_t extra = FlightRecorder::kPinnedCapacity + 5;
  for (uint64_t i = 0; i < extra; ++i) {
    EXPECT_TRUE(recorder.Record(MakeRecord(100 + i, 100)));
  }
  dump = recorder.Snapshot();
  ASSERT_EQ(dump.pinned.size(), FlightRecorder::kPinnedCapacity);
  for (size_t i = 1; i < dump.pinned.size(); ++i) {
    EXPECT_LT(dump.pinned[i - 1].seq, dump.pinned[i].seq);
  }
  EXPECT_EQ(dump.pinned.back().request_id, 100 + extra - 1);
  EXPECT_EQ(dump.slow, 1u + extra);
}

TEST(FlightRecorderTest, DumpPayloadIsParsableAndComplete) {
  FlightRecorder recorder(8, 50);
  recorder.Record(MakeRecord(7, 10));
  recorder.Record(MakeRecord(8, 200));  // slow
  std::string payload = "{";
  payload += recorder.DumpPayload();
  payload += '}';
  auto root = JsonValue::Parse(payload);
  ASSERT_TRUE(root.ok()) << root.status().ToString() << "\n" << payload;
  EXPECT_TRUE(root->GetBool("ok", false));
  EXPECT_EQ(root->GetString("op", ""), "FLIGHT");
  EXPECT_EQ(root->GetNumber("capacity", -1), 8.0);
  EXPECT_EQ(root->GetNumber("slow_query_us", -1), 50.0);
  EXPECT_EQ(root->GetNumber("total_recorded", -1), 2.0);
  EXPECT_EQ(root->GetNumber("overwritten", -1), 0.0);
  EXPECT_EQ(root->GetNumber("slow", -1), 1.0);
  const JsonValue* records = root->Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_TRUE(records->is_array());
  ASSERT_EQ(records->array_items().size(), 2u);
  const JsonValue& first = records->array_items()[0];
  EXPECT_EQ(first.GetNumber("id", -1), 7.0);
  EXPECT_EQ(first.GetString("op", ""), "EXPLAIN");
  EXPECT_EQ(first.GetString("cache", ""), "miss");
  EXPECT_EQ(first.GetString("code", ""), "OK");
  EXPECT_EQ(first.GetString("trace", ""), "0");
  EXPECT_EQ(first.GetNumber("bytes", -1), 64.0);
  EXPECT_FALSE(first.GetBool("pinned", true));
  const JsonValue* pinned = root->Find("pinned");
  ASSERT_NE(pinned, nullptr);
  ASSERT_EQ(pinned->array_items().size(), 1u);
  EXPECT_EQ(pinned->array_items()[0].GetNumber("id", -1), 8.0);
}

TEST(FlightRecorderTest, CacheOutcomeNames) {
  EXPECT_STREQ(CacheOutcomeToString(FlightRecord::CacheOutcome::kHit), "hit");
  EXPECT_STREQ(CacheOutcomeToString(FlightRecord::CacheOutcome::kMiss),
               "miss");
  EXPECT_STREQ(CacheOutcomeToString(FlightRecord::CacheOutcome::kBypass),
               "bypass");
}

// The tsan preset runs this: concurrent recorders and dumpers. Every
// mid-stress snapshot must be internally consistent (seq strictly
// increasing, size bounded by capacity, totals coherent), and the final
// drain-time dump must hold exactly the newest `capacity` records.
TEST(FlightRecorderConcurrencyTest, RecordAndDumpStress) {
  static constexpr size_t kCapacity = 64;
  static constexpr int kWriters = 8;
  static constexpr uint64_t kPerWriter = 1000;
  FlightRecorder recorder(kCapacity, 5000);
  std::atomic<bool> stop{false};
  std::atomic<int> consistent_snapshots{0};

  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&recorder, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        recorder.Record(
            MakeRecord(static_cast<uint64_t>(w) * kPerWriter + i));
      }
    });
  }
  for (int reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&recorder, &stop, &consistent_snapshots] {
      // do-while: every reader takes at least one snapshot even if the
      // writers finish before this thread is first scheduled (single-core
      // machines under load), so consistent_snapshots > 0 is deterministic.
      do {
        const FlightRecorder::Dump dump = recorder.Snapshot();
        ASSERT_LE(dump.records.size(), kCapacity);
        for (size_t i = 1; i < dump.records.size(); ++i) {
          ASSERT_LT(dump.records[i - 1].seq, dump.records[i].seq);
        }
        ASSERT_EQ(dump.overwritten + dump.records.size(),
                  dump.total_recorded);
        consistent_snapshots.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_GT(consistent_snapshots.load(), 0);

  // Drain-time dump: all writers joined, so the dump is exact — the last
  // kCapacity of kWriters * kPerWriter records, consecutive seqs.
  const uint64_t total = static_cast<uint64_t>(kWriters) * kPerWriter;
  const FlightRecorder::Dump dump = recorder.Snapshot();
  EXPECT_EQ(dump.total_recorded, total);
  EXPECT_EQ(dump.overwritten, total - kCapacity);
  ASSERT_EQ(dump.records.size(), kCapacity);
  for (size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(dump.records[i].seq, total - kCapacity + i);
  }
}

}  // namespace
}  // namespace server
}  // namespace xplain
