// Transport backend tests: rows-frame codec round trips, the socket
// backend's forked-worker protocol under concurrency (this file is in the
// TSan CI pass), drains, and the engine-level seam
// (EngineOptions::transport / SIMDB_TRANSPORT, measured vs modeled network
// accounting).
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "adm/wire.h"
#include "cluster/cost_model.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/query_processor.h"
#include "storage/file_util.h"
#include "transport/transport.h"

namespace simdb::transport {
namespace {

using adm::Value;
using hyracks::Rows;
using hyracks::Tuple;

Rows MakeRows(uint64_t seed, int n) {
  Random rng(seed);
  Rows rows;
  for (int i = 0; i < n; ++i) {
    Tuple row;
    row.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(1000))));
    row.push_back(Value::String("r" + std::to_string(i)));
    row.push_back(Value::MakeArray(
        {Value::Double(0.25 * static_cast<double>(i)), Value::Null()}));
    rows.push_back(std::move(row));
  }
  return rows;
}

bool RowsEqual(const Rows& a, const Rows& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); ++c) {
      if (!(a[i][c] == b[i][c])) return false;
    }
  }
  return true;
}

TEST(RowsFrameTest, RoundTripsEmptyAndNonEmpty) {
  for (int n : {0, 1, 7, 100}) {
    Rows rows = MakeRows(42, n);
    std::string frame;
    EncodeRowsFrame(rows, &frame);
    Result<Rows> back = DecodeRowsFrame(frame);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(RowsEqual(rows, *back)) << "n=" << n;
  }
}

TEST(RowsFrameTest, CorruptionRejected) {
  Rows rows = MakeRows(7, 5);
  std::string frame;
  EncodeRowsFrame(rows, &frame);
  std::string bad = frame;
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0x01);
  EXPECT_FALSE(DecodeRowsFrame(bad).ok());
  EXPECT_FALSE(DecodeRowsFrame(std::string_view(frame).substr(
                   0, frame.size() - 1))
                   .ok());
}

TEST(RowsFrameTest, TrailingPayloadRejected) {
  Rows rows = MakeRows(7, 2);
  std::string payload_frame;
  EncodeRowsFrame(rows, &payload_frame);
  // Re-wrap the decoded payload plus junk in a fresh (checksum-valid) frame:
  // the rows decoder itself must notice the leftovers.
  ByteReader r(payload_frame);
  Result<std::string_view> payload = adm::ReadFrame(&r);
  ASSERT_TRUE(payload.ok());
  std::string bigger(*payload);
  bigger += "junk";
  std::string frame;
  adm::WriteFrame(bigger, &frame);
  Result<Rows> back = DecodeRowsFrame(frame);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("trailing"), std::string::npos);
}

TEST(TransportKindTest, NamesAndEnvParsing) {
  EXPECT_STREQ(TransportKindName(TransportKind::kModeled), "modeled");
  EXPECT_STREQ(TransportKindName(TransportKind::kSocket), "socket");
  ::unsetenv("SIMDB_TRANSPORT");
  EXPECT_EQ(KindFromEnv(TransportKind::kModeled), TransportKind::kModeled);
  ::setenv("SIMDB_TRANSPORT", "socket", 1);
  EXPECT_EQ(KindFromEnv(TransportKind::kModeled), TransportKind::kSocket);
  // A removed backend's name is not silently remapped: it falls back, with
  // a warning naming the ignored value and the backend used.
  ::setenv("SIMDB_TRANSPORT", "shared-memory", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(KindFromEnv(TransportKind::kModeled), TransportKind::kModeled);
  std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("SIMDB_TRANSPORT=shared-memory"), std::string::npos)
      << warning;
  EXPECT_NE(warning.find("using modeled"), std::string::npos) << warning;
  ::setenv("SIMDB_TRANSPORT", "bogus", 1);
  EXPECT_EQ(KindFromEnv(TransportKind::kSocket), TransportKind::kSocket);
  ::unsetenv("SIMDB_TRANSPORT");
}

TEST(ModeledTransportTest, NeverShipsAndDrainsTrivially) {
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kModeled, 4);
  EXPECT_FALSE(t->measures_wall_clock());
  EXPECT_FALSE(t->ShouldShip(100, 1 << 20));
  EXPECT_TRUE(t->Drain().ok());
}

TEST(SocketTransportTest, ShipCrossesWorkerProcessAndIsIdentity) {
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kSocket, 2);
  EXPECT_TRUE(t->measures_wall_clock());
  // Socket backend ships only destinations with accounted remote traffic.
  EXPECT_FALSE(t->ShouldShip(10, 0));
  EXPECT_TRUE(t->ShouldShip(10, 128));
  for (int node = 0; node < 2; ++node) {
    Rows rows = MakeRows(static_cast<uint64_t>(node) + 5, 30);
    Rows original = rows;
    double seconds = -1;
    ASSERT_TRUE(t->Ship(node, &rows, &seconds).ok()) << "node " << node;
    EXPECT_TRUE(RowsEqual(rows, original)) << "node " << node;
    EXPECT_GT(seconds, 0.0);
  }
  // Drain pings every spawned worker over the control channel.
  EXPECT_TRUE(t->Drain().ok());
}

TEST(SocketTransportTest, ManySequentialShipsAndConcurrentNodes) {
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kSocket, 4);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int node = 0; node < 4; ++node) {
    threads.emplace_back([&, node] {
      for (int s = 0; s < 25; ++s) {
        Rows rows = MakeRows(static_cast<uint64_t>(node * 100 + s), 12);
        Rows original = rows;
        double seconds = 0;
        if (!t->Ship(node, &rows, &seconds).ok() ||
            !RowsEqual(rows, original)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(t->Drain().ok());
}

TEST(SocketTransportTest, WorkersForkedEagerlyAndDrainBoundedWhenIdle) {
  // Workers exist (and answer pings) from construction — nothing is forked
  // lazily from pool threads mid-query — so a drain succeeds before any
  // ship, bounded or not.
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kSocket, 3);
  EXPECT_TRUE(t->Drain(/*timeout_seconds=*/5.0).ok());
  EXPECT_TRUE(t->Drain().ok());
}

TEST(SocketTransportTest, TimedOutDrainLeavesChannelUsable) {
  // Regression: a bounded drain that times out *after* writing its ping
  // leaves the pong in flight on the stream. The next request on that
  // channel used to read the stale pong as its own reply and desynchronize
  // the protocol; now it drains pending pongs first. An already-expired
  // deadline forces exactly that path deterministically (the ping is
  // written, the bounded wait has zero budget left).
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kSocket, 2);
  int timed_out = 0;
  for (int i = 0; i < 5; ++i) {
    Status s = t->Drain(/*timeout_seconds=*/1e-9);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
      ++timed_out;
    }
  }
  ASSERT_GT(timed_out, 0);
  // Ships and unbounded drains must still work on the realigned channel.
  for (int node = 0; node < 2; ++node) {
    Rows rows = MakeRows(static_cast<uint64_t>(node) + 77, 10);
    Rows original = rows;
    double seconds = 0;
    ASSERT_TRUE(t->Ship(node, &rows, &seconds).ok()) << "node " << node;
    EXPECT_TRUE(RowsEqual(rows, original));
  }
  EXPECT_TRUE(t->Drain().ok());
}

TEST(SocketTransportTest, BoundedDrainSharesOneDeadlineAcrossWorkers) {
  // The timeout is one budget for the whole drain, not per worker: with N
  // workers and an expired deadline the drain returns once, quickly —
  // it must not serially spend a full timeout on each of the N channels.
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kSocket, 4);
  // Warm the channels so every worker is known-alive.
  EXPECT_TRUE(t->Drain().ok());
  Stopwatch sw;
  Status s = t->Drain(/*timeout_seconds=*/0.05);
  double elapsed = sw.ElapsedSeconds();
  // Either it finished in time or it timed out; both must respect the
  // *shared* budget with generous scheduling slack (4 x 0.05s serial
  // per-worker deadlines would take at least 0.2s).
  if (!s.ok()) EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 0.15);
  EXPECT_TRUE(t->Drain().ok());
}

TEST(SocketTransportTest, KilledWorkerSurfacesAsUnavailable) {
  // Worker-death injection: SIGKILL one worker and the failure mode must be
  // deterministic — kUnavailable (programmatically distinct from IO or
  // corruption errors), no hang, bounded drain still returns promptly, and
  // a fresh transport is unaffected.
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kSocket, 2);
  std::vector<int> pids = t->worker_pids();
  ASSERT_EQ(pids.size(), 2u);
  ASSERT_EQ(::kill(pids[1], SIGKILL), 0);
  // The kernel closes the worker's socket end when the process dies; both a
  // ship and a fragment dispatch to the dead node must fail kUnavailable.
  Rows rows = MakeRows(3, 8);
  double seconds = 0;
  Status dead_ship = t->Ship(1, &rows, &seconds);
  ASSERT_FALSE(dead_ship.ok());
  EXPECT_EQ(dead_ship.code(), StatusCode::kUnavailable);
  EXPECT_NE(dead_ship.message().find("worker gone"), std::string::npos);
  std::string reply;
  Status dead_frag = t->ExecuteFragment(1, "payload", &reply, &seconds);
  ASSERT_FALSE(dead_frag.ok());
  EXPECT_EQ(dead_frag.code(), StatusCode::kUnavailable);
  // The healthy worker keeps serving.
  Rows ok_rows = MakeRows(4, 8);
  Rows original = ok_rows;
  ASSERT_TRUE(t->Ship(0, &ok_rows, &seconds).ok());
  EXPECT_TRUE(RowsEqual(ok_rows, original));
  // Drains fail (they ping every worker) but return promptly — never hang —
  // and report the dead worker as unavailable.
  Stopwatch sw;
  Status drained = t->Drain(/*timeout_seconds=*/5.0);
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(drained.code(), StatusCode::kUnavailable);
  EXPECT_LT(sw.ElapsedSeconds(), 5.0);
  // Cancels hit the dead channel too; also kUnavailable, never a hang.
  Status cancelled = t->CancelFragments(9, /*timeout_seconds=*/5.0);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.code(), StatusCode::kUnavailable);
  // A replacement transport forks fresh workers and is fully functional.
  std::unique_ptr<Transport> fresh = MakeTransport(TransportKind::kSocket, 2);
  Rows fresh_rows = MakeRows(5, 8);
  Rows fresh_original = fresh_rows;
  ASSERT_TRUE(fresh->Ship(1, &fresh_rows, &seconds).ok());
  EXPECT_TRUE(RowsEqual(fresh_rows, fresh_original));
  EXPECT_TRUE(fresh->Drain().ok());
}

TEST(SocketTransportTest, OutOfRangeNodeFailsLoudly) {
  // Clamping a bad dst_node to worker 0 would mask routing bugs while
  // reporting success; it must be an error instead.
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kSocket, 2);
  Rows rows = MakeRows(9, 3);
  double seconds = 0;
  Status s = t->Ship(2, &rows, &seconds);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("out-of-range"), std::string::npos);
  EXPECT_FALSE(t->Ship(-1, &rows, &seconds).ok());
}

// --- Engine-level seam -----------------------------------------------------

std::string ScratchDir(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("simdb_transport_test_") + tag + "_" +
           std::to_string(::getpid())))
      .string();
}

core::EngineOptions EngineOptionsFor(const std::string& dir,
                                     TransportKind kind) {
  core::EngineOptions options;
  options.data_dir = dir;
  options.topology = {4, 2};
  options.num_threads = 2;
  options.transport = kind;
  return options;
}

void LoadTinyDataset(core::QueryProcessor& engine) {
  ASSERT_TRUE(engine.CreateDataset("D", "id").ok());
  const char* titles[] = {"data base systems", "database system design",
                          "query processing", "similarity query processing",
                          "large scale data", "parallel data management"};
  for (int i = 0; i < 60; ++i) {
    Value rec = Value::MakeObject(
        {{"id", Value::Int64(i)},
         {"title", Value::String(titles[i % 6])},
         {"score", Value::Int64(i % 10)}});
    ASSERT_TRUE(engine.Insert("D", std::move(rec)).ok());
  }
}

constexpr const char* kJoinQuery =
    "set simfunction \"jaccard\"; set simthreshold \"0.5\"; "
    "for $a in dataset('D') for $b in dataset('D') "
    "where word-tokens($a.title) ~= word-tokens($b.title) "
    "and $a.id < $b.id return { \"a\": $a.id, \"b\": $b.id };";

/// Both backends must return identical rows for an exchange-heavy join, and
/// the measured backend must flip the stats/cost-model to measured-network
/// accounting.
TEST(EngineTransportTest, BackendsAnswerIdenticallyAndAccountingFlips) {
  std::vector<std::string> expected;
  for (TransportKind kind :
       {TransportKind::kModeled, TransportKind::kSocket}) {
    std::string dir = ScratchDir(TransportKindName(kind));
    storage::RemoveAllBestEffort(dir);
    core::QueryProcessor engine(EngineOptionsFor(dir, kind));
    LoadTinyDataset(engine);
    core::QueryResult result;
    ASSERT_TRUE(engine.Execute(kJoinQuery, &result).ok());
    std::vector<std::string> rows;
    for (const Value& row : result.rows) rows.push_back(row.ToJson());
    std::sort(rows.begin(), rows.end());
    if (kind == TransportKind::kModeled) {
      expected = rows;
      EXPECT_FALSE(result.exec.network_measured);
    } else {
      EXPECT_EQ(rows, expected) << TransportKindName(kind);
      EXPECT_TRUE(result.exec.network_measured) << TransportKindName(kind);
    }
    cluster::MakespanReport report =
        cluster::ComputeMakespan(result.exec, engine.options().topology);
    if (kind == TransportKind::kModeled) {
      EXPECT_FALSE(report.network_measured);
      EXPECT_EQ(report.measured_network_seconds, 0.0);
      EXPECT_GT(report.network_seconds, 0.0);  // remote traffic was charged
    } else {
      EXPECT_TRUE(report.network_measured) << TransportKindName(kind);
      EXPECT_EQ(report.network_seconds, 0.0) << TransportKindName(kind);
      EXPECT_GT(report.measured_network_seconds, 0.0)
          << TransportKindName(kind);
    }
    EXPECT_TRUE(engine.DrainTransport().ok());
    storage::RemoveAllBestEffort(dir);
  }
}

TEST(EngineTransportTest, EnvOverrideSelectsBackend) {
  std::string dir = ScratchDir("env");
  storage::RemoveAllBestEffort(dir);
  ::setenv("SIMDB_TRANSPORT", "socket", 1);
  core::QueryProcessor engine(
      EngineOptionsFor(dir, TransportKind::kModeled));
  ::unsetenv("SIMDB_TRANSPORT");
  EXPECT_EQ(engine.transport_kind(), TransportKind::kSocket);
  storage::RemoveAllBestEffort(dir);
}

TEST(EngineTransportTest, SetTransportSwitchesBackend) {
  std::string dir = ScratchDir("switch");
  storage::RemoveAllBestEffort(dir);
  core::QueryProcessor engine(
      EngineOptionsFor(dir, TransportKind::kModeled));
  LoadTinyDataset(engine);
  core::QueryResult modeled;
  ASSERT_TRUE(engine.Execute(kJoinQuery, &modeled).ok());
  EXPECT_FALSE(modeled.exec.network_measured);
  engine.set_transport(TransportKind::kSocket);
  core::QueryResult socket;
  ASSERT_TRUE(engine.Execute(kJoinQuery, &socket).ok());
  EXPECT_TRUE(socket.exec.network_measured);
  auto normalize = [](const core::QueryResult& r) {
    std::vector<std::string> rows;
    for (const Value& row : r.rows) rows.push_back(row.ToJson());
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(normalize(modeled), normalize(socket));
  storage::RemoveAllBestEffort(dir);
}

}  // namespace
}  // namespace simdb::transport
