// Replay driver round-trip: traces survive save/load bit-for-bit,
// malformed files are rejected, and a recorded randomized workload
// replayed through a LIVE server (any speed) emits a stream bit-identical
// to the recorded run's direct-session emissions — the property that
// makes traces portable regression workloads.
#include "sim/wire_replay.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "net/acceptor.hpp"
#include "wire_test_util.hpp"

namespace tommy::sim {
namespace {

using namespace tommy::net::testing;
using core::FairOrderingService;
using core::ServiceConfig;
using net::FrameServer;
using net::ServerConfig;

std::string fresh_trace_path() {
  static std::atomic<int> counter{0};
  return "/tmp/tommy_trace_" + std::to_string(::getpid()) + "_"
         + std::to_string(counter.fetch_add(1)) + ".trace";
}

/// Records `workload` as a wire trace: per client one logical connection
/// (or `segments` connect/disconnect episodes, re-announcing on each
/// reconnect), frames stamped on the trace clock at their event stamps.
WireTrace record_workload(const std::vector<std::vector<Event>>& workload,
                          int segments = 1) {
  WireTraceRecorder recorder;
  for (std::uint32_t c = 0; c < workload.size(); ++c) {
    const auto& events = workload[c];
    const std::size_t per_segment =
        (events.size() + static_cast<std::size_t>(segments) - 1)
        / static_cast<std::size_t>(segments);
    std::size_t next = 0;
    for (int segment = 0; segment < segments && next < events.size();
         ++segment) {
      const double at =
          events[next].stamp.seconds() - 1e-6;  // just before the frames
      recorder.connect(c, at);
      recorder.send(c, at, announce_frame(c));
      const std::size_t end = std::min(events.size(), next + per_segment);
      for (; next < end; ++next) {
        recorder.send(c, events[next].stamp.seconds(),
                      event_frame(c, events[next]));
      }
      recorder.disconnect(c, events[next - 1].stamp.seconds() + 1e-6);
    }
  }
  return recorder.take();
}

TEST(WireTrace, SaveLoadRoundTripsBitForBit) {
  const auto workload = make_workload(3, 15, /*seed=*/71);
  const WireTrace trace = record_workload(workload, /*segments=*/2);
  ASSERT_FALSE(trace.events.empty());
  const std::string path = fresh_trace_path();
  ASSERT_TRUE(trace.save(path));
  const auto loaded = WireTrace::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, trace);
  EXPECT_EQ(loaded->connection_count(), 3u);
  EXPECT_EQ(loaded->total_bytes(), trace.total_bytes());
  std::remove(path.c_str());
}

TEST(WireTrace, LoadRejectsMalformedFiles) {
  const std::string path = fresh_trace_path();
  // Bad magic.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOPE", f);
    std::fclose(f);
    EXPECT_FALSE(WireTrace::load(path).has_value());
  }
  // Truncation at every prefix of a valid file.
  const auto workload = make_workload(1, 3, /*seed=*/5);
  const WireTrace trace = record_workload(workload);
  ASSERT_TRUE(trace.save(path));
  std::vector<std::uint8_t> bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    int c;
    while ((c = std::fgetc(f)) != EOF) {
      bytes.push_back(static_cast<std::uint8_t>(c));
    }
    std::fclose(f);
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, len, f), len);
    std::fclose(f);
    EXPECT_FALSE(WireTrace::load(path).has_value()) << "prefix " << len;
  }
  std::remove(path.c_str());
  EXPECT_FALSE(WireTrace::load(path).has_value());  // missing file
}

TEST(WireReplay, SparseConnectionIndexesSpawnNoIdleThreads) {
  // A trace whose only events live on a high connection index must not
  // spawn (or fail to spawn) thousands of threads for the empty slots —
  // it replays exactly its populated connections.
  auto registry = make_registry(1);
  core::FairOrderingService service(registry, ids(1), {});
  FrameServer server(registry, service,
                     ServerConfig{test_frontend_config()});
  const std::string socket_path = fresh_unix_path();
  ASSERT_TRUE(
      server.listen(net::Endpoint{.unix_path = socket_path, .tcp_port = 0}));

  WireTrace trace;
  const std::uint32_t sparse = kMaxTraceConnections - 1;
  trace.events.push_back(
      WireTraceEvent{WireTraceEvent::Kind::kConnect, sparse, 1.0, {}});
  trace.events.push_back(WireTraceEvent{WireTraceEvent::Kind::kSend, sparse,
                                        1.0, announce_frame(0)});
  trace.events.push_back(
      WireTraceEvent{WireTraceEvent::Kind::kDisconnect, sparse, 1.1, {}});
  const auto stats = replay(trace, ReplayTarget{socket_path, 0});
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->connections, 1u);
  EXPECT_EQ(stats->frames, 1u);
  server.stop();
}

TEST(WireTrace, LoadRejectsAbsurdConnectionIndexes) {
  // replay() spawns one thread per logical connection and sizes its
  // per-connection table from the max index: a corrupt file naming
  // connection 2^32-1 (or anything past the cap) must die at load, not
  // at an out-of-bounds write or a 50 GB allocation.
  const std::string path = fresh_trace_path();
  for (const std::uint32_t bad :
       {kMaxTraceConnections, ~std::uint32_t{0}}) {
    WireTrace trace;
    trace.events.push_back(
        WireTraceEvent{WireTraceEvent::Kind::kConnect, bad, 1.0, {}});
    ASSERT_TRUE(trace.save(path));
    EXPECT_FALSE(WireTrace::load(path).has_value()) << bad;
  }
  std::remove(path.c_str());
}

TEST(WireTrace, RecorderShapesEventsAsSpecified) {
  WireTraceRecorder recorder;
  recorder.connect(0, 1.0);
  recorder.send(0, 1.1, std::vector<std::uint8_t>{1, 2, 3});
  recorder.disconnect(0, 1.2);
  recorder.connect(0, 1.3);  // reconnect on the same logical index
  recorder.disconnect(0, 1.4);
  const WireTrace& trace = recorder.trace();
  ASSERT_EQ(trace.events.size(), 5u);
  EXPECT_EQ(trace.events[0].kind, WireTraceEvent::Kind::kConnect);
  EXPECT_EQ(trace.events[1].bytes, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(trace.events[3].kind, WireTraceEvent::Kind::kConnect);
  EXPECT_EQ(trace.connection_count(), 1u);
}

/// The headline: record → save → load → replay through a live Unix-domain
/// server == the recorded run's direct emissions, at wire speed and at a
/// paced speed, with reconnecting segments.
TEST(WireReplay, ReplayedEmissionsAreBitIdenticalToTheRecordedRun) {
  const auto workload = make_workload(4, 24, /*seed=*/91);
  ServiceConfig service_config;
  service_config.with_p_safe(0.99);
  const auto direct = run_direct(workload, service_config);
  ASSERT_FALSE(direct.empty());

  const WireTrace trace = record_workload(workload, /*segments=*/3);
  const std::string path = fresh_trace_path();
  ASSERT_TRUE(trace.save(path));
  const auto loaded = WireTrace::load(path);
  ASSERT_TRUE(loaded.has_value());
  std::remove(path.c_str());

  // Trace spans ~[1.0, 1.2] trace-seconds; speed 50 ⇒ a few ms of pacing,
  // enough to exercise the scheduler without slowing the suite.
  for (const double speed : {0.0, 50.0}) {
    auto registry = make_registry(4);
    FairOrderingService service(registry, ids(4), service_config);
    FrameServer server(registry, service,
                       ServerConfig{test_frontend_config()});
    const std::string socket_path = fresh_unix_path();
    ASSERT_TRUE(
      server.listen(net::Endpoint{.unix_path = socket_path, .tcp_port = 0}));

    ReplayOptions options;
    options.speed = speed;
    const auto stats =
        replay(*loaded, ReplayTarget{socket_path, 0}, options);
    ASSERT_TRUE(stats.has_value()) << "speed " << speed;
    EXPECT_EQ(stats->connections, 4u * 3u);
    EXPECT_EQ(stats->frames, loaded->events.size() - 2u * stats->connections);
    EXPECT_EQ(stats->bytes, loaded->total_bytes());

    // Everything the replay sent must be applied before we poll: all 12
    // episodes accepted and every connection done.
    ASSERT_TRUE(server.wait_for_accepted(stats->connections, 5000));
    server.frontend().join_readers();
    expect_equivalent(direct, drain_captured(service));
    server.stop();
    EXPECT_FALSE(server.running());
  }
}

// ── Typed load errors & dist-frame traces ───────────────────────────────

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return bytes;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    bytes.push_back(static_cast<std::uint8_t>(c));
  }
  std::fclose(f);
  return bytes;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TraceError load_error(const std::string& path) {
  TraceError error = TraceError::kNone;
  const auto trace = WireTrace::load(path, &error);
  EXPECT_EQ(trace.has_value(), error == TraceError::kNone);
  return error;
}

TEST(WireTrace, DistFramesRoundTripThroughATraceFile) {
  // The uplink protocol's frames (SafeTimeAnnounce, OrderedBatch) are
  // recordable wire traffic like any other — a merge-side capture must
  // survive the save/load round trip byte for byte.
  WireTraceRecorder recorder;
  recorder.connect(0, 1.0);
  recorder.send(0, 1.05,
                net::WireMessage(net::SafeTimeAnnounce{2, 1, TimePoint(1.04)}));
  net::OrderedBatch batch;
  batch.node = 2;
  batch.epoch = 1;
  batch.rank = 3;
  batch.safe_time = TimePoint(1.03);
  batch.emitted_at = TimePoint(1.05);
  batch.messages = {net::OrderedBatch::Entry{
      ClientId(4), MessageId(44), TimePoint(1.0), TimePoint(1.0005)}};
  recorder.send(0, 1.06, net::WireMessage(batch));
  recorder.disconnect(0, 1.1);
  const WireTrace trace = recorder.take();

  const std::string path = fresh_trace_path();
  ASSERT_TRUE(trace.save(path));
  ASSERT_EQ(load_error(path), TraceError::kNone);
  const auto loaded = WireTrace::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, trace);
  std::remove(path.c_str());
}

TEST(WireTrace, LoadReportsEveryFailureClassByName) {
  const std::string path = fresh_trace_path();
  EXPECT_EQ(load_error(path), TraceError::kIoError);  // missing file

  write_file(path, {'N', 'O', 'P', 'E'});
  EXPECT_EQ(load_error(path), TraceError::kBadMagic);
  write_file(path, {'T', 'M'});
  EXPECT_EQ(load_error(path), TraceError::kTruncated);  // mid-magic

  // A small valid file to mutate. Layout: magic(4) version(4) count(8)
  // then per event kind(1) connection(4) at(8) [len(4) bytes].
  const auto workload = make_workload(1, 3, /*seed=*/9);
  ASSERT_TRUE(record_workload(workload).save(path));
  const std::vector<std::uint8_t> good = file_bytes(path);
  ASSERT_EQ(load_error(path), TraceError::kNone);

  auto mutated = good;
  mutated[4] = 0xFE;  // version little-endian low byte
  write_file(path, mutated);
  EXPECT_EQ(load_error(path), TraceError::kBadVersion);

  mutated = good;
  mutated[16] = 0x7F;  // first event's kind byte
  write_file(path, mutated);
  EXPECT_EQ(load_error(path), TraceError::kBadEventKind);

  mutated = good;
  mutated.resize(good.size() - 3);  // ends mid-event
  write_file(path, mutated);
  EXPECT_EQ(load_error(path), TraceError::kTruncated);

  mutated = good;
  mutated.push_back(0xAA);
  write_file(path, mutated);
  EXPECT_EQ(load_error(path), TraceError::kTrailingGarbage);

  WireTrace absurd;
  absurd.events.push_back(WireTraceEvent{WireTraceEvent::Kind::kConnect,
                                         kMaxTraceConnections, 1.0, {}});
  ASSERT_TRUE(absurd.save(path));
  EXPECT_EQ(load_error(path), TraceError::kConnectionOutOfRange);

  EXPECT_STREQ(to_string(TraceError::kBadVersion), "unsupported version");
  EXPECT_STREQ(to_string(TraceError::kNone), "none");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tommy::sim
