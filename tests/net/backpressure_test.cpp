// End-to-end backpressure through the event-driven front-end, both
// directions:
//
//  * Ingest: a client outruns a stalled service — the connection's
//    drive() stalls, the poller stops reading the socket, the kernel
//    buffers fill, and TCP flow control blocks the client's writer.
//    Releasing the stall drains everything with zero frame loss; a
//    FaultyByteStream cut landing mid-backpressure loses exactly the
//    undelivered tail and nothing else.
//
//  * Egress: a subscriber that stops reading fills its socket and then
//    its bounded egress queue; the configured EgressPolicy fires (drop
//    frames + count, or tear the subscriber down). A FaultyByteStream
//    write cut mid-backpressure surfaces as a failed flush and the
//    subscriber is reaped. A lingering subscriber (half-closed, still
//    served) drains its whole queue after a final flush.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/service.hpp"
#include "net/faulty_stream.hpp"
#include "net/frontend.hpp"
#include "wire_test_util.hpp"

namespace tommy::net {
namespace {

using namespace tommy::net::testing;
using core::ClientRegistry;
using core::FairOrderingService;
using core::ServiceConfig;

/// A socketpair with deliberately tiny kernel buffers, so backpressure
/// engages after a few tens of KB instead of a few hundred.
struct TinyPair {
  int fds[2]{-1, -1};
  TinyPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const int small = 8 * 1024;
    for (int fd : {fds[0], fds[1]}) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
    }
  }
  // make_fd_stream takes ownership of the fds; nothing to close here.
};

FrontendConfig event_config() {
  FrontendConfig config = test_frontend_config();
  config.transport = TransportMode::kEventLoop;
  config.poller_threads = 1;
  return config;
}

/// The ingest-stall fixture shared by the zero-loss and cut tests.
/// `cut_after_flood_frames < 0` means no cut (the client delivers the
/// whole flood and closes cleanly); otherwise the client's
/// FaultyByteStream cuts the wire at exactly that flood-frame boundary —
/// while its writer is blocked in TCP flow control.
void run_ingest_stall(int flood_frames, int cut_after_flood_frames) {
  ClientRegistry registry = make_registry(1);
  ServiceConfig service_config;
  service_config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(1), service_config);
  FrontendConfig config = event_config();
  config.submit_batch_limit = 16;
  FrameFrontend frontend(registry, service, config);

  TinyPair pair;
  const std::uint64_t id =
      frontend.add_connection(make_fd_stream(pair.fds[0]));

  // Pre-feed: handshake + 3 messages + a heartbeat, so the first pump
  // has something to emit (the emission is what parks the blocking sink
  // inside the ingest lock).
  constexpr int kPrefeed = 3;
  std::vector<std::uint8_t> prefeed = announce_frame(0);
  for (int k = 0; k < kPrefeed; ++k) {
    const auto frame =
        message_frame(0, static_cast<std::uint64_t>(k), 1.0 + 1e-3 * k);
    prefeed.insert(prefeed.end(), frame.begin(), frame.end());
  }
  const auto beat = heartbeat_frame(0, 1.05);
  prefeed.insert(prefeed.end(), beat.begin(), beat.end());

  // The flood, built up front so the cut offset can name an exact frame
  // boundary within it.
  std::vector<std::uint8_t> flood;
  std::size_t cut_offset = FaultPlan::kNever;
  for (int k = 0; k < flood_frames; ++k) {
    const auto frame = message_frame(0, 1000 + static_cast<std::uint64_t>(k),
                                     5.0 + 1e-6 * k);
    flood.insert(flood.end(), frame.begin(), frame.end());
    if (k + 1 == cut_after_flood_frames) {
      cut_offset = prefeed.size() + flood.size();
    }
  }

  FaultPlan plan;
  plan.write_chunks = {97, 13, 53};
  plan.write_chunks_cycle = true;
  plan.cut_write_after = cut_offset;
  FaultyByteStream wire(make_fd_stream(pair.fds[1]), plan);

  ASSERT_TRUE(wire.write_all(std::span<const std::uint8_t>(prefeed)));
  ASSERT_TRUE(eventually([&frontend, id] {
    return frontend.connection_stats(id).submits_in == kPrefeed
           && frontend.connection_stats(id).heartbeats_in == 1;
  }));

  // Park a pump inside the ingest lock: the sink blocks on a gate while
  // drain_locked still holds the sequential-mode ingest mutex, so every
  // connection drive() from here on stalls (try_lock fails).
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool sink_blocked = false;
  bool released = false;
  std::size_t sunk_messages = 0;
  auto blocking = [&](core::EmissionRecord&& record, std::uint32_t) {
    std::unique_lock<std::mutex> lock(gate_mutex);
    sunk_messages += record.batch.messages.size();
    if (!released) {
      sink_blocked = true;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&] { return released; });
    }
  };
  std::thread pump([&] {
    core::CallbackSink<decltype(blocking)> sink(blocking);
    PumpOptions options;
    options.sink = &sink;
    options.flush = true;
    (void)frontend.pump(TimePoint(2.0), options);
  });
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return sink_blocked; });
  }

  // Flood from a writer thread. The server decodes until its pending
  // buffer hits submit_batch_limit, stalls, and stops reading; the tiny
  // kernel buffers fill; write_all blocks — the backpressure reached the
  // client.
  std::atomic<bool> writer_done{false};
  std::atomic<bool> writer_ok{false};
  std::thread writer([&] {
    writer_ok.store(wire.write_all(std::span<const std::uint8_t>(flood)));
    writer_done.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(writer_done.load());
  const std::uint64_t stalled_submits =
      frontend.connection_stats(id).submits_in;
  // Decoded-but-unapplied frames are bounded by the batch limit; nothing
  // more is read off the socket while stalled.
  EXPECT_LE(stalled_submits, kPrefeed + config.submit_batch_limit);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(frontend.connection_stats(id).submits_in, stalled_submits);

  // Release the sink: the pump finishes, the stall tick re-acquires the
  // lock, reading resumes, and the writer unblocks.
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    released = true;
  }
  gate_cv.notify_all();
  pump.join();
  writer.join();

  const bool expect_cut = cut_after_flood_frames >= 0;
  const int delivered_flood =
      expect_cut ? cut_after_flood_frames : flood_frames;
  if (expect_cut) {
    EXPECT_FALSE(writer_ok.load());
    EXPECT_TRUE(wire.stats().write_cut);
  } else {
    EXPECT_TRUE(writer_ok.load());
    // Trailing heartbeat pushes the frontier past the flood, then a
    // clean half-close.
    ASSERT_TRUE(wire.write_all(heartbeat_frame(0, 100.0)));
    wire.close_write();
  }

  // Zero loss up to the delivery boundary: every frame that crossed the
  // wire reaches the service, none twice, none torn.
  ASSERT_TRUE(eventually([&frontend, id, delivered_flood] {
    return frontend.connection_stats(id).submits_in
           == static_cast<std::uint64_t>(kPrefeed + delivered_flood);
  }));
  ASSERT_TRUE(eventually(
      [&frontend, id] { return frontend.connection_stats(id).done; }));

  std::size_t drained_messages = 0;
  auto count = [&](core::EmissionRecord&& record, std::uint32_t) {
    drained_messages += record.batch.messages.size();
  };
  core::CallbackSink<decltype(count)> sink(count);
  PumpOptions options;
  options.sink = &sink;
  options.flush = true;
  (void)frontend.pump(TimePoint(200.0), options);
  EXPECT_EQ(sunk_messages + drained_messages,
            static_cast<std::size_t>(kPrefeed + delivered_flood));
}

TEST(IngestBackpressure, StalledServiceStopsTheSocketAndLosesNothing) {
  run_ingest_stall(/*flood_frames=*/3000, /*cut_after_flood_frames=*/-1);
}

TEST(IngestBackpressure, CutMidBackpressureLosesOnlyTheUndeliveredTail) {
  // The cut lands at a frame boundary the writer only reaches AFTER
  // being blocked by flow control (the boundary is far past what the
  // tiny buffers absorb), i.e. mid-backpressure.
  run_ingest_stall(/*flood_frames=*/4000, /*cut_after_flood_frames=*/3000);
}

/// The egress fixture: a handshaken subscriber that never reads, plus a
/// direct ingest session the test pumps through the front-end so
/// broadcast frames pile into the subscriber's bounded egress queue.
struct EgressRig {
  ClientRegistry registry = make_registry(2);
  FairOrderingService service;
  FrameFrontend frontend;
  TinyPair pair;
  std::shared_ptr<ByteStream> subscriber;
  std::uint64_t id{0};
  FairOrderingService::Session session;
  double base{1.0};

  /// `wrap`, when set, decorates the server-side stream (the cut test
  /// interposes a FaultyByteStream) before the front-end adopts it.
  explicit EgressRig(
      FrontendConfig config,
      const std::function<std::shared_ptr<ByteStream>(
          std::shared_ptr<ByteStream>)>& wrap = {})
      : service(registry, ids(2),
                [] {
                  ServiceConfig c;
                  c.with_p_safe(0.99);
                  return c;
                }()),
        frontend(registry, service, std::move(config)) {
    std::shared_ptr<ByteStream> server_stream = make_fd_stream(pair.fds[0]);
    if (wrap) server_stream = wrap(std::move(server_stream));
    id = frontend.add_connection(std::move(server_stream));
    subscriber = make_fd_stream(pair.fds[1]);
    // Handshake as client 1 (and nothing else — this peer only
    // receives). Waiting for it keeps the poller thread quiescent
    // before the direct-session ingest below starts.
    EXPECT_TRUE(subscriber->write_all(announce_frame(1)));
    EXPECT_TRUE(eventually([this] {
      return frontend.connection_stats(id).frames_in == 1;
    }));
    session = service.open_session(ClientId(0));
  }

  /// One ingest+broadcast round: a 50-message batch flushed through the
  /// front-end, so one BatchEmission frame heads for the subscriber.
  void round() {
    std::vector<core::Submission> batch;
    for (int k = 0; k < 50; ++k) {
      const TimePoint stamp(base + 1e-4 * k);
      batch.push_back(core::Submission{
          stamp, MessageId(static_cast<std::uint64_t>(base * 1e6) + k),
          stamp + kWireDelay});
    }
    session.submit_batch(std::span<const core::Submission>(batch));
    session.heartbeat(TimePoint(base + 0.009),
                      TimePoint(base + 0.009) + kWireDelay);
    (void)frontend.pump_flush(TimePoint(base + 1.0));
    base += 0.01;
  }
};

TEST(EgressBackpressure, SlowSubscriberOverflowDropsFramesUnderDropPolicy) {
  FrontendConfig config = event_config();
  config.egress_buffer_bytes = 4096;
  config.egress_policy = EgressPolicy::kDrop;
  EgressRig rig(config);

  for (int r = 0; r < 200; ++r) {
    rig.round();
    if (rig.frontend.connection_stats(rig.id).frames_dropped > 0) break;
  }
  EXPECT_GT(rig.frontend.connection_stats(rig.id).frames_dropped, 0u);
  // Dropping keeps the subscriber: still registered, still counted live.
  EXPECT_TRUE(rig.frontend.has_connection(rig.id));
  EXPECT_EQ(rig.frontend.connection_count(), 1u);
  (void)rig.frontend.reap();
  EXPECT_EQ(rig.frontend.tracked_connection_count(), 1u);
}

TEST(EgressBackpressure, SlowSubscriberOverflowDisconnectsUnderDefaultPolicy) {
  FrontendConfig config = event_config();
  config.egress_buffer_bytes = 4096;
  ASSERT_EQ(config.egress_policy, EgressPolicy::kDisconnect);
  EgressRig rig(config);

  for (int r = 0; r < 200; ++r) {
    rig.round();  // pump reaps, so the torn-down subscriber vanishes here
    if (!rig.frontend.has_connection(rig.id)) break;
  }
  // The teardown is asynchronous: the policy drops write_ok and shuts the
  // stream down on the pump thread, but reap() can only take the
  // connection once the poller observes the shutdown (EOF → done).
  EXPECT_TRUE(eventually([&rig] {
    (void)rig.frontend.reap();
    return !rig.frontend.has_connection(rig.id);
  }));
  EXPECT_EQ(rig.frontend.connection_count(), 0u);
  EXPECT_EQ(rig.frontend.totals().removed, 1u);
}

/// Reads BatchEmission frames off `stream` until `expected` arrived or
/// `timeout_ms` passed with the socket idle; returns how many arrived.
std::size_t read_frames(ByteStream& stream, std::size_t expected,
                        int timeout_ms) {
  FrameDecoder decoder;
  std::vector<std::uint8_t> buffer(4096);
  std::size_t frames = 0;
  auto deadline = std::chrono::steady_clock::now()
                  + std::chrono::milliseconds(timeout_ms);
  while (frames < expected && std::chrono::steady_clock::now() < deadline) {
    const IoResult r = stream.try_read(buffer);
    if (r.status == IoStatus::kWouldBlock) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (r.status != IoStatus::kOk) break;
    decoder.append(std::span<const std::uint8_t>(buffer.data(), r.bytes));
    while (decoder.next()) ++frames;
    deadline = std::chrono::steady_clock::now()
               + std::chrono::milliseconds(timeout_ms);
  }
  return frames;
}

TEST(EgressBackpressure, LingeringSubscriberDrainsItsQueueAfterAFinalFlush) {
  // The subscriber half-closes: under EofPolicy::kLinger its connection
  // is done reading but still owed every broadcast. One final flush
  // queues far more frames than its tiny socket holds, and no later
  // broadcast will come to push them out — the queue must drain on the
  // writability edges its reads produce.
  FrontendConfig config = event_config();
  ASSERT_EQ(config.eof_policy, EofPolicy::kLinger);
  config.egress_buffer_bytes = 4 * 1024 * 1024;
  EgressRig rig(config);
  rig.subscriber->close_write();
  ASSERT_TRUE(eventually(
      [&rig] { return rig.frontend.connection_stats(rig.id).done; }));

  // Stamps 10 ms apart: every message is its own batch, so every one
  // becomes its own BatchEmission frame.
  constexpr std::size_t kBatches = 5000;
  std::vector<core::Submission> spaced;
  for (std::size_t k = 0; k < kBatches; ++k) {
    const TimePoint stamp(1.0 + 0.01 * static_cast<double>(k));
    spaced.push_back(core::Submission{stamp, MessageId(k), stamp + kWireDelay});
  }
  rig.session.submit_batch(std::span<const core::Submission>(spaced));
  ASSERT_EQ(rig.frontend.pump_flush(TimePoint(1000.0)), kBatches);
  // The socket took only a prefix; the rest waits in the egress queue.
  ASSERT_LT(rig.frontend.connection_stats(rig.id).frames_out, kBatches);

  EXPECT_EQ(read_frames(*rig.subscriber, kBatches, /*timeout_ms=*/2000),
            kBatches);
  EXPECT_TRUE(eventually([&rig] {
    return rig.frontend.connection_stats(rig.id).frames_out == kBatches;
  }));
  EXPECT_TRUE(rig.frontend.has_connection(rig.id));
}

TEST(EgressBackpressure, WriteCutMidBackpressureTearsTheSubscriberDown) {
  // A subscriber that reads, but far too slowly: the egress queue stays
  // engaged (socket full, frames queued/dropped) while bytes trickle
  // out — until the FaultyByteStream cut fires mid-flush and the failed
  // write tears the connection down. kDrop policy, so the teardown is
  // attributable to the cut alone.
  FrontendConfig config = event_config();
  config.egress_buffer_bytes = 4096;
  config.egress_policy = EgressPolicy::kDrop;

  FaultPlan plan;
  plan.write_chunks = {7, 23};
  plan.write_chunks_cycle = true;
  plan.cut_write_after = 40 * 1024;  // beyond the kernel buffers: the
                                     // cut needs writability edges (the
                                     // slow reader) to ever be reached
  std::shared_ptr<FaultyByteStream> faulty;
  EgressRig rig(config, [&faulty, &plan](std::shared_ptr<ByteStream> inner) {
    faulty = std::make_shared<FaultyByteStream>(std::move(inner), plan);
    return faulty;
  });

  std::atomic<bool> stop_reader{false};
  std::thread reader([&rig, &stop_reader] {
    std::vector<std::uint8_t> buffer(512);
    while (!stop_reader.load()) {
      const auto r = rig.subscriber->read_some(buffer);
      if (!r.has_value() || *r == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  bool removed = false;
  for (int r = 0; r < 2000 && !removed; ++r) {
    rig.round();
    removed = !rig.frontend.has_connection(rig.id);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Same asynchrony as the policy teardown: the cut shuts the inner
  // stream down, and removal follows once the poller sees the EOF.
  EXPECT_TRUE(eventually([&rig] {
    (void)rig.frontend.reap();
    return !rig.frontend.has_connection(rig.id);
  }));
  EXPECT_TRUE(faulty->stats().write_cut);
  EXPECT_EQ(rig.frontend.connection_count(), 0u);
  EXPECT_EQ(rig.frontend.totals().removed, 1u);

  stop_reader.store(true);
  rig.subscriber->shutdown();
  reader.join();
}

}  // namespace
}  // namespace tommy::net
