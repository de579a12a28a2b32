// One shard of the distributed fair-ordering deployment: a sequential
// FairOrderingService over this node's client partition, fronted by a
// FrameServer for ingest, plus an uplink tier that lifts the service's
// emissions and safe-time frontier onto the wire for the merge node.
//
//   clients ──► ingest (FrameServer) ──► FairOrderingService (1 shard)
//                                              │ pump(now)
//                                              ▼
//               uplink (StreamAcceptor) ◀── OrderedBatch* + one
//               subscribers, retained replay    SafeTimeAnnounce
//
// Determinism contract (what makes the topology provably equivalent to
// the single-process kGlobalMerge oracle):
//  * The node primes its engine over the FULL registry — identical
//    derived tables to the oracle's shared engine — while expecting only
//    its partition; emissions are then a pure function of (ingest set,
//    poll schedule) exactly as in-process.
//  * Every pump appends one SafeTimeAnnounce carrying the post-drain
//    next_safe_time read under the SAME lock acquisition as the poll
//    (PumpOptions::next_safe_after on FrameFrontend::pump) — the
//    frontier the merge gates on is never stale relative to the batches
//    that precede it on the FIFO uplink.
//  * OrderedBatch ranks are the service's own dense per-shard ranks, so
//    a restarted incarnation (epoch + 1) that replays the same ingest
//    re-emits bit-identical frames rank for rank — the merge drops the
//    replayed prefix as duplicates and resumes where the dead
//    incarnation stopped.
//
// The uplink retains every frame it ever broadcast (in order) and
// replays the backlog to each new subscriber, so a merge node that
// connects late — or reconnects after this node restarts — observes the
// same FIFO stream as one connected from the start. Retention is
// per-incarnation state: it dies with the process, which is exactly
// right, because a restarted node rebuilds the stream by replaying
// ingest, not by remembering frames. Retention can be CAPPED
// (replay_retention_cap): the backlog becomes a sliding window and a
// subscriber arriving after frames have been truncated is refused with a
// typed ReplayTruncated frame — never a silent gap, because a merge that
// missed the truncated prefix would violate the FIFO-from-zero contract
// the rank dedup depends on. Live subscribers are unaffected (they
// already consumed the truncated frames).
//
// Self-clocking: start_pump() spawns an internal pump thread driving
// pump(clock()) every pump_interval — the node keeps emitting and
// announcing (advancing the merge frontier) without an external driver.
// stop_pump() stops it cleanly and performs one final pump_flush so held
// batches drain on shutdown.
//
// Both sockets listen through one spelling each: listen_ingest(Endpoint)
// and listen_uplink(Endpoint), with the endpoints straight from the
// topology. The pump clock and the ingest front-end's arrival clock
// default to the same function, net::system_clock_now(): the silence
// timeout subtracts an arrival from a pump time, so the two must share
// a domain, and it is the domain a wire client stamps in.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/service.hpp"
#include "net/acceptor.hpp"

namespace tommy::dist {

struct ShardNodeConfig {
  /// This node's index in the topology (the merge's peer slot, and the
  /// shard tag the oracle comparison keys on).
  std::uint32_t node{0};
  /// Incarnation counter: bump on every restart of the same node index.
  /// Stamped into every uplink frame; the merge uses it to tell a
  /// replayed prefix from the stream of a live incarnation.
  std::uint64_t epoch{0};
  /// Per-shard sequencer configuration (threshold, p_safe, preceding).
  core::OnlineConfig online{};
  /// Ingest front-end configuration (arrival_clock etc.).
  /// accept_new_clients is forced on: shard nodes answer the PR 6 join
  /// handshake with a HandshakeAck so perform_handshake completes — an
  /// expected client's identical re-announce is idempotent in the
  /// registry, so service state stays oracle-equivalent.
  net::FrontendConfig frontend{};
  /// Cap on the retained uplink replay backlog, in frames (0 =
  /// unbounded). Past the cap the oldest frames are truncated and any
  /// LATER subscriber is refused with a typed ReplayTruncated frame.
  std::size_t replay_retention_cap{0};
  /// Cadence of the internal pump thread (start_pump). Zero means
  /// start_pump is a programming error — drive pump(now) externally.
  std::chrono::microseconds pump_interval{0};
  /// Clock the pump thread stamps polls with. Default (null):
  /// net::system_clock_now(), the same clock the front-end's default
  /// arrival_clock reads, so a default-clocked node compares arrivals
  /// and poll times in one domain. Injectable for tests; a node that
  /// injects one clock should inject the other in the same domain.
  std::function<TimePoint()> pump_clock{};
};

class ShardNode {
 public:
  /// `registry` must be the FULL deployment registry (all clients on all
  /// nodes — see the determinism contract above) and must outlive the
  /// node. `expected` is this node's partition (Topology::partition).
  ShardNode(core::ClientRegistry& registry, std::vector<ClientId> expected,
            ShardNodeConfig config = {});

  /// stop()s.
  ~ShardNode();

  ShardNode(const ShardNode&) = delete;
  ShardNode& operator=(const ShardNode&) = delete;

  /// One endpoint value per socket, straight from the topology
  /// (NodeEndpoints is the same net::Endpoint type).
  [[nodiscard]] bool listen_ingest(const net::Endpoint& endpoint) {
    return server_.listen(endpoint);
  }
  [[nodiscard]] bool listen_uplink(const net::Endpoint& endpoint) {
    return uplink_.listen(endpoint);
  }

  /// Polls the service at `now`, publishes each emitted batch as one
  /// OrderedBatch frame followed by one SafeTimeAnnounce carrying the
  /// post-drain frontier, and broadcasts to every uplink subscriber
  /// (dead subscribers are dropped). Returns the number of batches
  /// emitted. One pump at a time — same contract as the front-end's.
  std::size_t pump(TimePoint now);

  /// flush() counterpart (shutdown drain, gates ignored; the trailing
  /// announce carries an infinite frontier).
  std::size_t pump_flush(TimePoint now);

  /// Spawns the self-clocking pump thread: pump(clock()) every
  /// config.pump_interval until stop_pump(). Requires a nonzero
  /// interval. Call once (stop_pump first to restart).
  void start_pump();

  /// Stops the pump thread and joins it, then ends with one
  /// pump_flush(clock()) so held batches and a final infinite-frontier
  /// announce drain to the uplink. Idempotent.
  void stop_pump();

  [[nodiscard]] bool pump_running() const;

  /// Stops the pump thread, both acceptors, the ingest front-end, and
  /// every uplink subscriber stream. Idempotent.
  void stop();

  [[nodiscard]] std::uint32_t node() const { return config_.node; }
  [[nodiscard]] std::uint64_t epoch() const { return config_.epoch; }

  [[nodiscard]] net::FrameServer& server() { return server_; }
  [[nodiscard]] const net::FrameServer& server() const { return server_; }
  [[nodiscard]] core::FairOrderingService& service() { return service_; }
  [[nodiscard]] net::StreamAcceptor& uplink() { return uplink_; }

  /// Uplink subscribers currently attached (post-replay, writes still
  /// succeeding).
  [[nodiscard]] std::size_t subscriber_count() const;
  /// Frames currently retained for replay (== frames ever broadcast,
  /// until the retention cap starts truncating).
  [[nodiscard]] std::size_t frames_retained() const;
  /// Frames truncated from the replay backlog by the retention cap.
  [[nodiscard]] std::uint64_t frames_truncated() const;
  /// SafeTimeAnnounce frames ever published (one per pump).
  [[nodiscard]] std::uint64_t announces_published() const;

 private:
  std::size_t pump_impl(TimePoint now, bool flush_all);
  /// Appends `frames` to the retained backlog (truncating past the
  /// retention cap) and writes them to every subscriber, dropping
  /// subscribers whose writes fail.
  void publish(std::vector<std::vector<std::uint8_t>>&& frames);
  void subscribe(std::shared_ptr<net::ByteStream> stream);
  void pump_loop();
  [[nodiscard]] TimePoint pump_now() const;

  ShardNodeConfig config_;
  core::FairOrderingService service_;
  net::FrameServer server_;
  net::StreamAcceptor uplink_;

  /// Guards the retained backlog and subscriber set (accept thread vs
  /// pump thread).
  mutable std::mutex uplink_mutex_;
  std::deque<std::vector<std::uint8_t>> retained_;
  std::vector<std::shared_ptr<net::ByteStream>> subscribers_;
  std::uint64_t announces_{0};
  std::uint64_t truncated_{0};

  /// Serializes pump_impl callers (manual pump vs pump thread).
  std::mutex pump_call_mutex_;
  /// Guards the pump thread's lifecycle flags.
  mutable std::mutex pump_mutex_;
  std::condition_variable pump_cv_;
  std::thread pump_thread_;
  bool pump_running_{false};
  bool pump_stopping_{false};
};

}  // namespace tommy::dist
