// The merge tier: subscribes to N shard-node uplinks as a frame client,
// runs the cross-node holdback, and releases the one global stream —
// records leaving in ascending MergeKey (safe_time T_b, node, rank)
// order, a record released only once min(next_safe_time) over the peer
// frontiers has strictly passed its T_b. The holdback is the same
// core::MergeHoldback the in-process kGlobalMerge drain runs: one key,
// one strict gate, and the same two caveats (rank-blocked batches,
// empty-shard stragglers) bounding the total-order claim. merge_key()
// below maps the wire records onto that key.
//
// Peers are dialed with connect(node, Endpoint) or handed over already
// open with attach(); the downlink listens through
// downlink().listen(Endpoint).
//
// Frontier rule (liveness under faults): every configured peer always
// contributes to the gate. A peer contributes −infinity — blocking all
// release — until its connection is live AND it has announced at least
// once; its contribution reverts to −infinity the moment its connection
// dies. The merge never speculates past a silent peer: releasing less is
// only latency, releasing past an unheard frontier is a reorder. Blocked
// records drain as soon as the restarted node reconnects and its
// replayed announces re-establish (then advance) the frontier.
//
// Restart/resume: a shard node restarts as a new incarnation (epoch + 1)
// and, because emission is deterministic, re-emits the SAME OrderedBatch
// stream rank for rank. The merge therefore keys duplicate-drop on the
// per-node dense rank alone, monotone ACROSS epochs: ranks below the
// accepted count are the replayed prefix (dropped — already held or
// released, bit-identical by determinism), the rank equal to it resumes
// the stream, and a rank above it is a protocol violation (kRankGap —
// FIFO uplinks plus replay-from-zero make gaps impossible, so a gap
// means a non-deterministic or misconfigured node). Epochs are tracked
// to reject stale frames defensively and for observability.
// Replication (hot standby + cutover): because the holdback is
// deterministic, any number of MergeNodes subscribed to the same shard
// uplinks release IDENTICAL streams (late-subscriber replay delivers full
// history on attach). Each merge therefore also acts as a publisher: a
// *downlink* acceptor re-broadcasts every released OrderedBatch plus a
// MergeWatermark cursor — (released count, safe_time, node, rank of the
// last released record) — and replays its full released backlog to each
// new downlink subscriber. A downstream consumer (MergeSubscriber) that
// remembers its watermark can resume from any replica, dropping the
// replayed prefix at the watermark: gap-free and duplicate-free, because
// the release cursor sequence is strictly ascending and identical on
// every replica.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "core/merge_holdback.hpp"
#include "net/acceptor.hpp"
#include "net/messages.hpp"

namespace tommy::dist {

/// Typed per-peer protocol errors at the merge.
enum class MergeError : std::uint8_t {
  kNone,
  /// An OrderedBatch skipped ahead of the next expected rank.
  kRankGap,
  /// Framing failed (oversized) or a payload failed WireMessage decode.
  kMalformedFrame,
  /// A frame kind that does not belong on an uplink (anything other than
  /// OrderedBatch / SafeTimeAnnounce / ReplayTruncated).
  kUnexpectedFrame,
  /// The underlying stream reported a transport error.
  kStreamError,
  /// The peer's retention cap truncated the replay this subscription
  /// needed (typed ReplayTruncated frame) — attaching would have
  /// silently skipped history.
  kReplayTruncated,
};

[[nodiscard]] const char* to_string(MergeError error);

/// Release position of a wire batch: (safe_time, node, rank).
[[nodiscard]] inline core::MergeKey merge_key(const net::OrderedBatch& batch) {
  return core::MergeKey{batch.safe_time, batch.node, batch.rank};
}

/// The cursor a watermark names, on the same key. Epoch is deliberately
/// absent from both: replicas may hold different-epoch copies of the same
/// record after a shard restart, and the record is bit-identical either
/// way.
[[nodiscard]] inline core::MergeKey merge_key(
    const net::MergeWatermark& watermark) {
  return core::MergeKey{watermark.safe_time, watermark.node, watermark.rank};
}

struct MergeConfig {
  std::size_t max_frame_bytes{net::kDefaultMaxFrameBytes};
  /// Backoff budget for connect() dials.
  net::RetryPolicy retry{};
  /// Stall watchdog: a connected peer silent for longer than this is
  /// flagged `stalled` in its stats (observability ONLY — a stalled
  /// peer keeps its last announced frontier, the gate never speculates
  /// past it). Zero disables the watchdog thread.
  std::chrono::milliseconds staleness_budget{0};
  /// Watchdog poll cadence; zero derives staleness_budget / 4 (min 1ms).
  std::chrono::milliseconds watchdog_interval{0};
};

/// Typed liveness verdict for one peer slot. Observability ONLY in
/// every state: the release gate holds a disconnected/never-heard peer
/// at −infinity and a stalled peer at its last announced frontier — no
/// state is ever license to speculate past what the peer said.
enum class MergePeerState : std::uint8_t {
  /// Stream up, no frame decoded yet (gate at −infinity).
  kNeverHeard,
  /// Stream up, heard within the staleness budget.
  kLive,
  /// Stream up but silent past the staleness budget (watchdog verdict;
  /// gate pinned at the peer's last frontier until it speaks).
  kPeerStalled,
  /// Stream gone or never dialed (gate back at −infinity).
  kDisconnected,
};

[[nodiscard]] const char* to_string(MergePeerState state);

/// Point-in-time view of one peer slot.
struct MergePeerStats {
  bool connected{false};
  std::uint64_t epoch{0};
  /// Batches accepted into the holdback (== next expected rank).
  std::uint64_t accepted{0};
  /// Replayed-prefix batches dropped.
  std::uint64_t duplicates{0};
  /// Frames dropped for carrying an epoch below the adopted one.
  std::uint64_t stale{0};
  /// SafeTimeAnnounce frames applied.
  std::uint64_t announces{0};
  TimePoint next_safe{};
  MergeError error{MergeError::kNone};
  /// Typed liveness verdict (kPeerStalled == `stalled` below).
  MergePeerState state{MergePeerState::kDisconnected};
  /// Watchdog verdict: connected but silent past the staleness budget
  /// (the gate is pinned at this peer's last frontier and nothing will
  /// move until it speaks).
  bool stalled{false};
  /// Seconds since the last frame from this peer (+infinity if it has
  /// never been heard from).
  double since_heard_seconds{std::numeric_limits<double>::infinity()};
};

class MergeNode {
 public:
  explicit MergeNode(std::uint32_t node_count, MergeConfig config = {});

  /// stop()s.
  ~MergeNode();

  MergeNode(const MergeNode&) = delete;
  MergeNode& operator=(const MergeNode&) = delete;

  /// Dials peer `node`'s uplink under the config retry budget and
  /// attaches the stream. False if the dial failed. Reconnect after a
  /// node restart is the same call again — the peer slot must be
  /// disconnected (its old reader joined here).
  [[nodiscard]] bool connect(std::uint32_t node,
                             const net::Endpoint& endpoint);

  /// Attaches an already-open uplink stream to peer slot `node` and
  /// spawns its reader. Precondition: the slot is not currently
  /// connected.
  void attach(std::uint32_t node, std::shared_ptr<net::ByteStream> stream);

  /// Downlink: the released stream re-published for downstream
  /// consumers (MergeSubscriber). Every new subscriber gets the full
  /// released backlog replayed, then a fresh MergeWatermark, then live
  /// releases as they happen — the same late-subscriber contract the
  /// shard uplinks give this node.
  /// downlink().listen on a Unix path; kept for the livebench harness.
  [[nodiscard]] bool listen_downlink_unix(const std::string& path) {
    return downlink_.listen(net::Endpoint{.unix_path = path, .tcp_port = 0});
  }
  [[nodiscard]] net::StreamAcceptor& downlink() { return downlink_; }
  [[nodiscard]] std::size_t downlink_subscriber_count() const;

  /// The release watermark: how many records have been released and the
  /// (safe_time, node, rank) cursor of the last one (released == 0 is
  /// the empty watermark).
  [[nodiscard]] net::MergeWatermark watermark() const;

  /// Releases every held record the gate allows (strictly below
  /// min(next_safe) over the peer frontiers), in MergeKey order,
  /// appending to the released log. Returns the number released.
  std::size_t release();

  /// Releases everything held regardless of the gate (shutdown drain —
  /// call once every uplink has delivered its final frames).
  std::size_t flush();

  /// The global output stream so far (copy; grows monotonically — index
  /// i is release position i forever).
  [[nodiscard]] std::vector<net::OrderedBatch> released() const;
  [[nodiscard]] std::size_t released_count() const;
  /// Records held back awaiting the gate.
  [[nodiscard]] std::size_t held_count() const;
  /// Current gate: min over peer frontiers (−infinity while any peer is
  /// down or unheard).
  [[nodiscard]] TimePoint gate() const;

  [[nodiscard]] std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(peers_.size());
  }
  [[nodiscard]] MergePeerStats peer(std::uint32_t node) const;

  /// Blocks until peer `node` has applied at least `n` announces, or
  /// `timeout_ms` elapsed. True if reached. (FIFO uplinks mean an
  /// applied announce implies every batch published before it has been
  /// applied too — the soak's synchronization point.)
  [[nodiscard]] bool wait_for_announces(std::uint32_t node, std::uint64_t n,
                                        int timeout_ms);

  /// Shuts every peer stream down and joins every reader. Idempotent.
  void stop();

 private:
  struct Peer {
    std::shared_ptr<net::ByteStream> stream;
    std::thread reader;
    bool connected{false};
    std::uint64_t epoch{0};
    std::uint64_t accepted{0};
    std::uint64_t duplicates{0};
    std::uint64_t stale{0};
    std::uint64_t announces{0};
    TimePoint next_safe{-std::numeric_limits<double>::infinity()};
    MergeError error{MergeError::kNone};
    bool heard{false};
    bool stalled{false};
    std::chrono::steady_clock::time_point last_heard{};
  };

  void reader_loop(std::uint32_t node, std::shared_ptr<net::ByteStream> stream);
  /// Applies one decoded uplink frame (mutex_ held by caller).
  void handle_locked(std::uint32_t node, net::WireMessage&& message);
  void fail_locked(std::uint32_t node, MergeError error);
  [[nodiscard]] TimePoint gate_locked() const;
  std::size_t release_locked(TimePoint gate, bool release_all);
  [[nodiscard]] net::MergeWatermark watermark_locked() const;
  /// Broadcasts the tail of released_ starting at `from` plus one
  /// watermark frame to every downlink subscriber, retaining the frames
  /// for replay (mutex_ held by caller).
  void publish_released_locked(std::size_t from);
  void subscribe_downlink(std::shared_ptr<net::ByteStream> stream);
  void watchdog_loop();

  MergeConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Peer> peers_;
  /// Held-back records, keyed by merge_key().
  core::MergeHoldback<net::OrderedBatch> holdback_;
  std::vector<net::OrderedBatch> released_;

  net::StreamAcceptor downlink_;
  std::vector<std::shared_ptr<net::ByteStream>> downlink_subscribers_;
  /// Encoded released frames (+ their watermark barriers) in broadcast
  /// order — the replay backlog for late downlink subscribers.
  std::vector<std::vector<std::uint8_t>> downlink_retained_;

  std::thread watchdog_;
  bool stopping_{false};
};

}  // namespace tommy::dist
