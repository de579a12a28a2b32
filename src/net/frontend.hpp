// The wire front-end: turns the byte streams of Figure 1's deployment —
// clients sending distribution announcements, timestamped messages and
// heartbeats over the network — into FairOrderingService session calls,
// and streams emitted batches back as frames. This is the layer that
// makes the ordering core externally drivable; everything below it
// (framing, messages) is bytes, everything above it (service, shards,
// engine) is in-process calls.
//
// Layering (docs/architecture.md "Wire front-end"):
//
//   ByteStream ──► EventLoop poller ──► FrameDecoder ──► Connection
//        ▲          (readable edge)                          │ session
//        │        bounded egress, encoded BatchEmission      ▼
//   peer ◀──────────── pump(now) broadcast ◀──── FairOrderingService
//
//  * `ByteStream` abstracts the byte source/sink. The one implementation
//    in the library is fd-backed (socketpairs, TCP, Unix sockets); it
//    serves both the nonblocking readiness contract the front-end drives
//    and the blocking contract client-side helpers use.
//  * `Connection` is the per-peer protocol state machine, thread-free and
//    testable in isolation: it runs the handshake (first frame must be a
//    DistributionAnnouncement; the client must be expected, the registry
//    is updated or verified) and then feeds decoded TimestampedMessage /
//    Heartbeat frames into the service session, batching runs of submits
//    through the relaxed batch path. Every protocol violation is a typed
//    WireError, never a crash.
//  * `FrameFrontend` registers every adopted stream with an epoll
//    EventLoop of M poller threads (poller_frontend.cpp). A connection's
//    callbacks all run on one poller thread. The outbound half is
//    `pump(now)`: it polls the service and queues each emitted batch as
//    one BatchEmission frame on every live connection's bounded egress,
//    flushed on writability edges.
//
// Arrival stamping: wire messages carry the client's local stamp but not
// the sequencer-clock arrival (`now`) the online machinery needs; the
// front-end stamps each inbound message via `FrontendConfig::
// arrival_clock`. Production uses the default, system_clock_now(): the
// epoch-seconds domain a wire client stamps in, and the same clock a
// ShardNode pumps on by default. Tests and simulations install a
// deterministic function of the message so a frame-driven run is
// bit-identical to a direct-drive run.
//
// Concurrency: the service is sequential (its callers serialize ingest,
// polls and installs), so the front-end serializes every session call,
// registry update, pump and install behind one ingest mutex; a poller
// that cannot take it within a bounded spin stops reading that socket
// and retries on a tick (backpressure).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/service.hpp"
#include "net/framing.hpp"
#include "net/messages.hpp"

namespace tommy::net {

class EventLoop;

/// The one default clock of the wire tier: std::chrono::system_clock
/// seconds since the Unix epoch, the domain wire clients stamp in.
/// FrontendConfig::arrival_clock and dist::ShardNodeConfig::pump_clock
/// both default to it, so a silence timeout that subtracts an arrival
/// from a poll time compares one clock with itself.
[[nodiscard]] TimePoint system_clock_now();

/// Outcome of one nonblocking I/O attempt (try_read / try_write).
enum class IoStatus : std::uint8_t {
  /// Progress was made; IoResult::bytes says how much.
  kOk,
  /// No progress possible right now — retry when the fd signals
  /// readiness again (edge-triggered pollers re-arm on this).
  kWouldBlock,
  /// Clean EOF: the peer closed its write side (reads only).
  kEof,
  /// Transport error; the stream is dead in this direction.
  kError,
};

struct IoResult {
  IoStatus status{IoStatus::kError};
  std::size_t bytes{0};
};

/// Byte source/sink a connection reads from and writes to.
/// Implementations must allow one concurrent reader plus one concurrent
/// writer (full-duplex); they need not support multiple readers.
///
/// Two contracts share this interface:
///  * the blocking contract (read_some / write_all) — what client-side
///    helpers drive: dial/perform_handshake clients, the MergeNode and
///    MergeSubscriber readers, ShardNode uplinks and RelaySet splices;
///  * the nonblocking readiness contract (try_read / try_write +
///    poll_fd) — what FrameFrontend's event loop drives. try_* never
///    block: they do at most one kernel I/O and report kWouldBlock when
///    the fd has nothing to give/take. poll_fd() exposes the fd a
///    Poller waits on.
class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Blocks until at least one byte is available, then reads up to
  /// out.size() of them. Returns the count (> 0), 0 on clean EOF (peer
  /// closed its write side), or nullopt on a transport error.
  [[nodiscard]] virtual std::optional<std::size_t> read_some(
      std::span<std::uint8_t> out) = 0;

  /// Writes all of `bytes` (blocking). False on a transport error or a
  /// peer that went away.
  [[nodiscard]] virtual bool write_all(std::span<const std::uint8_t> bytes)
      = 0;

  /// Nonblocking read: at most one kernel read. kOk means bytes > 0 were
  /// placed in `out`; kWouldBlock means nothing available now.
  [[nodiscard]] virtual IoResult try_read(std::span<std::uint8_t> out) = 0;

  /// Nonblocking write: at most one kernel write; partial writes are
  /// normal (bytes says how much left the buffer). kWouldBlock means the
  /// socket send buffer is full — retry on the next writability edge.
  [[nodiscard]] virtual IoResult try_write(
      std::span<const std::uint8_t> bytes) = 0;

  /// The pollable fd behind this stream, or -1 when there is none.
  /// FrameFrontend fails a stream without one (WireError::kStreamError).
  [[nodiscard]] virtual int poll_fd() const = 0;

  /// Half-close: ends this endpoint's outbound direction. The peer's
  /// reads drain what was written, then see EOF; this endpoint can still
  /// read.
  virtual void close_write() = 0;

  /// Full shutdown: unblocks any pending read/write on BOTH endpoints
  /// (pending and future reads drain buffered bytes, then EOF; writes
  /// fail). Used to tear a connection down from another thread.
  virtual void shutdown() = 0;
};

/// POSIX fd-backed pair over socketpair(AF_UNIX, SOCK_STREAM): two
/// connected in-process endpoints on a real kernel transport (tests,
/// examples, simulations).
[[nodiscard]] std::pair<std::shared_ptr<ByteStream>,
                        std::shared_ptr<ByteStream>>
make_socketpair_streams();

/// Takes ownership of an open stream-socket fd and exposes it as a
/// ByteStream.
[[nodiscard]] std::shared_ptr<ByteStream> make_fd_stream(int fd);

/// Typed per-connection protocol errors. Once a connection fails, further
/// bytes are ignored (a byte stream has no resync point).
enum class WireError : std::uint8_t {
  kNone,
  /// Framing: length prefix exceeded FrontendConfig::max_frame_bytes.
  kOversizedFrame,
  /// A complete frame's payload failed WireMessage decode.
  kMalformedMessage,
  /// First frame was not a DistributionAnnouncement.
  kHandshakeExpected,
  /// Announced client is not in the service's expected set.
  kUnknownClient,
  /// A frame named a different client than the handshake bound.
  kClientMismatch,
  /// Client sent a sequencer→client frame (BatchEmission, ReconfigPending
  /// or HandshakeAck).
  kBatchFromClient,
  /// The underlying ByteStream reported a transport error.
  kStreamError,
};

[[nodiscard]] const char* to_string(WireError error);

/// What a clean read-side EOF means for a connection's lifetime.
enum class EofPolicy : std::uint8_t {
  /// Subscriber semantics (the historical default): a peer that
  /// half-closes its write side stays registered and keeps receiving
  /// broadcast frames until a write to it fails or it is removed
  /// explicitly. In-process demos and the broadcast tests rely on this.
  kLinger,
  /// Server semantics: a peer that stops sending is gone — the
  /// connection becomes reapable as soon as its EOF has been applied,
  /// and the next reap point (pump, add_connection, or an explicit
  /// reap()) tears the stream down and recycles the id. FrameServer
  /// defaults to this.
  kRemove,
};

/// How a FrameFrontend drives its adopted streams. There is one model.
enum class TransportMode : std::uint8_t {
  /// M poller threads multiplex every connection through an
  /// epoll-backed EventLoop, driving the nonblocking readiness contract
  /// (try_read / try_write + poll_fd).
  kEventLoop,
};

/// What the front-end does to a slow subscriber whose bounded egress
/// queue overflows.
enum class EgressPolicy : std::uint8_t {
  /// Tear the connection down (write_ok drops; the next reap removes
  /// it). A subscriber that cannot keep up is disconnected rather than
  /// silently missing frames.
  kDisconnect,
  /// Drop the overflowing frame, count it (ConnectionStats::
  /// frames_dropped), and keep the connection. For telemetry-grade
  /// subscribers where staleness beats disconnection.
  kDrop,
};

struct FrontendConfig {
  /// Stamps each inbound message with its sequencer-clock arrival (the
  /// `now` of the session call). Default (null): system_clock_now(),
  /// epoch seconds — the clock wire clients stamp in and the default
  /// pump clock of a ShardNode, so the silence timeout compares one
  /// domain. Tests/simulations install a deterministic function of the
  /// message (e.g. stamp + modeled delay) so frame-driven runs replay
  /// bit-identically; whoever injects this clock must pump in its domain.
  std::function<TimePoint(const WireMessage&)> arrival_clock{};
  /// Frame payload cap (oversized frames poison the connection).
  std::size_t max_frame_bytes{kDefaultMaxFrameBytes};
  /// Submissions buffered per connection before a forced apply (runs of
  /// decoded submits apply through the relaxed batch path in chunks of at
  /// most this).
  std::size_t submit_batch_limit{512};
  /// Connection lifetime after a clean read-side EOF (see EofPolicy).
  /// Failed connections (protocol or transport errors) are always
  /// reapable regardless of this policy, as are connections whose
  /// broadcast writes failed.
  EofPolicy eof_policy{EofPolicy::kLinger};
  /// Handshake announcements from clients the service does not yet expect
  /// are queued as joins (expect_client + request_reconfig) and answered
  /// with a ReconfigPending frame instead of poisoning the connection
  /// with kUnknownClient; the peer retries its announce until the epoch
  /// installs and a HandshakeAck arrives. Off by default — legacy streams
  /// keep the strict expected-set handshake.
  bool accept_new_clients{false};
  /// A clean read-side EOF on a handshaken connection retires the client
  /// from its shard's completeness gate (FairOrderingService::
  /// close_session): the gate stops waiting for a departed peer instead
  /// of stalling until the silence timeout. Off by default — lingering
  /// subscribers and reconnecting soak clients must keep gating.
  bool retire_on_eof{false};
  /// Reader model. It has a single value, kEventLoop (see TransportMode).
  TransportMode transport{TransportMode::kEventLoop};
  /// Poller threads the event loop runs (connections are sharded across
  /// them round-robin; each connection's callbacks stay on one thread).
  std::size_t poller_threads{2};
  /// Bound on a connection's queued outbound bytes: broadcasts that
  /// cannot be written immediately queue up to this many bytes before
  /// egress_policy applies.
  std::size_t egress_buffer_bytes{256 * 1024};
  /// What happens when egress_buffer_bytes is exceeded.
  EgressPolicy egress_policy{EgressPolicy::kDisconnect};
};

/// Options for the FrameFrontend::pump(now, options) entry point
/// (pump(now) and pump_flush(now) forward here).
struct PumpOptions {
  /// Where emissions go. Null: broadcast — every emitted batch is
  /// encoded once and queued on every live connection's egress (dead
  /// peers are reaped first). Non-null: the caller consumes emissions
  /// in-process; no broadcast, no reap.
  core::EmissionSink* sink{nullptr};
  /// True runs the service's flush (shutdown drain, gates ignored)
  /// instead of poll.
  bool flush{false};
  /// When non-null, receives the service's next_safe_time AFTER the
  /// drain, read under the SAME ingest lock acquisition as the poll
  /// itself (what a shard node's SafeTimeAnnounce must carry).
  TimePoint* next_safe_after{nullptr};
};

/// Point-in-time counters for one connection (connection_stats()).
/// Counter updates are relaxed atomics: each value is exact once the
/// connection is done, monotonic while it runs.
struct ConnectionStats {
  std::uint64_t frames_in{0};
  std::uint64_t submits_in{0};
  std::uint64_t heartbeats_in{0};
  /// Outbound BatchEmission frames this connection was actually sent.
  std::uint64_t frames_out{0};
  /// Outbound frames dropped by EgressPolicy::kDrop.
  std::uint64_t frames_dropped{0};
  std::uint64_t bytes_in{0};
  std::uint64_t bytes_out{0};
  /// Seconds (monotonic, process origin) of the last successful read or
  /// broadcast write; 0 until the first I/O.
  double last_activity{0.0};
  /// Ingest finished: a clean EOF with every retained frame applied, a
  /// transport error, or a protocol failure.
  bool done{false};
  /// Ingest ended in a clean EOF (peer half-closed) rather than an error.
  bool clean_eof{false};
  WireError error{WireError::kNone};
};

/// Lifetime-aggregate counters across all connections a front-end ever
/// adopted — removed connections fold their final counters in here, so
/// totals survive reaping (what a server's metrics endpoint wants).
struct FrontendTotals {
  std::uint64_t accepted{0};
  std::uint64_t removed{0};
  std::uint64_t frames_in{0};
  std::uint64_t submits_in{0};
  std::uint64_t heartbeats_in{0};
  std::uint64_t frames_out{0};
  std::uint64_t frames_dropped{0};
  std::uint64_t bytes_in{0};
  std::uint64_t bytes_out{0};
};

/// Per-peer protocol state machine: incremental frame decode, handshake,
/// dispatch into a service session. Thread-free — feed it bytes in any
/// chunking via drive() and it applies complete frames as they
/// materialize; FrameFrontend drives it from a poller thread. The error
/// state and counters are atomics so another thread may observe them
/// while bytes flow.
class Connection {
 public:
  /// `ingest_mutex` serializes session calls and registry updates against
  /// other connections, polls and installs; every Connection over one
  /// service shares it.
  Connection(core::ClientRegistry& registry,
             core::FairOrderingService& service, FrontendConfig config,
             std::mutex& ingest_mutex);

  /// Outcome of one drive step.
  enum class DriveStatus : std::uint8_t {
    /// Everything decoded so far has been applied — keep reading.
    kReady,
    /// The service could not absorb more right now (the ingest lock
    /// stayed contended): STOP READING this stream and retry drive()
    /// shortly. This is the backpressure signal — an unread socket fills
    /// its kernel buffers and TCP flow control reaches the client.
    kStalled,
    /// The connection failed (protocol or decode error) — tear it down.
    kFailed,
  };

  /// Feeds raw stream bytes: appends `bytes`, then dispatches complete
  /// frames without ever blocking on the service (bounded-time lock
  /// attempts aside — the handshake path still serializes, it is rare
  /// and short). Frames the service cannot absorb are retained
  /// internally and retried by the no-argument overload.
  [[nodiscard]] DriveStatus drive(std::span<const std::uint8_t> bytes);
  /// Retry after kStalled: makes whatever progress the service now
  /// allows on the retained frame/batch backlog, then resumes decoding.
  [[nodiscard]] DriveStatus drive();
  /// True when nothing is retained (no stashed frame, no pending batch)
  /// — the point at which a clean EOF may complete.
  [[nodiscard]] bool drained() const {
    return !stash_.has_value() && pending_.empty();
  }

  /// External failure injection (the poller reports transport errors
  /// here). No-op if already failed.
  void mark_failed(WireError error);

  [[nodiscard]] bool failed() const {
    return error_.load(std::memory_order_relaxed) != WireError::kNone;
  }
  [[nodiscard]] WireError error() const {
    return error_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool handshaken() const {
    return handshaken_.load(std::memory_order_acquire);
  }
  /// Valid once handshaken() is true (the acquire load above orders the
  /// read, from any thread).
  [[nodiscard]] ClientId client() const { return client_; }

  [[nodiscard]] std::uint64_t frames_in() const {
    return frames_in_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t submits_in() const {
    return submits_in_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t heartbeats_in() const {
    return heartbeats_in_.load(std::memory_order_relaxed);
  }

  /// Frames the machine wants written to the peer (ReconfigPending /
  /// HandshakeAck, already frame-encoded), in order. Owned by the driving
  /// thread: only it dispatches frames and only it may drain this.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> take_outbound() {
    return std::exchange(outbound_, {});
  }
  /// True while the peer has been told ReconfigPending and the machine is
  /// waiting for its retry announce. Driving-thread state.
  [[nodiscard]] bool reconfig_waiting() const { return reconfig_waiting_; }

  /// Clean-EOF hook (FrontendConfig::retire_on_eof): retires the
  /// handshaken client from its shard's completeness gate, after applying
  /// everything the peer streamed. Called by the driving thread only.
  void on_peer_eof();

 private:
  /// Outcome of one nonblocking dispatch attempt.
  enum class TryOutcome : std::uint8_t {
    kOk,
    /// The frame's effect is retained in pending_ (a submit that could
    /// not flush) — do not re-dispatch the frame, retry the flush.
    kConsumedStall,
    /// The frame could not take effect at all — stash and re-dispatch
    /// it on the next drive().
    kRetryStall,
    kFail,
  };

  /// Nonblocking dispatch: never blocks on the ingest lock (the
  /// handshake path excepted — rare, bounded).
  TryOutcome try_dispatch(const WireMessage& message);
  /// Nonblocking apply_pending: applies pending_ if the ingest lock is
  /// won within the bounded spin; true when pending_ is empty after.
  bool try_apply_pending();
  bool handle_announcement(const DistributionAnnouncement& announcement);
  void queue_outbound(const WireMessage& message);
  /// Applies buffered submissions through the relaxed batch path.
  void apply_pending();
  /// Applies the valid prefix, then poisons the connection.
  bool fail(WireError error);

  core::ClientRegistry& registry_;
  core::FairOrderingService& service_;
  FrontendConfig config_;
  std::mutex& ingest_mutex_;

  FrameDecoder decoder_;
  core::FairOrderingService::Session session_;
  ClientId client_{};
  std::vector<core::Submission> pending_;
  /// A decoded frame that could not take effect (kRetryStall): retried
  /// before any further decoding so per-connection FIFO order holds.
  /// Driver-thread state, like pending_.
  std::optional<WireMessage> stash_;
  /// Encoded frames awaiting write-back (take_outbound); driving-thread
  /// only, no lock.
  std::vector<std::vector<std::uint8_t>> outbound_;
  bool reconfig_waiting_{false};

  std::atomic<WireError> error_{WireError::kNone};
  std::atomic<bool> handshaken_{false};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> submits_in_{0};
  std::atomic<std::uint64_t> heartbeats_in_{0};
};

/// Socket-facing adapter over a FairOrderingService: an epoll event loop
/// feeding each adopted ByteStream into that connection's session, plus
/// the outbound broadcast of emitted batches. See the file header.
class FrameFrontend {
 public:
  /// `registry` must be the registry `service` was built on (handshake
  /// announcements go to it); both must outlive the front-end.
  FrameFrontend(core::ClientRegistry& registry,
                core::FairOrderingService& service,
                FrontendConfig config = {});

  /// Unhooks every connection from the loop and shuts its stream down.
  ~FrameFrontend();

  FrameFrontend(const FrameFrontend&) = delete;
  FrameFrontend& operator=(const FrameFrontend&) = delete;

  /// Adopts `stream` and starts driving it: its fd is registered with a
  /// poller thread. A stream whose poll_fd() is negative cannot be
  /// polled; it is adopted as a done connection failed with
  /// WireError::kStreamError (the next reap removes it). Returns the
  /// connection id used by the introspection accessors. Ids of removed
  /// connections are recycled (smallest free id first), so a long-lived
  /// server's id space stays as dense as its live connection set.
  /// Opportunistically reaps dead connections first.
  ///
  /// Id lifetime is POSIX-fd-like: an id is valid until its connection
  /// is removed, after which it may name a DIFFERENT later connection.
  /// Callers that cache ids across reap points (pump/add_connection, or
  /// any thread calling reap()) must tolerate close_connection(id)
  /// returning false and must not assume a cached id still names the
  /// same peer; the per-id accessors are for ids the caller knows are
  /// live (they fail their precondition on removed ids). Aggregate
  /// surfaces (totals(), connection_count()) are always race-free.
  std::uint64_t add_connection(std::shared_ptr<ByteStream> stream);

  /// THE drain entry point: polls (or, with options.flush, flushes) the
  /// service at `now` under the ingest lock, with the staged-epoch
  /// install nudge. Null options.sink broadcasts every
  /// emitted batch as an encoded BatchEmission frame onto the bounded
  /// egress of every connection whose writes still succeed (reaping dead
  /// peers first, so a removed peer never receives a broadcast); a
  /// non-null sink consumes emissions in-process instead (no broadcast,
  /// no reap) — race-free against live pollers, which a direct
  /// service_.poll() is NOT.
  /// options.next_safe_after, when set, receives the post-drain frontier
  /// read under the SAME lock acquisition as the poll (no ingest can
  /// interleave — what a shard node's SafeTimeAnnounce must carry).
  /// Returns the number of batches emitted. One pump/flush at a time
  /// (callers serialize; the service's own poll contract).
  std::size_t pump(TimePoint now, const PumpOptions& options);

  /// Broadcast poll: pump(now, {}). (Historical name, kept stable.)
  std::size_t pump(TimePoint now) { return pump(now, PumpOptions{}); }

  /// Broadcast flush: pump(now, {.flush = true}).
  std::size_t pump_flush(TimePoint now) {
    PumpOptions options;
    options.flush = true;
    return pump(now, options);
  }

  /// Drives any pending reconfiguration to completion (blocking —
  /// joins the primer) under the same serialization as the wire
  /// handlers. The safe way to force an epoch swap from outside while
  /// connections are live; a direct service_.reconfigure() races the
  /// pollers.
  void reconfigure();

  /// Removes every dead connection: done AND (it failed, its broadcast
  /// writes failed, or the EOF policy is kRemove). The connection leaves
  /// its poller, the stream is shut down, the final counters folded into
  /// totals(), and the id recycled. Returns the number removed. Runs
  /// automatically at add_connection and pump; callers that neither add
  /// nor pump can call it directly.
  std::size_t reap();

  /// Forcibly removes one connection: unhooks it from its poller, shuts
  /// the stream down, folds its counters into totals(), and recycles the
  /// id. False if the id is not registered — under
  /// EofPolicy::kRemove a concurrent reap may win the race for any id
  /// the caller just looked up, so a missing id is an outcome, not an
  /// error.
  bool close_connection(std::uint64_t id);

  /// Unhooks and shuts down every stream, and removes every connection
  /// regardless of policy. The front-end is reusable
  /// afterwards (a fresh add_connection starts from a clean table). The
  /// destructor runs this.
  void stop();

  /// Waits until every connection is done, without removing anything.
  /// Callers arrange EOF first (peers close_write / streams shut down),
  /// otherwise this blocks; after it returns, everything the peers sent
  /// has been applied to the service.
  void join_readers();

  /// Live connections: registered, and not merely awaiting reap. (A
  /// lingering half-closed subscriber under EofPolicy::kLinger counts —
  /// it is still being served broadcasts.)
  [[nodiscard]] std::size_t connection_count() const;
  /// Registered connections including dead ones not yet reaped — the
  /// number actually held in the table (the churn regression bound).
  [[nodiscard]] std::size_t tracked_connection_count() const;
  [[nodiscard]] bool has_connection(std::uint64_t id) const;
  /// ConnectionStats::done for one connection.
  [[nodiscard]] bool connection_done(std::uint64_t id) const;
  [[nodiscard]] WireError connection_error(std::uint64_t id) const;
  /// Point-in-time counters for a registered connection.
  [[nodiscard]] ConnectionStats connection_stats(std::uint64_t id) const;
  /// Lifetime aggregates (live + removed connections).
  [[nodiscard]] FrontendTotals totals() const;
  /// The state machine itself (counters any time; client() once
  /// handshaken).
  [[nodiscard]] const Connection& connection(std::uint64_t id) const;

 private:
  struct Conn {
    std::shared_ptr<ByteStream> stream;
    Connection machine;
    std::atomic<bool> done{false};
    std::atomic<bool> clean_eof{false};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> frames_out{0};
    std::atomic<std::uint64_t> frames_dropped{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<double> last_activity{0.0};
    std::mutex write_mutex;
    /// Atomic, not mutex-guarded: reapable() and connection_count() read
    /// it while holding conns_mutex_ and never take write_mutex there.
    /// Writes happen under write_mutex; the atomic store publishes them.
    std::atomic<bool> write_ok{true};

    // ── Event-loop state ──────────────────────────────────────────────
    /// EventLoop registration key; meaningful only when in_loop.
    std::uint64_t loop_key{0};
    bool in_loop{false};
    /// Read scratch, owned by the connection's poller thread.
    std::vector<std::uint8_t> read_buffer;
    /// Poller-thread-only flags: reads are paused awaiting a drive()
    /// retry tick; the peer's EOF arrived but retained frames are still
    /// draining.
    bool paused{false};
    bool eof_seen{false};
    /// Bounded egress queue (under write_mutex): frames the broadcast
    /// could not write immediately, flushed on writability edges.
    /// egress_offset is how much of the head frame already left.
    std::deque<std::vector<std::uint8_t>> egress;
    std::size_t egress_bytes{0};
    std::size_t egress_offset{0};

    Conn(std::shared_ptr<ByteStream> s, core::ClientRegistry& registry,
         core::FairOrderingService& service, FrontendConfig config,
         std::mutex& ingest_mutex)
        : stream(std::move(s)),
          machine(registry, service, std::move(config), ingest_mutex) {}
  };

  /// A connection pulled out of the table but not yet fully torn down.
  /// `snapshot` is what was already folded into retired_ at unlink time
  /// — retire() adds only the residual the poller produced before the
  /// connection left it, so totals() never dips below its last observed
  /// value.
  struct Retiring {
    std::shared_ptr<Conn> conn;
    FrontendTotals snapshot;
  };

  /// The locked core of pump, for the broadcast sink and a caller's
  /// sink alike: ingest lock, staged-epoch install nudge, then one
  /// service drain. options.next_safe_after, when set, is read before
  /// the lock drops.
  std::size_t drain_locked(TimePoint now, const PumpOptions& options,
                           core::EmissionSink& sink);

  // ── Event-loop machinery (poller_frontend.cpp) ─────────────────────
  /// Lazily creates the shared EventLoop and registers `conn`'s fd with
  /// a poller thread (round-robin). Fails the connection if the stream
  /// has no pollable fd.
  void attach_to_loop(const std::shared_ptr<Conn>& conn);
  /// Readiness callback (poller thread): drains readable bytes through
  /// the nonblocking drive, flushes egress on writability, handles
  /// hangup.
  void on_loop_event(const std::shared_ptr<Conn>& conn, bool readable,
                     bool writable, bool hangup);
  /// Stall-retry tick (poller thread): re-drives a paused connection.
  void on_loop_tick(const std::shared_ptr<Conn>& conn);
  /// Reads until kWouldBlock/stall/EOF (poller thread).
  void drain_readable(Conn& conn);
  /// Finishes a clean EOF once retained frames drained (poller thread).
  void finish_eof(Conn& conn);
  /// Queues one encoded frame onto `conn`'s bounded egress (applying
  /// the egress policy at the cap) and opportunistically flushes.
  /// Caller holds nothing; takes write_mutex.
  void queue_egress(Conn& conn, std::span<const std::uint8_t> frame);
  /// Writes queued egress until kWouldBlock or empty. write_mutex held
  /// by the caller.
  void flush_egress_locked(Conn& conn);
  /// Marks a failed connection done and tears its transport down.
  void fail_loop_conn(Conn& conn);
  /// True once `conn` can be removed (done, and nothing is left to serve
  /// it). Lock-free on the connection itself — callers hold
  /// conns_mutex_, and this must never wait on a stalled broadcast.
  [[nodiscard]] bool reapable(const Conn& conn) const;
  /// Point-in-time counter sums of one connection.
  [[nodiscard]] static FrontendTotals counters_of(const Conn& conn);
  /// Accounts a connection leaving the table (conns_mutex_ held): folds
  /// a counter snapshot into retired_ and bumps the removed count.
  [[nodiscard]] Retiring unlink_locked(std::shared_ptr<Conn> conn);
  /// Unhooks and tears down a batch of unlinked connections (outside
  /// conns_mutex_ — the poller barrier must not hold the table lock) and
  /// folds the counter residuals.
  void retire(std::vector<Retiring>&& removed);
  std::size_t remove_if_locked(bool force);

  core::ClientRegistry& registry_;
  core::FairOrderingService& service_;
  FrontendConfig config_;

  /// Serializes every connection's ingest with pumps and installs.
  std::mutex ingest_mutex_;
  mutable std::mutex conns_mutex_;
  /// Registered connections by id. shared_ptr: broadcast and reap hold
  /// references while not holding conns_mutex_.
  std::unordered_map<std::uint64_t, std::shared_ptr<Conn>> conns_;
  /// Recycled ids, served smallest-first on add_connection.
  std::vector<std::uint64_t> free_ids_;
  std::uint64_t next_id_{0};
  /// Counters of removed connections (guarded by conns_mutex_); totals()
  /// adds the live table on top.
  FrontendTotals retired_;
  /// The M poller threads (created lazily on the first add_connection,
  /// shared by every connection, kept across stop() so the front-end
  /// stays reusable). Guarded by
  /// conns_mutex_ for creation; the pointer is stable afterwards.
  std::unique_ptr<EventLoop> event_loop_;
};

/// Client-side multi-upstream connection set — the router tier's working
/// half. A RelaySet adopts downstream byte streams (accepted by a
/// StreamAcceptor), sniffs each one's handshake (the first complete
/// frame must be a DistributionAnnouncement, exactly the Connection
/// contract), asks a caller-supplied dial function for the matching
/// upstream — that closure owns the routing decision AND the connect
/// RetryPolicy, so a node mid-restart is re-dialed with backoff — and
/// then splices the two streams raw in both directions (no re-framing:
/// the relay adds no protocol state beyond the sniffed handshake, so
/// clients keep the PR 6 handshake flow unchanged end to end).
///
/// Fault model: if the upstream dies (node kill), the downstream is torn
/// down too — the client observes a dead connection, reconnects through
/// the router, and replays, which re-routes it to the restarted node.
/// Holding client traffic at the relay would turn the router into a
/// stateful buffer; dropping keeps it thin and pushes recovery onto the
/// retry machinery the clients already have.
class RelaySet {
 public:
  /// Picks and dials the upstream for a downstream that announced
  /// `announcement`. nullptr rejects the downstream (it is dropped).
  /// Called on the relay's own thread; bounded connect retries belong
  /// inside the closure.
  using DialFn = std::function<std::shared_ptr<ByteStream>(
      const DistributionAnnouncement& announcement)>;

  explicit RelaySet(DialFn dial,
                    std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

  /// stop()s.
  ~RelaySet();

  RelaySet(const RelaySet&) = delete;
  RelaySet& operator=(const RelaySet&) = delete;

  /// Adopts a downstream stream and spawns its relay (handshake sniff,
  /// dial, bidirectional splice). Opportunistically reaps finished
  /// relays first.
  void adopt(std::shared_ptr<ByteStream> downstream);

  /// Shuts every relay's streams down and joins every relay thread.
  /// Reusable afterwards. The destructor runs this.
  void stop();

  /// Relays whose threads are still running.
  [[nodiscard]] std::size_t active_count() const;
  /// Downstreams ever adopted.
  [[nodiscard]] std::uint64_t adopted_total() const;
  /// Downstreams dropped because the dial function returned nullptr.
  [[nodiscard]] std::uint64_t dial_failures() const {
    return dial_failures_.load(std::memory_order_relaxed);
  }
  /// Downstreams dropped before a complete, well-formed announcement
  /// (EOF mid-handshake, a malformed frame, or a non-announcement first
  /// frame).
  [[nodiscard]] std::uint64_t handshake_failures() const {
    return handshake_failures_.load(std::memory_order_relaxed);
  }

 private:
  struct Relay {
    std::shared_ptr<ByteStream> down;
    /// Set (under the set's mutex) once the dial succeeds; stop() shuts
    /// it down alongside `down`.
    std::shared_ptr<ByteStream> up;
    std::thread forward;
    std::atomic<bool> done{false};
  };

  void forward_loop(Relay& relay);

  DialFn dial_;
  std::size_t max_frame_bytes_;
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Relay>> relays_;
  std::uint64_t adopted_{0};
  bool stopping_{false};
  std::atomic<std::uint64_t> dial_failures_{0};
  std::atomic<std::uint64_t> handshake_failures_{0};
};

}  // namespace tommy::net
