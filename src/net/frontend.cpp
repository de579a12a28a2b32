#include "net/frontend.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

#include "common/check.hpp"
#include "net/event_loop.hpp"

namespace tommy::net {

TimePoint system_clock_now() {
  return TimePoint(std::chrono::duration<double>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count());
}

namespace {

FrontendConfig normalized(FrontendConfig config) {
  if (!config.arrival_clock) {
    config.arrival_clock = [](const WireMessage&) {
      return system_clock_now();
    };
  }
  if (config.submit_batch_limit == 0) config.submit_batch_limit = 1;
  return config;
}

/// Bounded ingest-lock acquisition for the nonblocking drive path. A
/// plain try_lock punishes transient contention the same as a genuine
/// stall: with M pollers flushing small batches into one sequential
/// service, a microsecond collision would park the connection until the
/// ~1ms retry tick and collapse throughput (measured 20x at C=100,
/// pollers=4). A few yields absorb another poller's batch flush; a lock
/// held for real (a pump mid-drain, a stalled sink) still falls through
/// to the stall path, so drive() stays bounded — microseconds, never the
/// holder's tenure.
std::unique_lock<std::mutex> lock_ingest_bounded(std::mutex& mutex) {
  std::unique_lock<std::mutex> lock(mutex, std::try_to_lock);
  for (int spin = 0; !lock.owns_lock() && spin < 64; ++spin) {
    std::this_thread::yield();
    (void)lock.try_lock();
  }
  return lock;
}

// ── POSIX fd stream ─────────────────────────────────────────────────────

class FdByteStream final : public ByteStream {
 public:
  explicit FdByteStream(int fd) : fd_(fd) {
    TOMMY_EXPECTS(fd >= 0);
    // The fd is ALWAYS nonblocking: the try_* contract needs it, and the
    // blocking contract is emulated with poll(2) below — one fd mode
    // serves both the event loop and blocking client-side callers.
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  }

  ~FdByteStream() override { ::close(fd_); }

  std::optional<std::size_t> read_some(std::span<std::uint8_t> out) override {
    while (true) {
      const ssize_t n = ::read(fd_, out.data(), out.size());
      if (n >= 0) return static_cast<std::size_t>(n);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!wait_ready(POLLIN)) return std::nullopt;
        continue;
      }
      return std::nullopt;
    }
  }

  bool write_all(std::span<const std::uint8_t> bytes) override {
    std::size_t written = 0;
    while (written < bytes.size()) {
      // send + MSG_NOSIGNAL, not write: a peer that vanished mid-stream
      // (a stopped server, a killed client) must surface as a failed
      // write, not a process-killing SIGPIPE.
      const ssize_t n = ::send(fd_, bytes.data() + written,
                               bytes.size() - written, MSG_NOSIGNAL);
      if (n > 0) {
        written += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!wait_ready(POLLOUT)) return false;
        continue;
      }
      return false;
    }
    return true;
  }

  IoResult try_read(std::span<std::uint8_t> out) override {
    while (true) {
      const ssize_t n = ::read(fd_, out.data(), out.size());
      if (n > 0) return IoResult{IoStatus::kOk, static_cast<std::size_t>(n)};
      if (n == 0) return IoResult{IoStatus::kEof, 0};
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return IoResult{IoStatus::kWouldBlock, 0};
      }
      return IoResult{IoStatus::kError, 0};
    }
  }

  IoResult try_write(std::span<const std::uint8_t> bytes) override {
    if (bytes.empty()) return IoResult{IoStatus::kOk, 0};
    while (true) {
      const ssize_t n =
          ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n > 0) return IoResult{IoStatus::kOk, static_cast<std::size_t>(n)};
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return IoResult{IoStatus::kWouldBlock, 0};
      }
      return IoResult{IoStatus::kError, 0};
    }
  }

  int poll_fd() const override { return fd_; }

  void close_write() override { ::shutdown(fd_, SHUT_WR); }

  void shutdown() override { ::shutdown(fd_, SHUT_RDWR); }

 private:
  /// Blocks until the fd is ready for `events` (POLLIN/POLLOUT). False
  /// on a poll error; hangup/err revents fall through to the read/write
  /// retry, which surfaces the definitive EOF/error.
  bool wait_ready(short events) {
    ::pollfd pfd{fd_, events, 0};
    while (true) {
      const int r = ::poll(&pfd, 1, -1);
      if (r > 0) return true;
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
  }

  int fd_;
};

}  // namespace

std::pair<std::shared_ptr<ByteStream>, std::shared_ptr<ByteStream>>
make_socketpair_streams() {
  int fds[2];
  TOMMY_EXPECTS(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
  return {std::make_shared<FdByteStream>(fds[0]),
          std::make_shared<FdByteStream>(fds[1])};
}

std::shared_ptr<ByteStream> make_fd_stream(int fd) {
  return std::make_shared<FdByteStream>(fd);
}

const char* to_string(WireError error) {
  switch (error) {
    case WireError::kNone:
      return "none";
    case WireError::kOversizedFrame:
      return "oversized frame";
    case WireError::kMalformedMessage:
      return "malformed message payload";
    case WireError::kHandshakeExpected:
      return "first frame must be a distribution announcement";
    case WireError::kUnknownClient:
      return "client not in the expected set";
    case WireError::kClientMismatch:
      return "frame names a different client than the handshake";
    case WireError::kBatchFromClient:
      return "client sent a batch-emission frame";
    case WireError::kStreamError:
      return "byte stream transport error";
  }
  return "unknown";
}

// ── Connection ──────────────────────────────────────────────────────────

Connection::Connection(core::ClientRegistry& registry,
                       core::FairOrderingService& service,
                       FrontendConfig config, std::mutex& ingest_mutex)
    : registry_(registry),
      service_(service),
      config_(normalized(std::move(config))),
      ingest_mutex_(ingest_mutex),
      decoder_(config_.max_frame_bytes) {}

void Connection::mark_failed(WireError error) {
  WireError expected = WireError::kNone;
  error_.compare_exchange_strong(expected, error, std::memory_order_relaxed);
}

bool Connection::handle_announcement(
    const DistributionAnnouncement& announcement) {
  if (handshaken() && announcement.client != client_) {
    return fail(WireError::kClientMismatch);
  }
  const bool known = service_.expects_client(announcement.client);
  if (!known && !config_.accept_new_clients) {
    return fail(WireError::kUnknownClient);
  }
  // Order re-announce effects after everything already streamed.
  apply_pending();
  {
    std::lock_guard<std::mutex> lock(ingest_mutex_);
    // Idempotent: an identical re-send changes nothing and keeps the
    // generation stable. A changed summary bumps it, and the epoch-swap
    // machinery below primes a fresh engine off-thread while in-flight
    // sessions keep running against the old epoch.
    registry_.announce(announcement.client, announcement.summary);
    if (!known) service_.expect_client(announcement.client);
    if (service_.reconfig_pending()) {
      // Prime off-thread, install opportunistically (the install is
      // serialized by ingest_mutex_). A not-yet-staged prime just returns
      // false here — a later announce retry (or pump) installs it.
      service_.request_reconfig();
      service_.try_install_reconfig();
    }
    if (!handshaken()) {
      core::OpenError open_error{};
      auto session =
          service_.try_open_session(announcement.client, &open_error);
      if (session) {
        session_ = *session;
        client_ = announcement.client;
        // Release pairs with handshaken()'s acquire: observers that see
        // true may read client_.
        handshaken_.store(true, std::memory_order_release);
        if (reconfig_waiting_ || config_.accept_new_clients) {
          // Close the join loop: every join-flow handshake gets an ack
          // (perform_handshake blocks on it), whether or not the peer
          // was first told ReconfigPending. Legacy servers
          // (accept_new_clients off) stay silent.
          reconfig_waiting_ = false;
          queue_outbound(HandshakeAck{service_.primed_generation()});
        }
      } else if (open_error == core::OpenError::kRegistryChanged) {
        // Queued to join, epoch not installed yet: tell the peer to
        // retry its announce instead of poisoning the stream.
        reconfig_waiting_ = true;
        queue_outbound(ReconfigPending{registry_.generation()});
      } else {
        return fail(WireError::kUnknownClient);
      }
    }
  }
  return true;
}

void Connection::queue_outbound(const WireMessage& message) {
  outbound_.push_back(encode_frame(message));
}

void Connection::on_peer_eof() {
  if (!handshaken() || failed()) return;
  // FIFO: everything the peer streamed lands before its departure does.
  apply_pending();
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  service_.close_session(session_);
}

void Connection::apply_pending() {
  if (pending_.empty()) return;
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  session_.submit_batch(std::span<const core::Submission>(pending_));
  pending_.clear();
}

bool Connection::try_apply_pending() {
  if (pending_.empty()) return true;
  // The only obstacle is the ingest lock (the service's buffers are
  // unbounded). Still contended after the bounded spin means a pump
  // holds it for real — back off, retry on the next tick.
  std::unique_lock<std::mutex> lock = lock_ingest_bounded(ingest_mutex_);
  if (!lock.owns_lock()) return false;
  session_.submit_batch(std::span<const core::Submission>(pending_));
  pending_.clear();
  return true;
}

Connection::TryOutcome Connection::try_dispatch(const WireMessage& message) {
  if (const auto* announcement =
          std::get_if<DistributionAnnouncement>(&message)) {
    // The handshake path takes the ingest lock outright (registry and
    // epoch machinery): it is rare and bounded, so it needs no stall path.
    return handle_announcement(*announcement) ? TryOutcome::kOk
                                              : TryOutcome::kFail;
  }
  if (!handshaken()) {
    fail(WireError::kHandshakeExpected);
    return TryOutcome::kFail;
  }
  if (const auto* msg = std::get_if<TimestampedMessage>(&message)) {
    if (msg->client != client_) {
      fail(WireError::kClientMismatch);
      return TryOutcome::kFail;
    }
    pending_.push_back(core::Submission{msg->local_stamp, msg->id,
                                        config_.arrival_clock(message)});
    submits_in_.fetch_add(1, std::memory_order_relaxed);
    if (pending_.size() >= config_.submit_batch_limit
        && !try_apply_pending()) {
      // The frame's effect is retained in pending_ (bounded at the
      // batch limit) — consumed, but the flush must be retried.
      return TryOutcome::kConsumedStall;
    }
    return TryOutcome::kOk;
  }
  if (const auto* heartbeat = std::get_if<Heartbeat>(&message)) {
    if (heartbeat->client != client_) {
      fail(WireError::kClientMismatch);
      return TryOutcome::kFail;
    }
    const TimePoint now = config_.arrival_clock(message);
    std::unique_lock<std::mutex> lock = lock_ingest_bounded(ingest_mutex_);
    if (!lock.owns_lock()) return TryOutcome::kRetryStall;
    if (!pending_.empty()) {
      // FIFO: buffered submits land before the heartbeat, under the same
      // lock acquisition.
      session_.submit_batch(std::span<const core::Submission>(pending_));
      pending_.clear();
    }
    session_.heartbeat(heartbeat->local_stamp, now);
    heartbeats_in_.fetch_add(1, std::memory_order_relaxed);
    return TryOutcome::kOk;
  }
  fail(WireError::kBatchFromClient);
  return TryOutcome::kFail;
}

Connection::DriveStatus Connection::drive(
    std::span<const std::uint8_t> bytes) {
  if (failed()) return DriveStatus::kFailed;
  decoder_.append(bytes);
  return drive();
}

Connection::DriveStatus Connection::drive() {
  if (failed()) return DriveStatus::kFailed;
  // The stashed frame goes first: per-connection FIFO order.
  if (stash_.has_value()) {
    const TryOutcome outcome = try_dispatch(*stash_);
    if (outcome == TryOutcome::kRetryStall) return DriveStatus::kStalled;
    if (outcome == TryOutcome::kFail) return DriveStatus::kFailed;
    stash_.reset();
    if (outcome == TryOutcome::kConsumedStall) return DriveStatus::kStalled;
  }
  // A stalled batch flush gates the decode loop: without this, every
  // retry would admit one more frame from the buffered chunk past the
  // batch limit — pending_ is the ingest backpressure bound and must
  // stay at it while the service is unavailable.
  if (pending_.size() >= config_.submit_batch_limit
      && !try_apply_pending()) {
    return DriveStatus::kStalled;
  }
  while (auto payload = decoder_.next()) {
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    auto message = decode(*payload);
    if (!message) {
      fail(WireError::kMalformedMessage);
      return DriveStatus::kFailed;
    }
    const TryOutcome outcome = try_dispatch(*message);
    if (outcome == TryOutcome::kRetryStall) {
      stash_ = std::move(*message);
      return DriveStatus::kStalled;
    }
    if (outcome == TryOutcome::kFail) return DriveStatus::kFailed;
    if (outcome == TryOutcome::kConsumedStall) return DriveStatus::kStalled;
  }
  if (decoder_.error() != FrameError::kNone) {
    fail(WireError::kOversizedFrame);
    return DriveStatus::kFailed;
  }
  // End of buffered frames: flush the batch remainder.
  return try_apply_pending() ? DriveStatus::kReady : DriveStatus::kStalled;
}

bool Connection::fail(WireError error) {
  // The valid prefix still counts: every fully-decoded, in-protocol frame
  // before the poison byte has the same effect as if the stream had ended
  // cleanly there.
  apply_pending();
  mark_failed(error);
  return false;
}

// ── FrameFrontend ───────────────────────────────────────────────────────

FrameFrontend::FrameFrontend(core::ClientRegistry& registry,
                             core::FairOrderingService& service,
                             FrontendConfig config)
    : registry_(registry),
      service_(service),
      config_(normalized(std::move(config))) {}

FrameFrontend::~FrameFrontend() { stop(); }

std::uint64_t FrameFrontend::add_connection(
    std::shared_ptr<ByteStream> stream) {
  TOMMY_EXPECTS(stream != nullptr);
  reap();
  std::lock_guard<std::mutex> lock(conns_mutex_);
  std::uint64_t id;
  if (free_ids_.empty()) {
    id = next_id_++;
  } else {
    // Smallest recycled id first keeps the live id space dense.
    auto smallest = std::min_element(free_ids_.begin(), free_ids_.end());
    id = *smallest;
    *smallest = free_ids_.back();
    free_ids_.pop_back();
  }
  auto conn = std::make_shared<Conn>(std::move(stream), registry_, service_,
                                     config_, ingest_mutex_);
  conns_.emplace(id, conn);
  retired_.accepted++;  // folded into totals() as "ever adopted"
  // Registers with a poller thread (conns_mutex_ held: poller threads
  // never take it, so there is no lock cycle, and a concurrent stop()
  // cannot unlink the connection before it is armed).
  attach_to_loop(conn);
  return id;
}

bool FrameFrontend::reapable(const Conn& conn) const {
  if (!conn.done.load(std::memory_order_acquire)) return false;
  if (conn.machine.failed()) return true;
  if (config_.eof_policy == EofPolicy::kRemove) return true;
  // kLinger: keep serving broadcasts until a write fails.
  return !conn.write_ok.load(std::memory_order_acquire);
}

FrontendTotals FrameFrontend::counters_of(const Conn& conn) {
  FrontendTotals t;
  t.frames_in = conn.machine.frames_in();
  t.submits_in = conn.machine.submits_in();
  t.heartbeats_in = conn.machine.heartbeats_in();
  t.frames_out = conn.frames_out.load(std::memory_order_relaxed);
  t.frames_dropped = conn.frames_dropped.load(std::memory_order_relaxed);
  t.bytes_in = conn.bytes_in.load(std::memory_order_relaxed);
  t.bytes_out = conn.bytes_out.load(std::memory_order_relaxed);
  return t;
}

FrameFrontend::Retiring FrameFrontend::unlink_locked(
    std::shared_ptr<Conn> conn) {
  // Fold a snapshot the instant the connection leaves the table, so a
  // concurrent totals() never sees the counters dip while the connection
  // is being unhooked; retire() adds the residual later.
  Retiring retiring;
  retiring.snapshot = counters_of(*conn);
  retiring.conn = std::move(conn);
  retired_.removed++;
  retired_.frames_in += retiring.snapshot.frames_in;
  retired_.submits_in += retiring.snapshot.submits_in;
  retired_.heartbeats_in += retiring.snapshot.heartbeats_in;
  retired_.frames_out += retiring.snapshot.frames_out;
  retired_.frames_dropped += retiring.snapshot.frames_dropped;
  retired_.bytes_in += retiring.snapshot.bytes_in;
  retired_.bytes_out += retiring.snapshot.bytes_out;
  return retiring;
}

void FrameFrontend::retire(std::vector<Retiring>&& removed) {
  // Connections leave their poller first: remove_sync barriers on the
  // dispatch lock, so after it returns no callback touches the
  // connection. (retire() only ever runs on external threads —
  // reap/close/stop — never on a poller thread, which would deadlock
  // that barrier.)
  for (const auto& r : removed) {
    if (r.conn->in_loop) {
      event_loop_->remove_sync(r.conn->loop_key);
      r.conn->in_loop = false;
    }
  }
  for (const auto& r : removed) {
    r.conn->stream->shutdown();
    // Serialize against an in-flight broadcast: its counter increments
    // happen under write_mutex, and the stream is already shut down, so
    // after this lock the counters are final. Fold only what the
    // snapshot missed.
    std::lock_guard<std::mutex> write_lock(r.conn->write_mutex);
    const FrontendTotals final_counts = counters_of(*r.conn);
    std::lock_guard<std::mutex> lock(conns_mutex_);
    retired_.frames_in += final_counts.frames_in - r.snapshot.frames_in;
    retired_.submits_in += final_counts.submits_in - r.snapshot.submits_in;
    retired_.heartbeats_in +=
        final_counts.heartbeats_in - r.snapshot.heartbeats_in;
    retired_.frames_out += final_counts.frames_out - r.snapshot.frames_out;
    retired_.frames_dropped +=
        final_counts.frames_dropped - r.snapshot.frames_dropped;
    retired_.bytes_in += final_counts.bytes_in - r.snapshot.bytes_in;
    retired_.bytes_out += final_counts.bytes_out - r.snapshot.bytes_out;
  }
}

std::size_t FrameFrontend::remove_if_locked(bool force) {
  // Phase 1 (under conns_mutex_): pull removable entries out of the
  // table, recycle their ids, and fold counter snapshots into retired_.
  // Phase 2 (lock dropped): unhook from the pollers and shut streams
  // down — the poller barrier must never run under the table lock
  // (accessors need it to stay responsive).
  std::vector<Retiring> removed;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (force || reapable(*it->second)) {
        free_ids_.push_back(it->first);
        removed.push_back(unlink_locked(std::move(it->second)));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  const std::size_t count = removed.size();
  retire(std::move(removed));
  return count;
}

std::size_t FrameFrontend::reap() { return remove_if_locked(/*force=*/false); }

bool FrameFrontend::close_connection(std::uint64_t id) {
  std::vector<Retiring> removed;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return false;  // a concurrent reap won
    free_ids_.push_back(id);
    removed.push_back(unlink_locked(std::move(it->second)));
    conns_.erase(it);
  }
  retire(std::move(removed));
  return true;
}

void FrameFrontend::stop() { remove_if_locked(/*force=*/true); }

std::size_t FrameFrontend::pump(TimePoint now, const PumpOptions& options) {
  if (options.sink != nullptr) {
    return drain_locked(now, options, *options.sink);
  }
  // Dead peers leave before the broadcast: a removed connection must
  // not receive frames.
  reap();
  auto broadcast = [this](core::EmissionRecord&& record, std::uint32_t) {
    BatchEmission wire;
    wire.rank = record.batch.rank;
    wire.messages.reserve(record.batch.messages.size());
    for (const core::Message& m : record.batch.messages) {
      wire.messages.push_back(m.id);
    }
    const auto frame = encode_frame(WireMessage(std::move(wire)));
    // Snapshot under conns_mutex_, then queue holding only each
    // connection's write_mutex. The shared_ptr snapshot keeps each Conn
    // alive even if a concurrent reap drops it from the table
    // mid-broadcast.
    std::vector<std::shared_ptr<Conn>> targets;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      targets.reserve(conns_.size());
      for (auto& [id, conn] : conns_) targets.push_back(conn);
    }
    // Bounded egress: what cannot be written now queues (up to the cap,
    // then the egress policy applies) and drains on the next writability
    // edge — a slow subscriber never stalls the pump.
    for (const auto& conn : targets) queue_egress(*conn, frame);
  };
  core::CallbackSink<decltype(broadcast)> sink(broadcast);
  return drain_locked(now, options, sink);
}

std::size_t FrameFrontend::drain_locked(TimePoint now,
                                        const PumpOptions& options,
                                        core::EmissionSink& sink) {
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  // Liveness for reconfigs nobody retries (a handshaken client's mutated
  // re-announce): each pump gives a staged epoch a chance to install.
  if (service_.reconfig_pending()) {
    service_.request_reconfig();
    service_.try_install_reconfig();
  }
  const std::size_t emitted =
      options.flush ? service_.flush(now, sink) : service_.poll(now, sink);
  if (options.next_safe_after != nullptr) {
    *options.next_safe_after = service_.next_safe_time();
  }
  return emitted;
}

void FrameFrontend::reconfigure() {
  // Pollers stall on the ingest lock for the duration of the swap —
  // exactly the serialization the service requires. The primer thread
  // never touches this lock, so the blocking join inside
  // service_.reconfigure() cannot deadlock.
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  service_.reconfigure();
}

void FrameFrontend::join_readers() {
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& [id, conn] : conns_) conns.push_back(conn);
  }
  // Wait until the poller marked each connection done (EOF reached AND
  // every retained frame applied — finish_eof orders the done store
  // after the last service call).
  for (const auto& conn : conns) {
    while (!conn->done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

std::size_t FrameFrontend::connection_count() const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  std::size_t live = 0;
  for (const auto& [id, conn] : conns_) {
    if (!reapable(*conn)) ++live;
  }
  return live;
}

std::size_t FrameFrontend::tracked_connection_count() const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  return conns_.size();
}

bool FrameFrontend::has_connection(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  return conns_.contains(id);
}

namespace {

template <typename Map>
auto& conn_at(const Map& conns, std::uint64_t id) {
  auto it = conns.find(id);
  TOMMY_EXPECTS(it != conns.end());
  return *it->second;
}

}  // namespace

bool FrameFrontend::connection_done(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  return conn_at(conns_, id).done.load(std::memory_order_acquire);
}

WireError FrameFrontend::connection_error(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  return conn_at(conns_, id).machine.error();
}

ConnectionStats FrameFrontend::connection_stats(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  const Conn& conn = conn_at(conns_, id);
  ConnectionStats stats;
  stats.frames_in = conn.machine.frames_in();
  stats.submits_in = conn.machine.submits_in();
  stats.heartbeats_in = conn.machine.heartbeats_in();
  stats.frames_out = conn.frames_out.load(std::memory_order_relaxed);
  stats.frames_dropped = conn.frames_dropped.load(std::memory_order_relaxed);
  stats.bytes_in = conn.bytes_in.load(std::memory_order_relaxed);
  stats.bytes_out = conn.bytes_out.load(std::memory_order_relaxed);
  stats.last_activity = conn.last_activity.load(std::memory_order_relaxed);
  stats.done = conn.done.load(std::memory_order_acquire);
  stats.clean_eof = conn.clean_eof.load(std::memory_order_relaxed);
  stats.error = conn.machine.error();
  return stats;
}

FrontendTotals FrameFrontend::totals() const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  FrontendTotals totals = retired_;
  for (const auto& [id, conn] : conns_) {
    totals.frames_in += conn->machine.frames_in();
    totals.submits_in += conn->machine.submits_in();
    totals.heartbeats_in += conn->machine.heartbeats_in();
    totals.frames_out += conn->frames_out.load(std::memory_order_relaxed);
    totals.frames_dropped +=
        conn->frames_dropped.load(std::memory_order_relaxed);
    totals.bytes_in += conn->bytes_in.load(std::memory_order_relaxed);
    totals.bytes_out += conn->bytes_out.load(std::memory_order_relaxed);
  }
  return totals;
}

const Connection& FrameFrontend::connection(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  return conn_at(conns_, id).machine;
}

RelaySet::RelaySet(DialFn dial, std::size_t max_frame_bytes)
    : dial_(std::move(dial)), max_frame_bytes_(max_frame_bytes) {
  TOMMY_EXPECTS(dial_ != nullptr);
}

RelaySet::~RelaySet() { stop(); }

void RelaySet::adopt(std::shared_ptr<ByteStream> downstream) {
  std::vector<std::shared_ptr<Relay>> finished;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      downstream->shutdown();
      return;
    }
    for (auto it = relays_.begin(); it != relays_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = relays_.erase(it);
      } else {
        ++it;
      }
    }
    auto relay = std::make_shared<Relay>();
    relay->down = std::move(downstream);
    relays_.push_back(relay);
    ++adopted_;
    relay->forward = std::thread([this, relay] { forward_loop(*relay); });
  }
  // Joins happen outside the lock; a done relay's thread is already past
  // its last instruction, so these joins return immediately.
  for (auto& relay : finished) {
    if (relay->forward.joinable()) relay->forward.join();
  }
}

void RelaySet::stop() {
  std::vector<std::shared_ptr<Relay>> relays;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    relays.swap(relays_);
  }
  for (auto& relay : relays) {
    relay->down->shutdown();
    std::shared_ptr<ByteStream> up;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      up = relay->up;
    }
    if (up != nullptr) up->shutdown();
  }
  for (auto& relay : relays) {
    if (relay->forward.joinable()) relay->forward.join();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stopping_ = false;
}

std::size_t RelaySet::active_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t active = 0;
  for (const auto& relay : relays_) {
    if (!relay->done.load(std::memory_order_acquire)) ++active;
  }
  return active;
}

std::uint64_t RelaySet::adopted_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return adopted_;
}

void RelaySet::forward_loop(Relay& relay) {
  std::vector<std::uint8_t> buffer(4096);
  // Every raw byte read before the upstream exists — the handshake frame
  // plus anything the client coalesced behind it. Replayed verbatim once
  // the dial lands, so the upstream sees exactly the byte stream the
  // client wrote.
  std::vector<std::uint8_t> preamble;
  FrameDecoder decoder(max_frame_bytes_);
  std::optional<DistributionAnnouncement> announcement;
  while (!announcement) {
    const auto n = relay.down->read_some(buffer);
    if (!n.has_value() || *n == 0) {
      handshake_failures_.fetch_add(1, std::memory_order_relaxed);
      relay.down->shutdown();
      relay.done.store(true, std::memory_order_release);
      return;
    }
    preamble.insert(preamble.end(), buffer.begin(),
                    buffer.begin() + static_cast<std::ptrdiff_t>(*n));
    decoder.append(std::span<const std::uint8_t>(buffer.data(), *n));
    if (auto payload = decoder.next()) {
      auto message = decode(*payload);
      if (!message.has_value()
          || !std::holds_alternative<DistributionAnnouncement>(*message)) {
        handshake_failures_.fetch_add(1, std::memory_order_relaxed);
        relay.down->shutdown();
        relay.done.store(true, std::memory_order_release);
        return;
      }
      announcement = std::get<DistributionAnnouncement>(std::move(*message));
    } else if (decoder.error() != FrameError::kNone) {
      handshake_failures_.fetch_add(1, std::memory_order_relaxed);
      relay.down->shutdown();
      relay.done.store(true, std::memory_order_release);
      return;
    }
  }

  std::shared_ptr<ByteStream> up = dial_(*announcement);
  if (up == nullptr) {
    dial_failures_.fetch_add(1, std::memory_order_relaxed);
    relay.down->shutdown();
    relay.done.store(true, std::memory_order_release);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    relay.up = up;
    if (stopping_) {
      up->shutdown();
      relay.down->shutdown();
      relay.done.store(true, std::memory_order_release);
      return;
    }
  }

  bool ok = up->write_all(preamble);
  std::thread backward;
  if (ok) {
    backward = std::thread([&relay, up] {
      std::vector<std::uint8_t> back(4096);
      for (;;) {
        const auto n = up->read_some(back);
        if (!n.has_value()) {
          // Upstream transport error (node killed): tear the downstream
          // down so the client reconnects through the router.
          relay.down->shutdown();
          return;
        }
        if (*n == 0) {
          // Clean upstream EOF: propagate the half-close; the client
          // reads what was sent, then EOF.
          relay.down->close_write();
          return;
        }
        if (!relay.down->write_all(
                std::span<const std::uint8_t>(back.data(), *n))) {
          up->shutdown();
          return;
        }
      }
    });
  }
  while (ok) {
    const auto n = relay.down->read_some(buffer);
    if (!n.has_value()) {
      ok = false;
      break;
    }
    if (*n == 0) {
      // Client half-closed (close_write after its last frame): propagate
      // so the upstream node sees the same clean EOF.
      up->close_write();
      break;
    }
    if (!up->write_all(std::span<const std::uint8_t>(buffer.data(), *n))) {
      ok = false;
      break;
    }
  }
  if (!ok) {
    relay.down->shutdown();
    up->shutdown();
  }
  if (backward.joinable()) backward.join();
  relay.done.store(true, std::memory_order_release);
}

}  // namespace tommy::net
