// FrameFrontend's poller-thread half. frontend.cpp holds the protocol
// machine, the fd stream, the connection table and the pump; this TU
// holds what runs on (or talks to) the EventLoop.
//
// Per-connection flow, all on the connection's one poller thread:
//
//   readable edge ──► drain_readable: try_read until kWouldBlock,
//        │            each chunk through Connection::drive (nonblocking)
//        │                 │ kStalled (ingest lock busy)
//        │                 ▼
//        │            paused = true, request_tick ──► on_loop_tick:
//        │            drive() retry; kReady resumes the read drain
//        │            (backpressure: while paused the socket is NOT
//        │            read, its kernel buffers fill, TCP flow control
//        │            reaches the client)
//        ▼
//   writable edge ──► flush_egress: bounded per-connection queue the
//                     broadcast pump fills; overflow applies the
//                     configured EgressPolicy (disconnect or drop).
//                     Runs while writes succeed, also after ingest is
//                     done: a lingering subscriber still drains.
#include <algorithm>
#include <chrono>

#include "common/check.hpp"
#include "net/event_loop.hpp"
#include "net/frontend.hpp"

namespace tommy::net {

namespace {

/// ConnectionStats::last_activity's clock: monotonic seconds since the
/// first call (one shared origin per process, so all connections agree).
/// Arrivals are stamped on a different clock (FrontendConfig::
/// arrival_clock); this one only orders I/O for observability.
TimePoint monotonic_now() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return TimePoint(
      std::chrono::duration<double>(clock::now() - origin).count());
}

/// Bytes each try_read on a readable edge asks for.
constexpr std::size_t kReadChunkBytes = 4096;

}  // namespace

void FrameFrontend::attach_to_loop(const std::shared_ptr<Conn>& conn) {
  // conns_mutex_ held by add_connection: guards event_loop_ creation and
  // publishes loop_key/in_loop before any other thread can see the conn.
  const int fd = conn->stream->poll_fd();
  if (fd < 0) {
    // Nothing to poll: fail it typed rather than crash — the caller
    // observes a done, failed connection.
    conn->machine.mark_failed(WireError::kStreamError);
    conn->done.store(true, std::memory_order_release);
    return;
  }
  if (!event_loop_) {
    event_loop_ = std::make_unique<EventLoop>(
        std::max<std::size_t>(1, config_.poller_threads));
  }
  conn->read_buffer.resize(kReadChunkBytes);
  conn->loop_key = event_loop_->allocate_key();
  conn->in_loop = true;
  EventLoop::Handler handler;
  // The handler owns a shared_ptr: the Conn outlives its registration,
  // and remove_sync (in retire) drops this reference.
  handler.on_event = [this, conn](bool readable, bool writable,
                                  bool hangup) {
    on_loop_event(conn, readable, writable, hangup);
  };
  handler.on_tick = [this, conn] { on_loop_tick(conn); };
  event_loop_->attach(conn->loop_key, fd, std::move(handler));
}

void FrameFrontend::on_loop_event(const std::shared_ptr<Conn>& conn,
                                  bool readable, bool writable,
                                  bool hangup) {
  // Egress first, and regardless of `done`: a peer that half-closed
  // under EofPolicy::kLinger is done reading but still a subscriber,
  // and frames queued behind its full socket drain only on these edges.
  if (writable) {
    std::lock_guard<std::mutex> write_lock(conn->write_mutex);
    if (conn->write_ok.load(std::memory_order_relaxed)) {
      flush_egress_locked(*conn);
    }
  }
  if (conn->done.load(std::memory_order_acquire)) return;
  // While paused (service stalled) the socket is deliberately not read
  // — the pending tick owns resumption, and edge-triggered epoll will
  // not repeat this edge, which is exactly right: the bytes stay in the
  // kernel buffer until the stall clears.
  if ((readable || hangup) && !conn->paused && !conn->eof_seen) {
    drain_readable(*conn);
  }
}

void FrameFrontend::on_loop_tick(const std::shared_ptr<Conn>& conn) {
  if (conn->done.load(std::memory_order_acquire)) return;
  if (!conn->paused) return;  // stale tick (stall already resolved)
  const Connection::DriveStatus status = conn->machine.drive();
  for (const auto& frame : conn->machine.take_outbound()) {
    queue_egress(*conn, frame);
  }
  if (status == Connection::DriveStatus::kFailed) {
    fail_loop_conn(*conn);
    return;
  }
  if (status == Connection::DriveStatus::kStalled) {
    event_loop_->request_tick(conn->loop_key);
    return;
  }
  conn->paused = false;
  if (conn->eof_seen) {
    // kReady means drained: the deferred EOF can now complete.
    finish_eof(*conn);
    return;
  }
  // Catch up on whatever arrived while paused (no new edge will fire
  // for bytes that were already buffered).
  drain_readable(*conn);
}

void FrameFrontend::drain_readable(Conn& conn) {
  while (true) {
    const IoResult r = conn.stream->try_read(conn.read_buffer);
    if (r.status == IoStatus::kWouldBlock) return;
    if (r.status == IoStatus::kError) {
      // Nothing is retained here: reads only resume after a drive()
      // returned kReady, so stash/pending are empty when an error
      // surfaces.
      conn.machine.mark_failed(WireError::kStreamError);
      fail_loop_conn(conn);
      return;
    }
    if (r.status == IoStatus::kEof) {
      conn.eof_seen = true;
      if (conn.machine.drained()) {
        finish_eof(conn);
      } else {
        // Retained frames still need the service: finish the EOF once
        // the stall clears.
        conn.paused = true;
        event_loop_->request_tick(conn.loop_key);
      }
      return;
    }
    conn.bytes_in.fetch_add(r.bytes, std::memory_order_relaxed);
    conn.last_activity.store(monotonic_now().seconds(),
                             std::memory_order_relaxed);
    const Connection::DriveStatus status =
        conn.machine.drive({conn.read_buffer.data(), r.bytes});
    for (const auto& frame : conn.machine.take_outbound()) {
      queue_egress(conn, frame);
    }
    if (status == Connection::DriveStatus::kFailed) {
      fail_loop_conn(conn);
      return;
    }
    if (status == Connection::DriveStatus::kStalled) {
      conn.paused = true;
      event_loop_->request_tick(conn.loop_key);
      return;
    }
  }
}

void FrameFrontend::finish_eof(Conn& conn) {
  conn.clean_eof.store(true, std::memory_order_relaxed);
  if (config_.retire_on_eof) conn.machine.on_peer_eof();
  // Release pairs with join_readers' acquire: everything the peer
  // streamed has been applied once done reads true.
  conn.done.store(true, std::memory_order_release);
}

void FrameFrontend::fail_loop_conn(Conn& conn) {
  // Tear the transport down so the peer is not left writing into a
  // connection nobody reads.
  conn.stream->shutdown();
  conn.done.store(true, std::memory_order_release);
}

void FrameFrontend::queue_egress(Conn& conn,
                                 std::span<const std::uint8_t> frame) {
  std::lock_guard<std::mutex> write_lock(conn.write_mutex);
  if (!conn.write_ok.load(std::memory_order_relaxed)) return;
  // Oldest bytes first: drain what a previous edge left queued before
  // attempting this frame, so the wire order matches the emit order.
  flush_egress_locked(conn);
  if (!conn.write_ok.load(std::memory_order_relaxed)) return;
  std::size_t off = 0;
  if (conn.egress.empty()) {
    // Fast path: common case is an empty queue and a writable socket.
    while (off < frame.size()) {
      const IoResult r = conn.stream->try_write(frame.subspan(off));
      if (r.status == IoStatus::kOk) {
        off += r.bytes;
        conn.bytes_out.fetch_add(r.bytes, std::memory_order_relaxed);
        conn.last_activity.store(monotonic_now().seconds(),
                                 std::memory_order_relaxed);
        continue;
      }
      if (r.status != IoStatus::kWouldBlock) {
        conn.write_ok.store(false, std::memory_order_release);
        return;
      }
      break;
    }
    if (off == frame.size()) {
      conn.frames_out.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  const std::size_t remaining = frame.size() - off;
  if (off == 0
      && conn.egress_bytes + remaining > config_.egress_buffer_bytes) {
    // Policy decisions happen only at frame boundaries: a partially
    // written frame MUST queue its remainder (dropping it would corrupt
    // the stream), so the queue can overshoot the cap by at most one
    // frame.
    if (config_.egress_policy == EgressPolicy::kDrop) {
      conn.frames_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // kDisconnect: the slow subscriber is torn down (write_ok gates
    // reapable; the shutdown also unsticks its peer).
    conn.write_ok.store(false, std::memory_order_release);
    conn.stream->shutdown();
    return;
  }
  conn.egress.emplace_back(
      frame.begin() + static_cast<std::ptrdiff_t>(off), frame.end());
  conn.egress_bytes += remaining;
}

void FrameFrontend::flush_egress_locked(Conn& conn) {
  while (!conn.egress.empty()) {
    const std::vector<std::uint8_t>& head = conn.egress.front();
    const IoResult r = conn.stream->try_write(
        std::span<const std::uint8_t>(head).subspan(conn.egress_offset));
    if (r.status == IoStatus::kOk) {
      conn.egress_offset += r.bytes;
      conn.egress_bytes -= r.bytes;
      conn.bytes_out.fetch_add(r.bytes, std::memory_order_relaxed);
      conn.last_activity.store(monotonic_now().seconds(),
                               std::memory_order_relaxed);
      if (conn.egress_offset == head.size()) {
        conn.egress.pop_front();
        conn.egress_offset = 0;
        conn.frames_out.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (r.status == IoStatus::kWouldBlock) return;
    conn.write_ok.store(false, std::memory_order_release);
    return;
  }
}

}  // namespace tommy::net
