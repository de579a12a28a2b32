// The listening half of the wire front-end, in two layers:
//
//  * `StreamAcceptor` is the transport-level acceptor: it owns a TCP or
//    Unix-domain listening socket, runs an accept loop on its own thread,
//    wraps every accepted fd via make_fd_stream, and hands the stream to
//    a caller-supplied callback. It knows nothing about frames or
//    services — the dist layer reuses it verbatim for shard-node uplinks
//    and the key router.
//  * `FrameServer` composes a StreamAcceptor with an embedded
//    FrameFrontend: every accepted stream becomes a protocol connection
//    (poller registration, handshake, session) — the real server remote
//    client processes connect to.
//  * The client side is one function, `dial(Endpoint[, RetryPolicy])`:
//    every layer that connects (merge peers, relays, subscribers, test
//    and bench clients) passes an Endpoint straight through to it.
//
//   listen fd ──► accept thread ──► make_fd_stream ──► on_stream(...)
//                                                       (FrameServer:
//                                                        add_connection)
//
// Lifecycle: the accept loop multiplexes the listening socket against an
// internal wake pipe with poll(2), so stop() never races a blocking
// accept — it writes the wake byte, joins the accept thread, closes the
// listening socket (and unlinks a Unix socket path). stop() is
// idempotent and runs from the destructor. FrameServer::stop()
// additionally stops the front-end (unhooking every connection from its
// poller and shutting its stream down).
//
// Connection lifetime is the front-end's EofPolicy (ServerConfig defaults
// it to kRemove: a peer that stops sending is reaped, its id recycled);
// pump(now) broadcasts emissions and reaps dead connections first.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/endpoint.hpp"
#include "net/frontend.hpp"

namespace tommy::net {

/// Transport-level acceptor: one listening socket, one accept thread,
/// every accepted fd delivered to `on_stream` as a ByteStream (from the
/// accept thread — the callback must not block indefinitely). One
/// listening socket per instance: call listen() once.
class StreamAcceptor {
 public:
  using OnStream = std::function<void(std::shared_ptr<ByteStream>)>;

  /// listen(2) backlog of every listening socket in the library.
  static constexpr int kBacklog = 128;

  explicit StreamAcceptor(OnStream on_stream);

  /// stop()s.
  ~StreamAcceptor();

  StreamAcceptor(const StreamAcceptor&) = delete;
  StreamAcceptor& operator=(const StreamAcceptor&) = delete;

  /// Binds the endpoint, listens, and starts the accept thread. A Unix
  /// path binds a Unix-domain stream socket there (unlinking a stale
  /// socket file first); otherwise 127.0.0.1:tcp_port is bound (0 =
  /// ephemeral; read the outcome from port()). False on bind / listen
  /// failure (errno preserved).
  [[nodiscard]] bool listen(const Endpoint& endpoint) {
    return endpoint.is_unix() ? listen_unix(endpoint.unix_path)
                              : listen_tcp(endpoint.tcp_port);
  }

  /// Bound TCP port (valid after a successful TCP listen).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Bound Unix socket path (valid after a successful Unix listen).
  [[nodiscard]] const std::string& unix_path() const { return unix_path_; }

  /// Accepting connections (between a successful listen and stop()).
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// Stops accepting: joins the accept thread, closes the listening
  /// socket, unlinks a Unix path. Streams already handed to the callback
  /// are untouched (their owner tears them down). Idempotent.
  void stop();

  /// Blocks until at least `n` connections have been accepted over the
  /// acceptor's lifetime, or `timeout_ms` elapsed. True if reached.
  [[nodiscard]] bool wait_for_accepted(std::uint64_t n, int timeout_ms);

  /// Connections ever accepted.
  [[nodiscard]] std::uint64_t accepted_total() const {
    return accepted_.load(std::memory_order_acquire);
  }

 private:
  [[nodiscard]] bool listen_tcp(std::uint16_t port);
  [[nodiscard]] bool listen_unix(const std::string& path);
  [[nodiscard]] bool start(int listen_fd);
  void accept_loop();

  OnStream on_stream_;

  int listen_fd_{-1};
  int wake_fds_[2]{-1, -1};  // self-pipe: [read, write]
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::uint16_t port_{0};
  std::string unix_path_{};

  std::mutex accepted_mutex_;
  std::condition_variable accepted_cv_;
};

struct ServerConfig {
  FrontendConfig frontend{};
  /// Applied over frontend.eof_policy: servers default to removal (a
  /// disconnected peer is gone), where the bare front-end defaults to
  /// linger (in-process subscriber semantics).
  EofPolicy eof_policy{EofPolicy::kRemove};
};

/// A listening fair-ordering server over a FrameFrontend. One listening
/// socket per instance — call listen() once. The registry/service must
/// outlive the server.
class FrameServer {
 public:
  FrameServer(core::ClientRegistry& registry,
              core::FairOrderingService& service, ServerConfig config = {});

  /// stop()s.
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds the endpoint and starts accepting (see StreamAcceptor::listen).
  [[nodiscard]] bool listen(const Endpoint& endpoint) {
    return acceptor_.listen(endpoint);
  }

  /// Bound TCP port (valid after a successful TCP listen).
  [[nodiscard]] std::uint16_t port() const { return acceptor_.port(); }
  /// Bound Unix socket path (valid after a successful Unix listen).
  [[nodiscard]] const std::string& unix_path() const {
    return acceptor_.unix_path();
  }

  /// Accepting connections (between a successful listen and stop()).
  [[nodiscard]] bool running() const { return acceptor_.running(); }

  /// Stops accepting (joins the accept thread, closes the listening
  /// socket, unlinks a Unix path) and stops the front-end (unhooks and
  /// shuts down every connection). Idempotent.
  void stop();

  /// Blocks until at least `n` connections have been accepted over the
  /// server's lifetime, or `timeout_ms` elapsed. True if reached.
  [[nodiscard]] bool wait_for_accepted(std::uint64_t n, int timeout_ms) {
    return acceptor_.wait_for_accepted(n, timeout_ms);
  }

  /// Connections ever accepted.
  [[nodiscard]] std::uint64_t accepted_total() const {
    return acceptor_.accepted_total();
  }

  /// Broadcast-pump forwarders (reap + poll/flush + broadcast).
  std::size_t pump(TimePoint now) { return frontend_.pump(now); }
  std::size_t pump_flush(TimePoint now) { return frontend_.pump_flush(now); }

  [[nodiscard]] FrameFrontend& frontend() { return frontend_; }
  [[nodiscard]] const FrameFrontend& frontend() const { return frontend_; }

 private:
  FrameFrontend frontend_;
  StreamAcceptor acceptor_;
};

/// Bounded retry-with-backoff budget for client-side connects and the
/// join handshake. Attempt k (0-based) sleeps
///   min(base_delay · multiplier^k, max_delay)
/// before attempt k+1. `sleep` is injectable so tests drive the schedule
/// deterministically (record the delays instead of sleeping); null means
/// std::this_thread::sleep_for.
struct RetryPolicy {
  int attempts{500};
  std::chrono::microseconds base_delay{2000};
  double multiplier{1.0};
  std::chrono::microseconds max_delay{50000};
  std::function<void(std::chrono::microseconds)> sleep{};

  /// The delay between attempt `attempt` and the next one.
  [[nodiscard]] std::chrono::microseconds delay_for(int attempt) const;
  /// delay_for, through `sleep` (or the default sleeper).
  void wait(int attempt) const;
};

/// Dials `endpoint` once: a Unix-domain connect when it names a path,
/// else a TCP connect to 127.0.0.1:port (numeric loopback only — this is
/// a test/bench/replay client, not a resolver). The connected socket is
/// uniformly conditioned regardless of transport: TCP_NODELAY applied
/// here (a no-op on Unix sockets), O_NONBLOCK applied by make_fd_stream
/// (FdByteStream emulates the blocking contract over poll, so one fd
/// mode serves both read styles). nullptr on failure, errno preserved.
[[nodiscard]] std::shared_ptr<ByteStream> dial(const Endpoint& endpoint);

/// dial with a retry budget for TRANSIENT failures only — the
/// multi-process startup race: a server mid-bind (or draining an accept
/// burst) refuses with ECONNREFUSED/ECONNRESET/ETIMEDOUT (plus ENOENT
/// for a Unix socket file not yet on disk), and the client backs off
/// under `policy` instead of failing its first attempt. Non-transient
/// failures (EACCES, ENETUNREACH, bad fd limits) return nullptr
/// immediately with errno preserved — retrying cannot fix them.
[[nodiscard]] std::shared_ptr<ByteStream> dial(const Endpoint& endpoint,
                                               const RetryPolicy& policy);

/// Outcome of the client-side join handshake (perform_handshake).
enum class HandshakeResult : std::uint8_t {
  /// HandshakeAck received: the session is live on the server.
  kAccepted,
  /// The retry budget ran out while the join was still ReconfigPending.
  kPending,
  /// EOF, transport error, or an undecodable frame mid-handshake.
  kStreamClosed,
};

/// Client side of the join flow (a server whose FrontendConfig has
/// accept_new_clients): writes `announcement`, reads the server's
/// response, and re-announces on ReconfigPending under `policy`'s backoff
/// schedule until a HandshakeAck lands. BatchEmission broadcasts that
/// interleave are skipped. Blocking; drive it from the thread that owns
/// the stream's read side.
[[nodiscard]] HandshakeResult perform_handshake(
    ByteStream& stream, const DistributionAnnouncement& announcement,
    const RetryPolicy& policy = {});

}  // namespace tommy::net
