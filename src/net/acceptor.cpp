#include "net/acceptor.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <variant>

#include "common/check.hpp"

namespace tommy::net {

namespace {

/// Retries close on EINTR (Linux semantics: the fd is gone either way,
/// but keep the intent explicit).
void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

void set_nodelay(int fd) {
  int one = 1;
  // Best-effort: fails (harmlessly) on non-TCP sockets.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Connect errnos a retry can actually outwait: the server racing its
/// bind/listen (ECONNREFUSED, and ENOENT for a Unix socket file not yet
/// on disk), a backlog overflow dropping the attempt (ECONNRESET /
/// ETIMEDOUT / EAGAIN), or a signal. Anything else — EACCES, address
/// errors, fd exhaustion on OUR side — will fail identically on every
/// attempt and surfaces immediately.
bool connect_errno_transient(int err) {
  return err == ECONNREFUSED || err == ENOENT || err == ECONNRESET
         || err == ETIMEDOUT || err == EAGAIN || err == EINTR
         || err == ECONNABORTED;
}

template <typename ConnectOnce>
std::shared_ptr<ByteStream> connect_with_retry(ConnectOnce&& connect_once,
                                               const RetryPolicy& policy) {
  for (int attempt = 0;; ++attempt) {
    auto stream = connect_once();
    if (stream != nullptr) return stream;
    if (!connect_errno_transient(errno) || attempt + 1 >= policy.attempts) {
      return nullptr;
    }
    const int saved = errno;
    policy.wait(attempt);
    errno = saved;
  }
}

}  // namespace

// ── StreamAcceptor ──────────────────────────────────────────────────────

StreamAcceptor::StreamAcceptor(OnStream on_stream)
    : on_stream_(std::move(on_stream)) {
  TOMMY_EXPECTS(on_stream_ != nullptr);
}

StreamAcceptor::~StreamAcceptor() { stop(); }

bool StreamAcceptor::listen_tcp(std::uint16_t port) {
  TOMMY_EXPECTS(listen_fd_ < 0);  // one listen per acceptor, once
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0
      || ::listen(fd, kBacklog) != 0) {
    const int saved = errno;
    close_fd(fd);
    errno = saved;
    return false;
  }
  // Ephemeral port: read back what the kernel assigned.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int saved = errno;
    close_fd(fd);
    errno = saved;
    return false;
  }
  port_ = ntohs(bound.sin_port);
  return start(fd);
}

bool StreamAcceptor::listen_unix(const std::string& path) {
  TOMMY_EXPECTS(listen_fd_ < 0);
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    errno = ENAMETOOLONG;
    return false;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  (void)::unlink(path.c_str());  // stale socket file from a dead server
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0
      || ::listen(fd, kBacklog) != 0) {
    const int saved = errno;
    close_fd(fd);
    errno = saved;
    return false;
  }
  unix_path_ = path;
  return start(fd);
}

bool StreamAcceptor::start(int listen_fd) {
  // Nonblocking listen fd: a connection poll() reported can be gone by
  // the time accept() runs (peer RST in the backlog); a blocking accept
  // would then wedge the loop past stop()'s wake byte. Accepted fds do
  // NOT inherit the flag (FdByteStream sets its own mode).
  const int flags = ::fcntl(listen_fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(listen_fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    const int saved = errno;
    close_fd(listen_fd);
    if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
    errno = saved;
    return false;
  }
  if (::pipe(wake_fds_) != 0) {
    const int saved = errno;
    close_fd(listen_fd);
    if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
    errno = saved;
    return false;
  }
  listen_fd_ = listen_fd;
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void StreamAcceptor::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, /*timeout=*/-1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // poll on a listening socket failing is unrecoverable
    }
    if (fds[1].revents != 0) break;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EMFILE || errno == ENFILE) {
        // fd exhaustion: the pending connection stays in the backlog, so
        // level-triggered poll() would re-fire instantly — back off
        // briefly to let connection teardown free descriptors instead of
        // spinning a core.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      // A connection that died in the backlog, a signal, a nonblocking
      // no-op: none of these should kill the server.
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN
          || errno == EWOULDBLOCK) {
        continue;
      }
      break;
    }
    set_nodelay(fd);
    on_stream_(make_fd_stream(fd));
    {
      std::lock_guard<std::mutex> lock(accepted_mutex_);
      accepted_.fetch_add(1, std::memory_order_release);
    }
    accepted_cv_.notify_all();
  }
  running_.store(false, std::memory_order_release);
}

void StreamAcceptor::stop() {
  if (accept_thread_.joinable()) {
    running_.store(false, std::memory_order_release);
    const std::uint8_t byte = 0;
    // A full pipe still wakes the poller (POLLIN already set); ignore.
    (void)!::write(wake_fds_[1], &byte, 1);
    accept_thread_.join();
  }
  close_fd(listen_fd_);
  listen_fd_ = -1;
  close_fd(wake_fds_[0]);
  close_fd(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
  if (!unix_path_.empty()) (void)::unlink(unix_path_.c_str());
}

bool StreamAcceptor::wait_for_accepted(std::uint64_t n, int timeout_ms) {
  std::unique_lock<std::mutex> lock(accepted_mutex_);
  return accepted_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms),
      [this, n] { return accepted_.load(std::memory_order_acquire) >= n; });
}

// ── FrameServer ─────────────────────────────────────────────────────────

FrameServer::FrameServer(core::ClientRegistry& registry,
                         core::FairOrderingService& service,
                         ServerConfig config)
    : frontend_(registry, service,
                [&config] {
                  FrontendConfig frontend = config.frontend;
                  frontend.eof_policy = config.eof_policy;
                  return frontend;
                }()),
      acceptor_([this](std::shared_ptr<ByteStream> stream) {
        frontend_.add_connection(std::move(stream));
      }) {}

FrameServer::~FrameServer() { stop(); }

void FrameServer::stop() {
  acceptor_.stop();
  // Connections last: each leaves its poller only once any callback in
  // flight has returned, then its stream is shut down.
  frontend_.stop();
}

// ── Client-side dial ────────────────────────────────────────────────────

std::shared_ptr<ByteStream> dial(const Endpoint& endpoint) {
  int fd;
  if (endpoint.is_unix()) {
    sockaddr_un addr{};
    if (endpoint.unix_path.size() >= sizeof(addr.sun_path)) {
      errno = ENAMETOOLONG;
      return nullptr;
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, endpoint.unix_path.c_str(),
                endpoint.unix_path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int saved = errno;
      close_fd(fd);
      errno = saved;
      return nullptr;
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(endpoint.tcp_port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int saved = errno;
      close_fd(fd);
      errno = saved;
      return nullptr;
    }
  }
  // Uniform socket conditioning for BOTH transports (historically only
  // the TCP dial and the accept path disabled Nagle): a no-op on Unix
  // sockets, latency-critical on TCP.
  set_nodelay(fd);
  return make_fd_stream(fd);
}

std::shared_ptr<ByteStream> dial(const Endpoint& endpoint,
                                 const RetryPolicy& policy) {
  return connect_with_retry([&endpoint] { return dial(endpoint); }, policy);
}

std::chrono::microseconds RetryPolicy::delay_for(int attempt) const {
  double scaled = static_cast<double>(base_delay.count());
  for (int i = 0; i < attempt; ++i) {
    scaled *= multiplier;
    if (scaled >= static_cast<double>(max_delay.count())) {
      return max_delay;
    }
  }
  const auto micros = static_cast<std::int64_t>(scaled);
  return std::min(std::chrono::microseconds(micros), max_delay);
}

void RetryPolicy::wait(int attempt) const {
  const auto delay = delay_for(attempt);
  if (sleep) {
    sleep(delay);
  } else {
    std::this_thread::sleep_for(delay);
  }
}

HandshakeResult perform_handshake(ByteStream& stream,
                                  const DistributionAnnouncement& announcement,
                                  const RetryPolicy& policy) {
  const auto frame = encode_frame(WireMessage(announcement));
  FrameDecoder decoder(kDefaultMaxFrameBytes);
  std::vector<std::uint8_t> buffer(4096);
  if (!stream.write_all(frame)) return HandshakeResult::kStreamClosed;
  for (int attempt = 0;; ++attempt) {
    // Read until the server answers this announce (skipping broadcast
    // BatchEmission frames that interleave).
    for (;;) {
      if (auto payload = decoder.next()) {
        auto message = decode(*payload);
        if (!message) return HandshakeResult::kStreamClosed;
        if (std::holds_alternative<HandshakeAck>(*message)) {
          return HandshakeResult::kAccepted;
        }
        if (std::holds_alternative<ReconfigPending>(*message)) break;
        continue;  // a broadcast; keep reading
      }
      if (decoder.error() != FrameError::kNone) {
        return HandshakeResult::kStreamClosed;
      }
      const auto n = stream.read_some(buffer);
      if (!n || *n == 0) return HandshakeResult::kStreamClosed;
      decoder.append({buffer.data(), *n});
    }
    // ReconfigPending: back off, then re-announce.
    if (attempt + 1 >= policy.attempts) return HandshakeResult::kPending;
    policy.wait(attempt);
    if (!stream.write_all(frame)) return HandshakeResult::kStreamClosed;
  }
}

}  // namespace tommy::net
