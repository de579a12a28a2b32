// The one address type every listen/dial surface in the repo shares: a
// Unix-domain socket path (preferred when nonempty) or a loopback TCP
// port. A topology file, a CLI flag, and a test helper all pass the same
// value straight through to the one spelling per direction:
//
//   dial(Endpoint[, RetryPolicy])            client side (net/acceptor.hpp)
//   listen(Endpoint)                         StreamAcceptor, FrameServer,
//                                            RouterNode
//   listen_ingest / listen_uplink(Endpoint)  ShardNode
//   connect(node, Endpoint)                  MergeNode peers
//
//   Endpoint{.unix_path = "/tmp/x.sock"}  →  Unix-domain stream socket
//   Endpoint{.tcp_port = 9000}            →  127.0.0.1:9000
//
// When both fields are set the Unix path wins. An empty() endpoint is
// "not configured". dist::NodeAddress is this same type.
#pragma once

#include <cstdint>
#include <string>

namespace tommy::net {

struct Endpoint {
  std::string unix_path{};
  std::uint16_t tcp_port{0};

  [[nodiscard]] bool empty() const {
    return unix_path.empty() && tcp_port == 0;
  }

  /// True when this endpoint names a Unix-domain socket (which takes
  /// precedence over tcp_port when both are set).
  [[nodiscard]] bool is_unix() const { return !unix_path.empty(); }
};

}  // namespace tommy::net
