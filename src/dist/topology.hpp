// Multi-node topology: the static description of a distributed
// fair-ordering deployment — N shard nodes (each one FairOrderingService
// shard behind a FrameServer) plus the client→node assignment — and the
// thin router tier that lets clients keep the single-endpoint handshake
// flow while the service fans out horizontally.
//
//   clients ──► RouterNode ──► shard node 0 ┐ OrderedBatch +
//      (one endpoint,          shard node 1 ├ SafeTimeAnnounce ──► merge
//       relayed raw)           shard node k ┘ uplinks              node
//
// The client→node assignment reuses the in-process KeyRouter machinery
// verbatim — by default a RangeRouter over the client span, which is
// exactly the router FairOrderingService builds when none is given. That
// identity is what makes the distributed deployment comparable to the
// single-process oracle: partition(i) here is the same client set that
// shard i owns inside a shard_count = N service over the same clients,
// so the per-node emission streams are bit-comparable shard for shard.
//
// RouterNode is deliberately stateless beyond the handshake sniff: it
// decodes the first frame of each inbound connection (the client's
// DistributionAnnouncement), routes on the announced client id, and
// splices bytes both ways (net::RelaySet). It holds no ordering state,
// so killing or restarting the router loses nothing but in-flight
// connections — clients reconnect and resend.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/service.hpp"
#include "net/acceptor.hpp"

namespace tommy::dist {

/// One dialable listening endpoint. Now literally the shared net-layer
/// address type: a topology entry passes straight into net::listen /
/// net::dial without translation (field layout and empty() semantics are
/// unchanged — aggregate initializers at existing call sites still work).
using NodeAddress = net::Endpoint;

/// A shard node's two listening sockets: `ingest` accepts client (or
/// router-relayed) frame connections; `uplink` streams OrderedBatch +
/// SafeTimeAnnounce frames to merge subscribers.
struct NodeEndpoints {
  NodeAddress ingest{};
  NodeAddress uplink{};
};

/// The static deployment map: node endpoints, the full client set, and
/// the client→node assignment. Immutable after construction — topology
/// changes in this codebase are a restart, not a protocol.
class Topology {
 public:
  /// `clients` is the full expected client set (every node primes its
  /// engine over all of them; see ShardNode). Null `router` builds the
  /// same default the in-process service does: a RangeRouter over the
  /// clients' id span — keeping the distributed partition bit-identical
  /// to a shard_count = node-count oracle service.
  Topology(std::vector<NodeEndpoints> nodes, std::vector<ClientId> clients,
           std::shared_ptr<const core::KeyRouter> router = {});

  [[nodiscard]] std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] const std::vector<ClientId>& clients() const {
    return clients_;
  }
  [[nodiscard]] const NodeEndpoints& endpoints(std::uint32_t node) const;

  /// Owning node of `client` (the router is total: ids outside the
  /// expected set still map somewhere).
  [[nodiscard]] std::uint32_t node_for(ClientId client) const;

  /// The clients assigned to `node`, in the order they appear in
  /// clients() — the same order a FairOrderingService visits them when
  /// partitioning its expected set, so a node's expected list matches
  /// the oracle shard's exactly.
  [[nodiscard]] std::vector<ClientId> partition(std::uint32_t node) const;

  /// All partitions at once (index = node).
  [[nodiscard]] std::vector<std::vector<ClientId>> partitions() const;

  [[nodiscard]] const core::KeyRouter& router() const { return *router_; }

 private:
  std::vector<NodeEndpoints> nodes_;
  std::vector<ClientId> clients_;
  std::shared_ptr<const core::KeyRouter> router_;
};

struct RouterConfig {
  /// Backoff budget for dialing a shard node's ingest endpoint — a node
  /// mid-restart refuses transiently, and the relay retries under this
  /// before dropping the client.
  net::RetryPolicy retry{};
  std::size_t max_frame_bytes{net::kDefaultMaxFrameBytes};
};

/// The thin router tier: one listening socket, one RelaySet. Every
/// accepted client connection is sniffed for its announcement, routed by
/// client id, and spliced to the owning shard node's ingest endpoint.
class RouterNode {
 public:
  explicit RouterNode(Topology topology, RouterConfig config = {});

  /// stop()s.
  ~RouterNode();

  RouterNode(const RouterNode&) = delete;
  RouterNode& operator=(const RouterNode&) = delete;

  [[nodiscard]] bool listen(const net::Endpoint& endpoint) {
    return acceptor_.listen(endpoint);
  }

  [[nodiscard]] std::uint16_t port() const { return acceptor_.port(); }
  [[nodiscard]] const std::string& unix_path() const {
    return acceptor_.unix_path();
  }
  [[nodiscard]] bool running() const { return acceptor_.running(); }

  /// Stops accepting, then tears every live relay down (clients see dead
  /// connections and reconnect elsewhere/later). Idempotent.
  void stop();

  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] net::RelaySet& relays() { return relays_; }
  [[nodiscard]] const net::RelaySet& relays() const { return relays_; }

 private:
  [[nodiscard]] std::shared_ptr<net::ByteStream> dial(
      const net::DistributionAnnouncement& announcement);

  Topology topology_;
  RouterConfig config_;
  net::RelaySet relays_;
  net::StreamAcceptor acceptor_;
};

}  // namespace tommy::dist
