#include "dist/topology.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace tommy::dist {

Topology::Topology(std::vector<NodeEndpoints> nodes,
                   std::vector<ClientId> clients,
                   std::shared_ptr<const core::KeyRouter> router)
    : nodes_(std::move(nodes)),
      clients_(std::move(clients)),
      router_(std::move(router)) {
  TOMMY_EXPECTS(!nodes_.empty());
  if (!router_) {
    TOMMY_EXPECTS(!clients_.empty());
    ClientId lo = clients_.front();
    ClientId hi = clients_.front();
    for (ClientId c : clients_) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    router_ = std::make_shared<core::RangeRouter>(lo, hi);
  }
}

const NodeEndpoints& Topology::endpoints(std::uint32_t node) const {
  TOMMY_EXPECTS(node < nodes_.size());
  return nodes_[node];
}

std::uint32_t Topology::node_for(ClientId client) const {
  return router_->route(client, node_count());
}

std::vector<ClientId> Topology::partition(std::uint32_t node) const {
  TOMMY_EXPECTS(node < nodes_.size());
  std::vector<ClientId> owned;
  for (ClientId c : clients_) {
    if (node_for(c) == node) owned.push_back(c);
  }
  return owned;
}

std::vector<std::vector<ClientId>> Topology::partitions() const {
  std::vector<std::vector<ClientId>> parts(nodes_.size());
  for (ClientId c : clients_) {
    parts[node_for(c)].push_back(c);
  }
  return parts;
}

RouterNode::RouterNode(Topology topology, RouterConfig config)
    : topology_(std::move(topology)),
      config_(std::move(config)),
      relays_(
          [this](const net::DistributionAnnouncement& announcement) {
            return dial(announcement);
          },
          config_.max_frame_bytes),
      acceptor_([this](std::shared_ptr<net::ByteStream> stream) {
        relays_.adopt(std::move(stream));
      }) {}

RouterNode::~RouterNode() { stop(); }

void RouterNode::stop() {
  acceptor_.stop();
  relays_.stop();
}

std::shared_ptr<net::ByteStream> RouterNode::dial(
    const net::DistributionAnnouncement& announcement) {
  const std::uint32_t node = topology_.node_for(announcement.client);
  const NodeAddress& address = topology_.endpoints(node).ingest;
  // One transport-agnostic dial path with the transient-failure retry
  // budget: a shard node mid-restart (socket file briefly gone, listener
  // mid-bind) refuses transiently, and the relay should outwait it
  // rather than fail the client's first frame.
  return net::dial(address, config_.retry);
}

}  // namespace tommy::dist
