#include "dist/merge_node.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <variant>

#include "common/check.hpp"
#include "net/framing.hpp"
#include "net/frontend.hpp"

namespace tommy::dist {

const char* to_string(MergeError error) {
  switch (error) {
    case MergeError::kNone:
      return "none";
    case MergeError::kRankGap:
      return "rank gap";
    case MergeError::kMalformedFrame:
      return "malformed frame";
    case MergeError::kUnexpectedFrame:
      return "unexpected frame";
    case MergeError::kStreamError:
      return "stream error";
    case MergeError::kReplayTruncated:
      return "replay truncated";
  }
  return "unknown";
}

const char* to_string(MergePeerState state) {
  switch (state) {
    case MergePeerState::kNeverHeard:
      return "never heard";
    case MergePeerState::kLive:
      return "live";
    case MergePeerState::kPeerStalled:
      return "stalled";
    case MergePeerState::kDisconnected:
      return "disconnected";
  }
  return "unknown";
}

MergeNode::MergeNode(std::uint32_t node_count, MergeConfig config)
    : config_(std::move(config)),
      peers_(node_count),
      downlink_([this](std::shared_ptr<net::ByteStream> stream) {
        subscribe_downlink(std::move(stream));
      }) {
  TOMMY_EXPECTS(node_count > 0);
  if (config_.staleness_budget.count() > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

MergeNode::~MergeNode() { stop(); }

bool MergeNode::connect(std::uint32_t node, const net::Endpoint& endpoint) {
  auto stream = net::dial(endpoint, config_.retry);
  if (stream == nullptr) return false;
  attach(node, std::move(stream));
  return true;
}

void MergeNode::attach(std::uint32_t node,
                       std::shared_ptr<net::ByteStream> stream) {
  TOMMY_EXPECTS(node < peers_.size());
  std::thread old_reader;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Peer& peer = peers_[node];
    TOMMY_EXPECTS(!peer.connected);
    old_reader = std::move(peer.reader);
    if (peer.stream) peer.stream->shutdown();
  }
  if (old_reader.joinable()) old_reader.join();
  std::lock_guard<std::mutex> lock(mutex_);
  Peer& peer = peers_[node];
  peer.stream = stream;
  peer.connected = true;
  peer.error = MergeError::kNone;
  // Unheard until the replayed announces land: the frontier pins the
  // gate at −infinity, never speculating past this peer.
  peer.next_safe = TimePoint(-std::numeric_limits<double>::infinity());
  peer.reader = std::thread(
      [this, node, stream = std::move(stream)]() mutable {
        reader_loop(node, std::move(stream));
      });
}

void MergeNode::reader_loop(std::uint32_t node,
                            std::shared_ptr<net::ByteStream> stream) {
  net::FrameDecoder decoder(config_.max_frame_bytes);
  std::vector<std::uint8_t> buffer(4096);
  for (;;) {
    const auto n = stream->read_some(buffer);
    if (!n.has_value()) {
      std::lock_guard<std::mutex> lock(mutex_);
      fail_locked(node, MergeError::kStreamError);
      cv_.notify_all();
      return;
    }
    if (*n == 0) {
      // Clean EOF (node stopped or is restarting): back to blocking
      // until a reconnect re-establishes the frontier.
      std::lock_guard<std::mutex> lock(mutex_);
      Peer& peer = peers_[node];
      peer.connected = false;
      peer.next_safe = TimePoint(-std::numeric_limits<double>::infinity());
      cv_.notify_all();
      return;
    }
    decoder.append(std::span<const std::uint8_t>(buffer.data(), *n));
    std::lock_guard<std::mutex> lock(mutex_);
    while (auto payload = decoder.next()) {
      auto message = net::decode(*payload);
      if (!message.has_value()) {
        fail_locked(node, MergeError::kMalformedFrame);
        cv_.notify_all();
        return;
      }
      handle_locked(node, std::move(*message));
      if (peers_[node].error != MergeError::kNone) {
        cv_.notify_all();
        return;
      }
    }
    if (decoder.error() != net::FrameError::kNone) {
      fail_locked(node, MergeError::kMalformedFrame);
      cv_.notify_all();
      return;
    }
    cv_.notify_all();
  }
}

void MergeNode::handle_locked(std::uint32_t node, net::WireMessage&& message) {
  Peer& peer = peers_[node];
  // Any decodable frame is a liveness signal, whatever its fate below.
  peer.heard = true;
  peer.stalled = false;
  peer.last_heard = std::chrono::steady_clock::now();
  if (auto* batch = std::get_if<net::OrderedBatch>(&message)) {
    if (batch->epoch < peer.epoch) {
      ++peer.stale;
      return;
    }
    peer.epoch = batch->epoch;
    if (batch->rank < peer.accepted) {
      // Replayed prefix of a restarted incarnation — bit-identical to
      // what was already accepted (determinism), so dropping loses
      // nothing.
      ++peer.duplicates;
      return;
    }
    if (batch->rank > peer.accepted) {
      fail_locked(node, MergeError::kRankGap);
      return;
    }
    ++peer.accepted;
    const core::MergeKey key = merge_key(*batch);
    holdback_.push(key, std::move(*batch));
    return;
  }
  if (auto* announce = std::get_if<net::SafeTimeAnnounce>(&message)) {
    if (announce->epoch < peer.epoch) {
      ++peer.stale;
      return;
    }
    peer.epoch = announce->epoch;
    peer.next_safe = announce->next_safe_time;
    ++peer.announces;
    return;
  }
  if (std::get_if<net::ReplayTruncated>(&message) != nullptr) {
    // The shard's retention cap dropped history this subscription
    // needed: a typed refusal, never a silent gap.
    fail_locked(node, MergeError::kReplayTruncated);
    return;
  }
  fail_locked(node, MergeError::kUnexpectedFrame);
}

void MergeNode::fail_locked(std::uint32_t node, MergeError error) {
  Peer& peer = peers_[node];
  if (peer.error == MergeError::kNone) peer.error = error;
  peer.connected = false;
  peer.stalled = false;
  peer.next_safe = TimePoint(-std::numeric_limits<double>::infinity());
  if (peer.stream) peer.stream->shutdown();
}

TimePoint MergeNode::gate_locked() const {
  TimePoint gate = TimePoint::infinite_future();
  for (const Peer& peer : peers_) {
    gate = std::min(gate, peer.next_safe);
  }
  return gate;
}

std::size_t MergeNode::release_locked(TimePoint gate, bool release_all) {
  const std::size_t before = released_.size();
  const std::size_t released = holdback_.release(
      gate, release_all,
      [this](const core::MergeKey&, net::OrderedBatch&& batch) {
        released_.push_back(std::move(batch));
      });
  if (released > 0) publish_released_locked(before);
  return released;
}

net::MergeWatermark MergeNode::watermark_locked() const {
  net::MergeWatermark watermark;
  watermark.released = released_.size();
  if (!released_.empty()) {
    const net::OrderedBatch& last = released_.back();
    watermark.node = last.node;
    watermark.rank = last.rank;
    watermark.safe_time = last.safe_time;
  }
  return watermark;
}

void MergeNode::publish_released_locked(std::size_t from) {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(released_.size() - from + 1);
  for (std::size_t i = from; i < released_.size(); ++i) {
    frames.push_back(net::encode_frame(net::WireMessage(released_[i])));
  }
  // One watermark per release round: the barrier a downstream consumer
  // checkpoints on ("everything up to this cursor has been delivered").
  frames.push_back(
      net::encode_frame(net::WireMessage(watermark_locked())));
  for (std::vector<std::uint8_t>& frame : frames) {
    for (auto it = downlink_subscribers_.begin();
         it != downlink_subscribers_.end();) {
      if ((*it)->write_all(frame)) {
        ++it;
      } else {
        (*it)->shutdown();
        it = downlink_subscribers_.erase(it);
      }
    }
    downlink_retained_.push_back(std::move(frame));
  }
}

void MergeNode::subscribe_downlink(std::shared_ptr<net::ByteStream> stream) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Replay the full released backlog under the same lock a concurrent
  // release would need: the subscriber's FIFO view starts at release
  // position 0 with no gap and no interleaving.
  for (const std::vector<std::uint8_t>& frame : downlink_retained_) {
    if (!stream->write_all(frame)) {
      stream->shutdown();
      return;
    }
  }
  // A fresh watermark even when nothing has been released yet — the
  // attach barrier a consumer can synchronize on.
  if (!stream->write_all(
          net::encode_frame(net::WireMessage(watermark_locked())))) {
    stream->shutdown();
    return;
  }
  downlink_subscribers_.push_back(std::move(stream));
}

void MergeNode::watchdog_loop() {
  const auto interval = config_.watchdog_interval.count() > 0
                            ? config_.watchdog_interval
                            : std::max(config_.staleness_budget / 4,
                                       std::chrono::milliseconds(1));
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    cv_.wait_for(lock, interval, [this] { return stopping_; });
    if (stopping_) return;
    const auto now = std::chrono::steady_clock::now();
    for (Peer& peer : peers_) {
      if (peer.connected && peer.heard && !peer.stalled
          && now - peer.last_heard > config_.staleness_budget) {
        // Surface only: the peer keeps its last announced frontier and
        // the gate stays pinned there — stalling is never license to
        // speculate past an unheard frontier.
        peer.stalled = true;
      }
    }
  }
}

std::size_t MergeNode::release() {
  std::lock_guard<std::mutex> lock(mutex_);
  return release_locked(gate_locked(), /*release_all=*/false);
}

std::size_t MergeNode::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  return release_locked(TimePoint::infinite_future(), /*release_all=*/true);
}

std::vector<net::OrderedBatch> MergeNode::released() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return released_;
}

std::size_t MergeNode::released_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return released_.size();
}

std::size_t MergeNode::held_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return holdback_.size();
}

TimePoint MergeNode::gate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return gate_locked();
}

net::MergeWatermark MergeNode::watermark() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return watermark_locked();
}

std::size_t MergeNode::downlink_subscriber_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return downlink_subscribers_.size();
}

MergePeerStats MergeNode::peer(std::uint32_t node) const {
  TOMMY_EXPECTS(node < peers_.size());
  std::lock_guard<std::mutex> lock(mutex_);
  const Peer& peer = peers_[node];
  MergePeerStats stats;
  stats.connected = peer.connected;
  stats.epoch = peer.epoch;
  stats.accepted = peer.accepted;
  stats.duplicates = peer.duplicates;
  stats.stale = peer.stale;
  stats.announces = peer.announces;
  stats.next_safe = peer.next_safe;
  stats.error = peer.error;
  stats.stalled = peer.stalled;
  if (!peer.connected) {
    stats.state = MergePeerState::kDisconnected;
  } else if (!peer.heard) {
    stats.state = MergePeerState::kNeverHeard;
  } else if (peer.stalled) {
    stats.state = MergePeerState::kPeerStalled;
  } else {
    stats.state = MergePeerState::kLive;
  }
  if (peer.heard) {
    stats.since_heard_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - peer.last_heard)
            .count();
  }
  return stats;
}

bool MergeNode::wait_for_announces(std::uint32_t node, std::uint64_t n,
                                   int timeout_ms) {
  TOMMY_EXPECTS(node < peers_.size());
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [&] { return peers_[node].announces >= n; });
}

void MergeNode::stop() {
  downlink_.stop();
  std::thread watchdog;
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    cv_.notify_all();
    for (Peer& peer : peers_) {
      if (peer.stream) peer.stream->shutdown();
      if (peer.reader.joinable()) readers.push_back(std::move(peer.reader));
    }
    for (const auto& stream : downlink_subscribers_) stream->shutdown();
    downlink_subscribers_.clear();
    watchdog = std::move(watchdog_);
  }
  if (watchdog.joinable()) watchdog.join();
  for (std::thread& reader : readers) reader.join();
}

}  // namespace tommy::dist
