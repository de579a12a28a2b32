#include "dist/merge_subscriber.hpp"

#include <chrono>
#include <span>
#include <utility>
#include <variant>

#include "common/check.hpp"
#include "dist/merge_node.hpp"
#include "net/framing.hpp"

namespace tommy::dist {

const char* to_string(SubscriberError error) {
  switch (error) {
    case SubscriberError::kNone:
      return "none";
    case SubscriberError::kOrderViolation:
      return "order violation";
    case SubscriberError::kMalformedFrame:
      return "malformed frame";
    case SubscriberError::kUnexpectedFrame:
      return "unexpected frame";
  }
  return "unknown";
}

MergeSubscriber::MergeSubscriber(MergeSubscriberConfig config)
    : config_(std::move(config)) {
  TOMMY_EXPECTS(!config_.endpoints.empty());
}

MergeSubscriber::~MergeSubscriber() { stop(); }

void MergeSubscriber::start() {
  TOMMY_EXPECTS(!started_);
  started_ = true;
  consumer_ = std::thread([this] { run(); });
}

void MergeSubscriber::stop() {
  std::thread consumer;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    if (stream_) stream_->shutdown();
    consumer = std::move(consumer_);
    cv_.notify_all();
  }
  if (consumer.joinable()) consumer.join();
}

void MergeSubscriber::run() {
  bool attached_once = false;
  std::size_t index = 0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    const NodeAddress& address =
        config_.endpoints[index % config_.endpoints.size()];
    auto stream = net::dial(address, config_.retry);
    if (stream == nullptr) {
      // This endpoint's budget ran dry (still down, or never came back).
      // Move on — the cycle retries it after the others.
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.failed_dials;
      cv_.notify_all();
      if (stopping_) return;
      ++index;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        stream->shutdown();
        return;
      }
      stream_ = stream;
      stats_.connected = true;
      stats_.endpoint =
          static_cast<std::uint32_t>(index % config_.endpoints.size());
      if (attached_once) ++stats_.cutovers;
      attached_once = true;
      // Everything at or below this cursor is the replica's replayed
      // prefix — bit-identical to what we already consumed (the release
      // sequence is deterministic), so it drops as duplicate.
      attach_cursor_ = cursor_;
      cv_.notify_all();
    }
    const bool healthy = consume(stream);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.connected = false;
      stream_.reset();
      cv_.notify_all();
      if (!healthy || stopping_) return;
    }
    // Transport death (merge killed, downlink stopped): cut over to the
    // next endpoint in the cycle and resume from our watermark.
    ++index;
  }
}

bool MergeSubscriber::consume(const std::shared_ptr<net::ByteStream>& stream) {
  net::FrameDecoder decoder(config_.max_frame_bytes);
  std::vector<std::uint8_t> buffer(4096);
  for (;;) {
    const auto n = stream->read_some(buffer);
    if (!n.has_value() || *n == 0) return true;
    decoder.append(std::span<const std::uint8_t>(buffer.data(), *n));
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return true;
    while (auto payload = decoder.next()) {
      auto message = net::decode(*payload);
      if (!message.has_value()) {
        if (stats_.error == SubscriberError::kNone) {
          stats_.error = SubscriberError::kMalformedFrame;
        }
        stream->shutdown();
        cv_.notify_all();
        return false;
      }
      if (!handle_locked(std::move(*message))) {
        stream->shutdown();
        cv_.notify_all();
        return false;
      }
    }
    if (decoder.error() != net::FrameError::kNone) {
      if (stats_.error == SubscriberError::kNone) {
        stats_.error = SubscriberError::kMalformedFrame;
      }
      stream->shutdown();
      cv_.notify_all();
      return false;
    }
    cv_.notify_all();
  }
}

bool MergeSubscriber::handle_locked(net::WireMessage&& message) {
  if (auto* batch = std::get_if<net::OrderedBatch>(&message)) {
    // Cursor comparisons are release-position comparisons: the merge
    // released in MergeKey order.
    const core::MergeKey key = merge_key(*batch);
    if (attach_cursor_.released > 0 && key <= merge_key(attach_cursor_)) {
      // The replayed prefix at or below the attach watermark.
      ++stats_.duplicates;
      return true;
    }
    if (!released_.empty() && key <= merge_key(cursor_)) {
      // Above the attach watermark yet not above our cursor: this
      // replica's release order disagrees with what we already consumed.
      // Terminal — cutting over from corrupt data would launder it.
      stats_.error = SubscriberError::kOrderViolation;
      return false;
    }
    cursor_.node = batch->node;
    cursor_.rank = batch->rank;
    cursor_.safe_time = batch->safe_time;
    released_.push_back(std::move(*batch));
    cursor_.released = released_.size();
    return true;
  }
  if (auto* watermark = std::get_if<net::MergeWatermark>(&message)) {
    ++stats_.watermarks;
    if (watermark->released < released_.size()) {
      // A replayed barrier behind our cursor (normal during cutover).
      ++stats_.stale_watermarks;
    } else if (watermark->released > released_.size()) {
      // The replica claims more releases than this FIFO stream delivered
      // to us: records were lost ahead of their barrier.
      stats_.error = SubscriberError::kOrderViolation;
      return false;
    }
    return true;
  }
  stats_.error = SubscriberError::kUnexpectedFrame;
  return false;
}

std::vector<net::OrderedBatch> MergeSubscriber::released() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return released_;
}

std::size_t MergeSubscriber::released_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return released_.size();
}

net::MergeWatermark MergeSubscriber::watermark() const {
  std::lock_guard<std::mutex> lock(mutex_);
  net::MergeWatermark watermark = cursor_;
  watermark.released = released_.size();
  return watermark;
}

MergeSubscriberStats MergeSubscriber::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool MergeSubscriber::wait_for_released(std::size_t n, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [&] { return released_.size() >= n; });
}

bool MergeSubscriber::wait_for_watermarks(std::uint64_t n, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [&] { return stats_.watermarks >= n; });
}

}  // namespace tommy::dist
