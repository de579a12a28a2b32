#include "dist/shard_node.hpp"

#include <chrono>
#include <utility>

#include "common/check.hpp"
#include "net/framing.hpp"

namespace tommy::dist {

namespace {

core::ServiceConfig service_config_for(const ShardNodeConfig& config) {
  core::ServiceConfig service;
  service.online = config.online;
  // One shard, sequential: the node IS the shard; cross-shard arbitration
  // lives at the merge tier.
  service.shard_count = 1;
  return service;
}

net::ServerConfig server_config_for(const ShardNodeConfig& config) {
  net::ServerConfig server;
  server.frontend = config.frontend;
  server.frontend.accept_new_clients = true;
  return server;
}

}  // namespace

ShardNode::ShardNode(core::ClientRegistry& registry,
                     std::vector<ClientId> expected, ShardNodeConfig config)
    : config_(std::move(config)),
      service_(registry, std::move(expected), service_config_for(config_)),
      server_(registry, service_, server_config_for(config_)),
      uplink_([this](std::shared_ptr<net::ByteStream> stream) {
        subscribe(std::move(stream));
      }) {}

ShardNode::~ShardNode() { stop(); }

std::size_t ShardNode::pump(TimePoint now) {
  return pump_impl(now, /*flush_all=*/false);
}

std::size_t ShardNode::pump_flush(TimePoint now) {
  return pump_impl(now, /*flush_all=*/true);
}

TimePoint ShardNode::pump_now() const {
  return config_.pump_clock ? config_.pump_clock() : net::system_clock_now();
}

void ShardNode::start_pump() {
  TOMMY_EXPECTS(config_.pump_interval.count() > 0);
  std::lock_guard<std::mutex> lock(pump_mutex_);
  TOMMY_EXPECTS(!pump_running_);
  pump_running_ = true;
  pump_stopping_ = false;
  pump_thread_ = std::thread([this] { pump_loop(); });
}

void ShardNode::pump_loop() {
  std::unique_lock<std::mutex> lock(pump_mutex_);
  while (!pump_stopping_) {
    pump_cv_.wait_for(lock, config_.pump_interval,
                      [this] { return pump_stopping_; });
    if (pump_stopping_) return;
    lock.unlock();
    pump(pump_now());
    lock.lock();
  }
}

void ShardNode::stop_pump() {
  std::thread pump_thread;
  {
    std::lock_guard<std::mutex> lock(pump_mutex_);
    if (!pump_running_) return;
    pump_stopping_ = true;
    pump_cv_.notify_all();
    pump_thread = std::move(pump_thread_);
  }
  if (pump_thread.joinable()) pump_thread.join();
  {
    std::lock_guard<std::mutex> lock(pump_mutex_);
    pump_running_ = false;
  }
  // The thread is gone, so this flush cannot race it — held batches and
  // one infinite-frontier announce drain to the uplink.
  pump_flush(pump_now());
}

bool ShardNode::pump_running() const {
  std::lock_guard<std::mutex> lock(pump_mutex_);
  return pump_running_;
}

std::size_t ShardNode::pump_impl(TimePoint now, bool flush_all) {
  std::lock_guard<std::mutex> pump_lock(pump_call_mutex_);
  std::vector<core::EmissionRecord> records;
  auto collect = [&records](core::EmissionRecord&& record, std::uint32_t) {
    records.push_back(std::move(record));
  };
  core::CallbackSink<decltype(collect)> sink(collect);
  TimePoint next_safe = TimePoint::infinite_future();
  net::PumpOptions options;
  options.sink = &sink;
  options.flush = flush_all;
  options.next_safe_after = &next_safe;
  const std::size_t emitted = server_.frontend().pump(now, options);

  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(records.size() + 1);
  for (core::EmissionRecord& record : records) {
    net::OrderedBatch batch;
    batch.node = config_.node;
    batch.epoch = config_.epoch;
    batch.rank = record.batch.rank;
    batch.safe_time = record.safe_time;
    batch.emitted_at = record.emitted_at;
    batch.messages.reserve(record.batch.messages.size());
    for (const core::Message& m : record.batch.messages) {
      batch.messages.push_back(
          net::OrderedBatch::Entry{m.client, m.id, m.stamp, m.arrival});
    }
    frames.push_back(net::encode_frame(net::WireMessage(std::move(batch))));
  }
  frames.push_back(net::encode_frame(net::WireMessage(
      net::SafeTimeAnnounce{config_.node, config_.epoch, next_safe})));
  publish(std::move(frames));
  return emitted;
}

void ShardNode::publish(std::vector<std::vector<std::uint8_t>>&& frames) {
  std::lock_guard<std::mutex> lock(uplink_mutex_);
  for (std::vector<std::uint8_t>& frame : frames) {
    for (auto it = subscribers_.begin(); it != subscribers_.end();) {
      if ((*it)->write_all(frame)) {
        ++it;
      } else {
        (*it)->shutdown();
        it = subscribers_.erase(it);
      }
    }
    retained_.push_back(std::move(frame));
    // Sliding-window retention: attached subscribers already consumed
    // the truncated frames, and later subscribers are refused (below) —
    // the FIFO-from-zero replay contract is never silently broken.
    if (config_.replay_retention_cap > 0
        && retained_.size() > config_.replay_retention_cap) {
      retained_.pop_front();
      ++truncated_;
    }
  }
  ++announces_;
}

void ShardNode::subscribe(std::shared_ptr<net::ByteStream> stream) {
  std::lock_guard<std::mutex> lock(uplink_mutex_);
  // A subscriber attaching after truncation cannot be given the frames
  // the rank dedup needs (FIFO replay from rank zero): refuse with a
  // typed frame instead of handing it a stream with a silent gap.
  if (truncated_ > 0) {
    const std::vector<std::uint8_t> refusal = net::encode_frame(
        net::WireMessage(net::ReplayTruncated{config_.node, config_.epoch,
                                              truncated_}));
    (void)stream->write_all(refusal);
    stream->shutdown();
    return;
  }
  // Replay the full retained backlog first, under the same lock a
  // concurrent pump would need — the subscriber's FIFO view starts at
  // frame 0 with no gap and no interleaving.
  for (const std::vector<std::uint8_t>& frame : retained_) {
    if (!stream->write_all(frame)) {
      stream->shutdown();
      return;
    }
  }
  subscribers_.push_back(std::move(stream));
}

void ShardNode::stop() {
  stop_pump();
  uplink_.stop();
  server_.stop();
  std::lock_guard<std::mutex> lock(uplink_mutex_);
  for (const auto& stream : subscribers_) stream->shutdown();
  subscribers_.clear();
}

std::size_t ShardNode::subscriber_count() const {
  std::lock_guard<std::mutex> lock(uplink_mutex_);
  return subscribers_.size();
}

std::size_t ShardNode::frames_retained() const {
  std::lock_guard<std::mutex> lock(uplink_mutex_);
  return retained_.size();
}

std::uint64_t ShardNode::frames_truncated() const {
  std::lock_guard<std::mutex> lock(uplink_mutex_);
  return truncated_;
}

std::uint64_t ShardNode::announces_published() const {
  std::lock_guard<std::mutex> lock(uplink_mutex_);
  return announces_;
}

}  // namespace tommy::dist
