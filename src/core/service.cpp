#include "core/service.hpp"

#include <algorithm>
#include <mutex>
#include <thread>

#include "common/check.hpp"

namespace tommy::core {

const char* to_string(OpenError error) {
  switch (error) {
    case OpenError::kNone:
      return "none";
    case OpenError::kUnknownClient:
      return "unknown client";
    case OpenError::kRegistryChanged:
      return "reconfig pending; retry after install";
  }
  return "unknown";
}

// ── Routers ─────────────────────────────────────────────────────────────

RangeRouter::RangeRouter(ClientId lo, ClientId hi)
    : lo_(lo.value()),
      span_(static_cast<std::uint64_t>(hi.value()) - lo.value() + 1) {
  TOMMY_EXPECTS(lo <= hi);
}

std::uint32_t RangeRouter::route(ClientId client,
                                 std::uint32_t shard_count) const {
  TOMMY_EXPECTS(shard_count > 0);
  const std::uint64_t id = client.value();
  if (id < lo_) return 0;
  const std::uint64_t offset = id - lo_;
  if (offset >= span_) return shard_count - 1;
  // Equal-width ranges: shard = ⌊offset · n / span⌋ < n.
  return static_cast<std::uint32_t>(offset * shard_count / span_);
}

std::uint32_t ModuloRouter::route(ClientId client,
                                  std::uint32_t shard_count) const {
  TOMMY_EXPECTS(shard_count > 0);
  return client.value() % shard_count;
}

// ── Service ─────────────────────────────────────────────────────────────

FairOrderingService::FairOrderingService(
    const ClientRegistry& registry, std::vector<ClientId> expected_clients,
    ServiceConfig config)
    : registry_(registry),
      router_(std::move(config.router)),
      online_config_(config.online),
      drain_policy_(config.drain_policy) {
  TOMMY_EXPECTS(config.shard_count > 0);
  TOMMY_EXPECTS(!expected_clients.empty());

  if (!router_) {
    ClientId lo = expected_clients.front();
    ClientId hi = expected_clients.front();
    for (ClientId c : expected_clients) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    router_ = std::make_shared<RangeRouter>(lo, hi);
  }

  // One engine for every shard, primed once; its derived tables are a
  // function of the registry alone, so every shard reads the same data.
  // No fast_* query writes anything, and no shard re-primes a shared
  // engine, so the shards and the reconfig primer read the tables with no
  // synchronization.
  // Shards take up an announce only at an install, so the live epoch's
  // generation is the one its tables were built at: an announce racing
  // this prime stays pending.
  auto engine = std::make_shared<PrecedingEngine>(registry,
                                                  config.online.preceding);
  engine->prime(config.online.threshold, config.online.p_safe);
  primed_generation_ = engine->fast_generation();
  engine_ = engine;

  // Static partition: route once per expected client, preserving the
  // caller's order within each shard (so a 1-shard service sees exactly
  // the same expected-client vector as a bare sequencer would).
  std::vector<std::vector<ClientId>> partition(config.shard_count);
  for (ClientId c : expected_clients) {
    const std::uint32_t s = router_->route(c, config.shard_count);
    TOMMY_EXPECTS(s < config.shard_count);
    if (shard_by_client_.emplace(c, s).second) {
      partition[s].push_back(c);
    }
  }

  shards_.resize(config.shard_count);
  for (std::uint32_t s = 0; s < config.shard_count; ++s) {
    if (partition[s].empty()) continue;  // unpopulated shard
    // Shards never re-prime the shared engine; a registry change reaches
    // them only through an install's rebind_engine.
    shards_[s] = std::make_unique<OnlineSequencer>(
        engine_, std::move(partition[s]), config.online);
  }
}

FairOrderingService::~FairOrderingService() { join_primer(); }

std::optional<FairOrderingService::Session>
FairOrderingService::try_open_session(ClientId client, OpenError* error) {
  auto report = [error](OpenError e) {
    if (error != nullptr) *error = e;
  };
  // Known clients always open: a re-announce does not freeze the service
  // — sessions revalidate their cached offsets by generation, and the
  // epoch swap happens at an install behind them.
  if (expects_client(client)) {
    report(OpenError::kNone);
    return open_session(client);
  }
  // Unknown here, but queued to join at the next install: tell the caller
  // to retry once the reconfig lands (wire front-ends surface this as
  // ReconfigPending).
  {
    std::lock_guard<std::mutex> lock(reconfig_.mutex);
    const auto& pending = reconfig_.pending_clients;
    if (std::find(pending.begin(), pending.end(), client) != pending.end()) {
      report(OpenError::kRegistryChanged);
      return std::nullopt;
    }
  }
  report(OpenError::kUnknownClient);
  return std::nullopt;
}

FairOrderingService::Session FairOrderingService::open_session(
    ClientId client) {
  const std::uint32_t s = shard_of(client);
  Session session;
  session.inner_ = shards_[s]->open_session(client);
  session.client_ = client;
  session.shard_ = s;
  return session;
}

std::uint32_t FairOrderingService::shard_of(ClientId client) const {
  std::shared_lock<std::shared_mutex> lock(topology_mutex_);
  const auto it = shard_by_client_.find(client);
  TOMMY_EXPECTS(it != shard_by_client_.end());  // unknown clients are a
                                                // config error
  return it->second;
}

bool FairOrderingService::expects_client(ClientId client) const {
  std::shared_lock<std::shared_mutex> lock(topology_mutex_);
  return shard_by_client_.contains(client);
}

bool FairOrderingService::has_shard(std::uint32_t index) const {
  std::shared_lock<std::shared_mutex> lock(topology_mutex_);
  return index < shards_.size() && shards_[index] != nullptr;
}

const PrecedingEngine& FairOrderingService::engine() const {
  std::shared_lock<std::shared_mutex> lock(topology_mutex_);
  return *engine_;
}

std::size_t FairOrderingService::drain(TimePoint now, bool flush_all,
                                       EmissionSink& sink) {
  if (drain_policy_ == DrainPolicy::kShardLocal) {
    std::size_t emitted = 0;
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      if (!shards_[s]) continue;
      emitted += flush_all ? shards_[s]->flush(now, sink, s)
                           : shards_[s]->poll(now, sink, s);
    }
    return emitted;
  }
  // Global merge: collect into the holdback, then release what the gate
  // allows.
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]) continue;
    auto collect = [this, s](EmissionRecord&& record, std::uint32_t) {
      const MergeKey key{record.safe_time, s, record.batch.rank};
      holdback_.push(key, std::move(record));
    };
    CallbackSink<decltype(collect)> collector(collect);
    if (flush_all) {
      shards_[s]->flush(now, collector, s);
    } else {
      shards_[s]->poll(now, collector, s);
    }
  }
  // Strictly earlier than every shard's next pending batch. This is the
  // best gate the shards can offer, not an absolute one — rank-blocked
  // batches and stragglers landing on currently-empty shards can still
  // emit behind records released here (both caveats documented on
  // DrainPolicy, both bounded by the p_safe machinery).
  return holdback_.release(
      next_safe_time(), flush_all,
      [&sink](const MergeKey& key, EmissionRecord&& record) {
        sink.on_emission(std::move(record), key.source);
      });
}

std::size_t FairOrderingService::poll(TimePoint now, EmissionSink& sink) {
  return drain(now, /*flush_all=*/false, sink);
}

std::size_t FairOrderingService::flush(TimePoint now, EmissionSink& sink) {
  return drain(now, /*flush_all=*/true, sink);
}

TimePoint FairOrderingService::next_safe_time() const {
  TimePoint earliest = TimePoint::infinite_future();
  for (const auto& shard : shards_) {
    if (shard) earliest = std::min(earliest, shard->next_safe_time());
  }
  return earliest;
}

TimePoint FairOrderingService::next_safe_time(std::uint32_t shard) const {
  TOMMY_EXPECTS(shard < shards_.size());
  const auto& seq = shards_[shard];
  return seq ? seq->next_safe_time() : TimePoint::infinite_future();
}

std::size_t FairOrderingService::pending_count() const {
  std::size_t pending = 0;
  for (const auto& shard : shards_) {
    if (shard) pending += shard->pending_count();
  }
  return pending;
}

std::size_t FairOrderingService::fairness_violations() const {
  std::size_t violations = 0;
  for (const auto& shard : shards_) {
    if (shard) violations += shard->fairness_violations();
  }
  return violations;
}

std::size_t FairOrderingService::held_back_count() const {
  std::size_t messages = 0;
  for (const auto& held : holdback_) {
    messages += held.record.batch.messages.size();
  }
  return messages;
}

// ── Live reconfiguration ────────────────────────────────────────────────

void FairOrderingService::expect_client(ClientId client) {
  TOMMY_EXPECTS(registry_.contains(client));  // announce first, then join
  if (expects_client(client)) return;
  std::lock_guard<std::mutex> lock(reconfig_.mutex);
  auto& pending = reconfig_.pending_clients;
  if (std::find(pending.begin(), pending.end(), client) == pending.end()) {
    pending.push_back(client);
  }
}

bool FairOrderingService::reconfig_pending() const {
  if (registry_.generation() != primed_generation()) return true;
  std::lock_guard<std::mutex> lock(reconfig_.mutex);
  return !reconfig_.pending_clients.empty();
}

void FairOrderingService::join_primer() {
  std::thread primer;
  {
    std::lock_guard<std::mutex> lock(reconfig_.mutex);
    primer.swap(reconfig_.primer);
  }
  if (primer.joinable()) primer.join();
}

void FairOrderingService::start_prime_locked() {
  TOMMY_ASSERT(!reconfig_.priming);
  // The previous primer (if any) already left its critical section
  // (priming is false), so joining the handle under the mutex is safe.
  if (reconfig_.primer.joinable()) reconfig_.primer.join();
  reconfig_.priming = true;
  reconfig_.ready.store(false, std::memory_order_release);
  reconfig_.staged.reset();
  reconfig_.primer = std::thread([this] {
    // Derive from the live epoch: the successor copies its tables and
    // convolves only the pairs of joined or re-announced clients. No
    // sequencer primes a shared engine, so reading it here races nothing.
    // The prime records the generation at build START, so a prime torn
    // by a concurrent announce reads as stale here and derives again.
    std::shared_ptr<PrecedingEngine> engine;
    {
      std::shared_lock<std::shared_mutex> topo(topology_mutex_);
      engine = engine_->successor();
    }
    do {
      engine->prime(online_config_.threshold, online_config_.p_safe);
    } while (engine->fast_generation() != registry_.generation());
    std::lock_guard<std::mutex> lock(reconfig_.mutex);
    reconfig_.staged = std::move(engine);
    reconfig_.priming = false;
    reconfig_.ready.store(true, std::memory_order_release);
  });
}

std::uint64_t FairOrderingService::request_reconfig() {
  const std::uint64_t target = registry_.generation();
  std::lock_guard<std::mutex> lock(reconfig_.mutex);
  if (reconfig_.pending_clients.empty() && target == primed_generation()) {
    return target;  // caught up; nothing to stage
  }
  if (!reconfig_.priming &&
      !reconfig_.ready.load(std::memory_order_acquire)) {
    start_prime_locked();
  }
  return target;
}

bool FairOrderingService::try_install_reconfig() {
  std::shared_ptr<const PrecedingEngine> staged;
  std::vector<ClientId> joins;
  {
    std::lock_guard<std::mutex> lock(reconfig_.mutex);
    if (!reconfig_.ready.load(std::memory_order_acquire)) return false;
    // Exactly-once handoff: whoever clears `ready` owns the install.
    reconfig_.ready.store(false, std::memory_order_relaxed);
    staged = std::move(reconfig_.staged);
    reconfig_.staged.reset();
    if (staged->fast_generation() != registry_.generation()) {
      // An announce landed after the prime finished: stage again.
      start_prime_locked();
      return false;
    }
    joins = std::move(reconfig_.pending_clients);
    reconfig_.pending_clients.clear();
  }
  install_staged(std::move(staged), std::move(joins));
  return true;
}

void FairOrderingService::install_staged(
    std::shared_ptr<const PrecedingEngine> staged,
    std::vector<ClientId> joins) {
  const auto shard_total = static_cast<std::uint32_t>(shards_.size());
  // Route the joining clients. Callers serialize installs, and only
  // installs write the topology, so the unlocked read here races
  // nothing.
  std::vector<std::vector<ClientId>> added(shard_total);
  std::vector<std::pair<ClientId, std::uint32_t>> new_routes;
  for (ClientId c : joins) {
    if (shard_by_client_.contains(c)) continue;  // lost a re-queue race
    const std::uint32_t s = router_->route(c, shard_total);
    TOMMY_EXPECTS(s < shard_total);
    added[s].push_back(c);
    new_routes.emplace_back(c, s);
  }

  // Rebind in place. Callers serialize the install with ingest exactly as
  // they serialize poll/flush; the unique lock keeps topology readers on
  // other threads on one side of the swap: they see the old epoch or the
  // new one, never a mix.
  std::unique_lock<std::shared_mutex> topo(topology_mutex_);
  for (std::uint32_t s = 0; s < shard_total; ++s) {
    if (shards_[s]) {
      shards_[s]->rebind_engine(staged, added[s]);
    } else if (!added[s].empty()) {
      shards_[s] = std::make_unique<OnlineSequencer>(staged, added[s],
                                                     online_config_);
    }
  }
  engine_ = staged;
  for (const auto& [c, s] : new_routes) shard_by_client_.emplace(c, s);
  primed_generation_.store(staged->fast_generation(),
                           std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void FairOrderingService::reconfigure() {
  while (reconfig_pending()) {
    request_reconfig();
    join_primer();  // wait for the staged engine
    try_install_reconfig();
  }
}

void FairOrderingService::close_session(Session& session) {
  shards_[session.shard_]->retire_client(session.client_);
}

const OnlineSequencer& FairOrderingService::shard(std::uint32_t index) const {
  TOMMY_EXPECTS(has_shard(index));
  return *shards_[index];
}

OnlineSequencer& FairOrderingService::shard(std::uint32_t index) {
  TOMMY_EXPECTS(has_shard(index));
  return *shards_[index];
}

}  // namespace tommy::core
