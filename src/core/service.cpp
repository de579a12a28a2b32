#include "core/service.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <thread>

#include "common/check.hpp"
#include "common/spsc_ring.hpp"

namespace tommy::core {

namespace {

/// One ring element: a submit, a heartbeat, or a retirement, as data. The
/// lane preserves per-session FIFO; cross-lane order is reconstructed
/// nowhere (it does not matter — see Session::submit_relaxed in
/// online_sequencer.hpp).
struct IngestOp {
  enum class Kind : std::uint8_t { kSubmit, kHeartbeat, kRetire };
  Kind kind{Kind::kSubmit};
  TimePoint stamp{};    // submit: message stamp; heartbeat: local stamp
  MessageId id{};       // submit only
  TimePoint arrival{};  // sequencer clock (`now`)
};

/// Empty drain rounds a worker spins through before parking on its
/// wake epoch. Parking costs a futex round trip on the next wake; the
/// spin keeps bursty producers off that path.
constexpr int kSpinRoundsBeforePark = 256;
/// Ring ops a worker applies per lane per drain round (bounds the scratch
/// buffer; fairness across a shard's lanes).
constexpr std::size_t kDrainBudget = 256;

}  // namespace

// ── Threaded-mode plumbing ──────────────────────────────────────────────

struct FairOrderingService::IngestLane {
  SpscRing<IngestOp> ring;
  ClientId client;
  ShardWorker* worker;  // for the producer-side wake
  /// Consumer-side shard session; opened BY THE WORKER when it adopts the
  /// lane (open_session touches sequencer state, which belongs to the
  /// worker thread in threaded mode).
  OnlineSequencer::Session inner{};
  bool adopted{false};

  IngestLane(std::size_t capacity, ClientId c, ShardWorker* w)
      : ring(capacity), client(c), worker(w) {}
};

struct FairOrderingService::ShardWorker {
  OnlineSequencer* shard{nullptr};
  std::uint32_t shard_index{0};

  // Lane registry: producers register under the mutex and bump the
  // version; the worker re-snapshots its lane cache when the version
  // moves, so steady-state drains run lock-free over raw pointers.
  std::mutex lanes_mutex;
  std::vector<std::unique_ptr<IngestLane>> lanes;
  std::atomic<std::uint64_t> lanes_version{0};
  std::vector<IngestLane*> lane_cache;
  std::uint64_t lane_cache_version{0};

  // Wake protocol (eventcount): a producer that observes `sleeping` after
  // its push bumps the epoch and notifies; the worker re-checks its rings
  // between advertising sleep and waiting, with seq_cst fences closing
  // the store/load race on both sides.
  std::atomic<std::uint32_t> wake_epoch{0};
  std::atomic<bool> sleeping{false};

  // Command mailbox (poll/flush/barrier/rebind). The service serializes
  // callers (Threading::control), so at most one command is in flight per
  // worker: the caller writes the plain fields, then publishes with a
  // release store of cmd_seq; the worker acknowledges with a release
  // store of ack_seq after writing its plain reply fields.
  enum class Cmd : std::uint8_t { kPoll, kFlush, kBarrier, kRebind };
  Cmd cmd{Cmd::kBarrier};
  TimePoint cmd_now{};
  // kRebind payload: the staged epoch's engine, plus clients newly routed
  // to this shard. Written by the installer before publishing cmd_seq;
  // consumed (and cleared) by the worker at its quiesce point, so the
  // rebind touches sequencer state only on the owning thread.
  std::shared_ptr<const PrecedingEngine> rebind_target;
  std::vector<ClientId> rebind_clients;
  std::atomic<std::uint64_t> cmd_seq{0};
  std::atomic<std::uint64_t> ack_seq{0};
  // Shard-state snapshots taken at every command ack. The service's
  // threaded-mode accessors read ONLY these (under Threading::control,
  // after the ack) — never the live sequencer, which the worker may
  // already be mutating again for ops enqueued after the command.
  TimePoint reported_next_safe{TimePoint::infinite_future()};
  std::size_t reported_pending{0};
  std::size_t reported_violations{0};

  // Emission queue: the worker parks records here (in rank order); the
  // polling thread swaps them out after the ack. A mutex, not a ring —
  // it is touched once per emitted batch, not once per message.
  std::mutex emissions_mutex;
  std::vector<EmissionRecord> emissions;

  std::atomic<bool> stop{false};
  std::thread thread;

  // Worker-local scratch, reused across drain rounds.
  std::vector<IngestOp> ops;
  std::vector<Submission> batch;

  void wake() {
    wake_epoch.fetch_add(1, std::memory_order_release);
    wake_epoch.notify_all();
  }

  /// Producer side: enqueue with backpressure (a full ring spins until
  /// the worker catches up — bounded memory beats unbounded queues under
  /// overload).
  void push(IngestLane& lane, IngestOp op) {
    while (!lane.ring.try_push(std::move(op))) {
      wake();
      std::this_thread::yield();
    }
    // Dekker handshake with the worker's park path: either this fence
    // makes our push visible to its pre-park re-check, or we observe
    // sleeping==true and wake it.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (sleeping.load(std::memory_order_relaxed)) wake();
  }

  /// Nonblocking producer side for event-driven front-ends: a full ring
  /// returns false instead of spinning (the worker is still woken, so the
  /// caller's retry finds room soon). Success runs the same Dekker
  /// handshake as push().
  bool try_push(IngestLane& lane, IngestOp op) {
    if (!lane.ring.try_push(std::move(op))) {
      wake();
      return false;
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (sleeping.load(std::memory_order_relaxed)) wake();
    return true;
  }

  void refresh_lane_cache() {
    const std::uint64_t version =
        lanes_version.load(std::memory_order_acquire);
    if (version == lane_cache_version) return;
    std::lock_guard<std::mutex> lock(lanes_mutex);
    lane_cache.clear();
    for (const auto& lane : lanes) lane_cache.push_back(lane.get());
    lane_cache_version = lanes_version.load(std::memory_order_relaxed);
    for (IngestLane* lane : lane_cache) {
      if (!lane->adopted) {
        lane->inner = shard->open_session(lane->client);
        lane->adopted = true;
      }
    }
  }

  /// Pops up to `max` ops from `lane` and applies them. Runs of
  /// consecutive submits apply through the batched (relaxed) session
  /// surface. Returns the number of ops applied (0: lane was empty).
  std::size_t drain_lane(IngestLane* lane, std::size_t max) {
    ops.clear();
    const std::size_t got = lane->ring.pop_bulk(ops, max);
    if (got == 0) return 0;
    std::size_t i = 0;
    const std::size_t n = ops.size();
    while (i < n) {
      if (ops[i].kind == IngestOp::Kind::kHeartbeat) {
        lane->inner.heartbeat(ops[i].stamp, ops[i].arrival);
        ++i;
        continue;
      }
      if (ops[i].kind == IngestOp::Kind::kRetire) {
        // FIFO through the lane: everything the departing session
        // enqueued before closing has already been applied above.
        shard->retire_client(lane->client);
        ++i;
        continue;
      }
      batch.clear();
      while (i < n && ops[i].kind == IngestOp::Kind::kSubmit) {
        batch.push_back(Submission{ops[i].stamp, ops[i].id, ops[i].arrival});
        ++i;
      }
      lane->inner.submit_batch_relaxed(std::span<const Submission>(batch));
    }
    return got;
  }

  /// One drain round: applies up to kDrainBudget ops per lane. Returns
  /// whether anything was applied. Bails between lanes when a command
  /// lands (`handled` is the last acknowledged cmd_seq): a full round is
  /// up to lanes × kDrainBudget ops, and per-op cost degrades with
  /// buffer depth, so checking only between rounds lets a backlogged
  /// shard keep a poll or an epoch swap waiting for the whole round.
  /// Bailing early is safe — the command prologue (drain_visible)
  /// re-covers whatever this round left in the rings.
  bool drain_round(std::uint64_t handled) {
    refresh_lane_cache();
    bool any = false;
    for (IngestLane* lane : lane_cache) {
      if (cmd_seq.load(std::memory_order_acquire) != handled) break;
      if (drain_lane(lane, kDrainBudget) != 0) any = true;
    }
    return any;
  }

  /// Command prologue: applies everything enqueued before the caller
  /// published the command. All such ops are visible at entry (release/
  /// acquire on cmd_seq plus the ring tails) and FIT in the rings, so
  /// popping at most capacity() ops per lane covers them. Bounded by
  /// construction: looping drain_round() to an all-rings-empty instant
  /// instead would let producers that keep pushing during the pass defer
  /// a poll or an epoch swap indefinitely (observed as multi-second
  /// reconfigure() latency under sustained ingest on small hosts). Ops
  /// that race in behind the per-lane budget are applied after the
  /// command acts — indistinguishable from arriving a moment later; for
  /// kRebind that is exactly the live-reconfig contract (post-boundary
  /// ops sequence under the new epoch, revalidated by generation).
  void drain_visible() {
    refresh_lane_cache();
    for (IngestLane* lane : lane_cache) {
      std::size_t budget = lane->ring.capacity();
      while (budget > 0) {
        const std::size_t got =
            drain_lane(lane, budget < kDrainBudget ? budget : kDrainBudget);
        if (got == 0) break;
        budget -= got;
      }
    }
  }

  void run() {
    std::uint64_t handled = 0;
    int idle_rounds = 0;
    // Parks emissions in the queue, shard-tagged later by the drain
    // (records stay in rank order — the push order).
    auto park = [this](EmissionRecord&& record, std::uint32_t) {
      std::lock_guard<std::mutex> lock(emissions_mutex);
      emissions.push_back(std::move(record));
    };
    CallbackSink<decltype(park)> sink(park);
    while (true) {
      const bool did_work = drain_round(handled);
      const std::uint64_t seq = cmd_seq.load(std::memory_order_acquire);
      if (seq != handled) {
        // A command partitions time: everything enqueued before the
        // caller published it is visible (release/acquire on cmd_seq
        // plus the ring tails), so apply exactly that, then act at the
        // caller's `now`.
        drain_visible();
        switch (cmd) {
          case Cmd::kPoll:
            shard->poll(cmd_now, sink, shard_index);
            break;
          case Cmd::kFlush:
            shard->flush(cmd_now, sink, shard_index);
            break;
          case Cmd::kBarrier:
            break;
          case Cmd::kRebind:
            // The quiesce point of the epoch swap: every pre-command op
            // is applied (the drain_visible above) and the worker is the
            // only thread that touches sequencer state, so the shard
            // rebinds to the staged engine with no op in flight. Ops
            // enqueued after the command sequence under the new epoch.
            shard->rebind_engine(std::move(rebind_target), rebind_clients);
            rebind_target.reset();
            rebind_clients.clear();
            break;
        }
        reported_next_safe = shard->next_safe_time();
        reported_pending = shard->pending_count();
        reported_violations = shard->fairness_violations();
        handled = seq;
        ack_seq.store(seq, std::memory_order_release);
        ack_seq.notify_all();
        idle_rounds = 0;
        continue;
      }
      if (did_work) {
        idle_rounds = 0;
        continue;
      }
      if (stop.load(std::memory_order_acquire)) return;
      if (++idle_rounds < kSpinRoundsBeforePark) {
        std::this_thread::yield();
        continue;
      }
      // Park: advertise, fence, re-check for work that raced the
      // advertisement, then wait on the epoch.
      const std::uint32_t epoch = wake_epoch.load(std::memory_order_relaxed);
      sleeping.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      bool pending = stop.load(std::memory_order_acquire) ||
                     cmd_seq.load(std::memory_order_acquire) != handled;
      if (!pending) {
        refresh_lane_cache();
        for (IngestLane* lane : lane_cache) {
          if (!lane->ring.empty()) {
            pending = true;
            break;
          }
        }
      }
      if (!pending) wake_epoch.wait(epoch, std::memory_order_acquire);
      sleeping.store(false, std::memory_order_relaxed);
      idle_rounds = 0;
    }
  }
};

struct FairOrderingService::Threading {
  /// Index-aligned with shards_; null where the shard is unpopulated.
  std::vector<std::unique_ptr<ShardWorker>> workers;
  /// Serializes poll/flush/quiesce/state accessors (producers never take
  /// it — their path is the rings).
  std::mutex control;

  /// Publishes `cmd` to every populated worker, then waits for all acks;
  /// on return every worker's reported_* snapshots are current (the ack's
  /// release/acquire pair orders them). Caller must hold `control`.
  void broadcast_and_await(ShardWorker::Cmd cmd, TimePoint now) {
    for (auto& worker : workers) {
      if (!worker) continue;
      worker->cmd = cmd;
      worker->cmd_now = now;
      worker->cmd_seq.store(worker->cmd_seq.load(std::memory_order_relaxed)
                                + 1,
                            std::memory_order_release);
      worker->wake();
    }
    for (auto& worker : workers) {
      if (!worker) continue;
      const std::uint64_t seq =
          worker->cmd_seq.load(std::memory_order_relaxed);
      std::uint64_t acked = worker->ack_seq.load(std::memory_order_acquire);
      while (acked != seq) {
        worker->ack_seq.wait(acked, std::memory_order_acquire);
        acked = worker->ack_seq.load(std::memory_order_acquire);
      }
    }
  }
};

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
      drain_policy_(config.drain_policy),
      ingest_ring_capacity_(config.ingest_ring_capacity) {
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
  // engine, so N workers share the tables with no synchronization.
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

  if (config.worker_threads) {
    threading_ = std::make_unique<Threading>();
    threading_->workers.resize(shards_.size());
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      if (!shards_[s]) continue;
      auto worker = std::make_unique<ShardWorker>();
      worker->shard = shards_[s].get();
      worker->shard_index = s;
      worker->thread = std::thread([w = worker.get()] { w->run(); });
      threading_->workers[s] = std::move(worker);
    }
  }
}

FairOrderingService::~FairOrderingService() {
  join_primer();
  if (!threading_) return;
  for (auto& worker : threading_->workers) {
    if (!worker) continue;
    worker->stop.store(true, std::memory_order_release);
    worker->wake();
  }
  for (auto& worker : threading_->workers) {
    if (worker && worker->thread.joinable()) worker->thread.join();
  }
}

std::optional<FairOrderingService::Session>
FairOrderingService::try_open_session(ClientId client, OpenError* error) {
  auto report = [error](OpenError e) {
    if (error != nullptr) *error = e;
  };
  // Known clients always open: a re-announce no longer freezes the
  // service — sessions revalidate their cached offsets by generation, and
  // the epoch swap happens at a quiesce point behind them.
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
  session.client_ = client;
  session.shard_ = s;
  if (threading_) {
    ShardWorker& worker = *threading_->workers[s];
    auto lane = std::make_unique<IngestLane>(ingest_ring_capacity_, client,
                                             &worker);
    session.lane_ = lane.get();
    {
      std::lock_guard<std::mutex> lock(worker.lanes_mutex);
      worker.lanes.push_back(std::move(lane));
      worker.lanes_version.fetch_add(1, std::memory_order_release);
    }
    worker.wake();  // adopt promptly (opens the shard-side session)
  } else {
    session.inner_ = shards_[s]->open_session(client);
  }
  return session;
}

void FairOrderingService::Session::submit(TimePoint stamp, MessageId id,
                                          TimePoint now) {
  if (lane_ == nullptr) {
    inner_.submit(stamp, id, now);
    return;
  }
  IngestOp op;
  op.kind = IngestOp::Kind::kSubmit;
  op.stamp = stamp;
  op.id = id;
  op.arrival = now;
  lane_->worker->push(*lane_, op);
}

void FairOrderingService::Session::submit_batch(
    std::span<const Submission> items) {
  if (lane_ == nullptr) {
    // Relaxed on purpose, matching threaded mode: batches accumulated per
    // session interleave arbitrarily with other sessions' arrivals by
    // construction (see Session::submit_relaxed in online_sequencer.hpp
    // for why that cannot change emissions).
    inner_.submit_batch_relaxed(items);
    return;
  }
  for (const Submission& item : items) {
    IngestOp op;
    op.kind = IngestOp::Kind::kSubmit;
    op.stamp = item.stamp;
    op.id = item.id;
    op.arrival = item.arrival;
    lane_->worker->push(*lane_, op);
  }
}

void FairOrderingService::Session::heartbeat(TimePoint local_stamp,
                                             TimePoint now) {
  if (lane_ == nullptr) {
    inner_.heartbeat(local_stamp, now);
    return;
  }
  IngestOp op;
  op.kind = IngestOp::Kind::kHeartbeat;
  op.stamp = local_stamp;
  op.arrival = now;
  lane_->worker->push(*lane_, op);
}

std::size_t FairOrderingService::Session::try_submit_batch(
    std::span<const Submission> items) {
  if (lane_ == nullptr) {
    // Sequential ingest has no capacity limit: the caller holds the
    // service's ingest serialization (its try step is acquiring that
    // lock), so acceptance here is total.
    inner_.submit_batch_relaxed(items);
    return items.size();
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    IngestOp op;
    op.kind = IngestOp::Kind::kSubmit;
    op.stamp = items[i].stamp;
    op.id = items[i].id;
    op.arrival = items[i].arrival;
    if (!lane_->worker->try_push(*lane_, op)) return i;
  }
  return items.size();
}

bool FairOrderingService::Session::try_heartbeat(TimePoint local_stamp,
                                                 TimePoint now) {
  if (lane_ == nullptr) {
    inner_.heartbeat(local_stamp, now);
    return true;
  }
  IngestOp op;
  op.kind = IngestOp::Kind::kHeartbeat;
  op.stamp = local_stamp;
  op.arrival = now;
  return lane_->worker->try_push(*lane_, op);
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

std::size_t FairOrderingService::release_merged(TimePoint min_next_safe,
                                                bool release_all,
                                                EmissionSink& sink) {
  // Strictly earlier than every shard's next pending batch. This is the
  // best gate the shards can offer, not an absolute one — rank-blocked
  // batches and stragglers landing on currently-empty shards can still
  // emit behind records released here (both caveats documented on
  // DrainPolicy, both bounded by the p_safe machinery).
  return holdback_.release(
      min_next_safe, release_all,
      [&sink](const MergeKey& key, EmissionRecord&& record) {
        sink.on_emission(std::move(record), key.source);
      });
}

std::size_t FairOrderingService::drain_sequential(TimePoint now,
                                                  bool flush_all,
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
  TimePoint min_next = TimePoint::infinite_future();
  for (const auto& shard : shards_) {
    if (shard) min_next = std::min(min_next, shard->next_safe_time());
  }
  return release_merged(min_next, flush_all, sink);
}

std::size_t FairOrderingService::drain_threaded(TimePoint now, bool flush_all,
                                                EmissionSink& sink) {
  std::lock_guard<std::mutex> lock(threading_->control);
  // Broadcast so all shards drain + emit concurrently, await the acks,
  // then stream the queues in shard index order.
  threading_->broadcast_and_await(flush_all ? ShardWorker::Cmd::kFlush
                                            : ShardWorker::Cmd::kPoll,
                                  now);
  std::size_t delivered = 0;
  TimePoint min_next = TimePoint::infinite_future();
  for (std::uint32_t s = 0; s < threading_->workers.size(); ++s) {
    ShardWorker* worker = threading_->workers[s].get();
    if (!worker) continue;
    min_next = std::min(min_next, worker->reported_next_safe);
    std::vector<EmissionRecord> records;
    {
      std::lock_guard<std::mutex> queue_lock(worker->emissions_mutex);
      records.swap(worker->emissions);
    }
    for (EmissionRecord& record : records) {
      if (drain_policy_ == DrainPolicy::kShardLocal) {
        sink.on_emission(std::move(record), s);
        ++delivered;
      } else {
        const MergeKey key{record.safe_time, s, record.batch.rank};
        holdback_.push(key, std::move(record));
      }
    }
  }
  if (drain_policy_ == DrainPolicy::kGlobalMerge) {
    delivered += release_merged(min_next, flush_all, sink);
  }
  return delivered;
}

std::size_t FairOrderingService::poll(TimePoint now, EmissionSink& sink) {
  if (threading_) return drain_threaded(now, /*flush_all=*/false, sink);
  return drain_sequential(now, /*flush_all=*/false, sink);
}

std::size_t FairOrderingService::flush(TimePoint now, EmissionSink& sink) {
  if (threading_) return drain_threaded(now, /*flush_all=*/true, sink);
  return drain_sequential(now, /*flush_all=*/true, sink);
}

void FairOrderingService::quiesce() {
  if (!threading_) return;
  std::lock_guard<std::mutex> lock(threading_->control);
  threading_->broadcast_and_await(ShardWorker::Cmd::kBarrier, TimePoint{});
}

// The threaded-mode accessors never touch live shard state: a producer
// may enqueue right after the barrier ack and put the worker back to
// mutating its sequencer, so they read the worker's ack-time snapshots
// instead, entirely under the control mutex.

TimePoint FairOrderingService::next_safe_time() const {
  if (threading_) {
    std::lock_guard<std::mutex> lock(threading_->control);
    threading_->broadcast_and_await(ShardWorker::Cmd::kBarrier, TimePoint{});
    TimePoint earliest = TimePoint::infinite_future();
    for (const auto& worker : threading_->workers) {
      if (worker) earliest = std::min(earliest, worker->reported_next_safe);
    }
    return earliest;
  }
  TimePoint earliest = TimePoint::infinite_future();
  for (const auto& shard : shards_) {
    if (shard) earliest = std::min(earliest, shard->next_safe_time());
  }
  return earliest;
}

TimePoint FairOrderingService::next_safe_time(std::uint32_t shard) const {
  TOMMY_EXPECTS(shard < shards_.size());
  if (threading_) {
    std::lock_guard<std::mutex> lock(threading_->control);
    threading_->broadcast_and_await(ShardWorker::Cmd::kBarrier, TimePoint{});
    const auto& worker = threading_->workers[shard];
    return worker ? worker->reported_next_safe : TimePoint::infinite_future();
  }
  const auto& seq = shards_[shard];
  return seq ? seq->next_safe_time() : TimePoint::infinite_future();
}

std::size_t FairOrderingService::pending_count() const {
  if (threading_) {
    std::lock_guard<std::mutex> lock(threading_->control);
    threading_->broadcast_and_await(ShardWorker::Cmd::kBarrier, TimePoint{});
    std::size_t pending = 0;
    for (const auto& worker : threading_->workers) {
      if (worker) pending += worker->reported_pending;
    }
    return pending;
  }
  std::size_t pending = 0;
  for (const auto& shard : shards_) {
    if (shard) pending += shard->pending_count();
  }
  return pending;
}

std::size_t FairOrderingService::fairness_violations() const {
  if (threading_) {
    std::lock_guard<std::mutex> lock(threading_->control);
    threading_->broadcast_and_await(ShardWorker::Cmd::kBarrier, TimePoint{});
    std::size_t violations = 0;
    for (const auto& worker : threading_->workers) {
      if (worker) violations += worker->reported_violations;
    }
    return violations;
  }
  std::size_t violations = 0;
  for (const auto& shard : shards_) {
    if (shard) violations += shard->fairness_violations();
  }
  return violations;
}

std::size_t FairOrderingService::held_back_count() const {
  auto count = [this] {
    std::size_t messages = 0;
    for (const auto& held : holdback_) {
      messages += held.record.batch.messages.size();
    }
    return messages;
  };
  if (!threading_) return count();
  std::lock_guard<std::mutex> lock(threading_->control);
  return count();
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
  // Route the joining clients. Install is effectively single-threaded —
  // the staged handoff admits one installer at a time, and only
  // installers write the topology — so the unlocked read here races
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

  if (threading_) {
    // Quiesce + swap: under the control lock no poll/flush interleaves;
    // every worker drains its rings to empty, then rebinds its shard to
    // the staged engine on its own thread (Cmd::kRebind).
    std::lock_guard<std::mutex> control(threading_->control);
    for (auto& worker : threading_->workers) {
      if (!worker) continue;
      worker->rebind_target = staged;
      worker->rebind_clients = std::move(added[worker->shard_index]);
    }
    threading_->broadcast_and_await(ShardWorker::Cmd::kRebind, TimePoint{});
    // Publish: first-time-populated shards get a sequencer and a worker,
    // then routes/engine/generation/epoch flip in one unique-lock
    // section. Readers see the old epoch or the new one, never a mix.
    std::unique_lock<std::shared_mutex> topo(topology_mutex_);
    for (std::uint32_t s = 0; s < shard_total; ++s) {
      if (added[s].empty() || shards_[s]) continue;
      shards_[s] = std::make_unique<OnlineSequencer>(staged, added[s],
                                                     online_config_);
      auto worker = std::make_unique<ShardWorker>();
      worker->shard = shards_[s].get();
      worker->shard_index = s;
      worker->thread = std::thread([w = worker.get()] { w->run(); });
      threading_->workers[s] = std::move(worker);
    }
    engine_ = staged;
    for (const auto& [c, s] : new_routes) shard_by_client_.emplace(c, s);
    primed_generation_.store(staged->fast_generation(),
                             std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    return;
  }

  // Sequential: rebind in place. Callers serialize reconfiguration with
  // ingest exactly as they serialize poll/flush.
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
  if (threading_) {
    TOMMY_EXPECTS(session.lane_ != nullptr);
    IngestOp op;
    op.kind = IngestOp::Kind::kRetire;
    session.lane_->worker->push(*session.lane_, op);
    session.lane_ = nullptr;  // the handle is dead from here on
    return;
  }
  std::shared_lock<std::shared_mutex> lock(topology_mutex_);
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
