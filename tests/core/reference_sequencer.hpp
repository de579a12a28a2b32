// The naive online sequencer (§3.5, Appendix C): the oracle the
// equivalence suites hold OnlineSequencer's critical-gap fast path to.
//
// It states the rule the way the paper does, in probabilities, and shares
// no logic with the fast path:
//  * pending messages sit in a vector sorted by (corrected stamp, id),
//    every comparison re-evaluating PrecedingEngine::corrected_stamp;
//  * every emission attempt recomputes the head batch's closure from
//    scratch, asking preceding_probability of every buffered pair;
//  * T_b is the largest safe_emission_time in the batch, and the
//    completeness gate scans every expected client's
//    completeness_frontier;
//  * an arrival not confidently after every member of the last emitted
//    batch counts as a fairness violation.
//
// ── Epoch ───────────────────────────────────────────────────────────────
//
// The oracle never reads the registry it was built from while it runs. It
// holds a private copy, a clone() of every client's distribution
// announced in dense order, and its own PrecedingEngine over that copy.
// Only rebind() refreshes the copy and re-sorts the buffer under the new
// keys; re-announcing every clone bumps the copy's generation, which also
// clears the copy engine's Δθ cache. A test calls rebind() wherever the
// fast side takes up the epoch:
//  * a bare OnlineSequencer: right after the announce (it re-primes at its
//    next call, and no call comes in between);
//  * a FairOrderingService: at reconfigure();
//  * never, when no install follows.
//
// ShardedReference holds one oracle per shard of a service's partition
// and mirrors the service's drive surface, so a test drives it like the
// service and compares the two shard by shard.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "core/client_registry.hpp"
#include "core/online_sequencer.hpp"
#include "core/preceding.hpp"
#include "core/service.hpp"

namespace tommy::core {

class ReferenceSequencer {
 public:
  /// Ingest handle with the surface of OnlineSequencer::Session.
  class Session {
   public:
    Session() = default;

    void submit(TimePoint stamp, MessageId id, TimePoint now) {
      oracle_->ingest(slot_, stamp, id, now, /*relaxed=*/false);
    }
    void submit_relaxed(TimePoint stamp, MessageId id, TimePoint now) {
      oracle_->ingest(slot_, stamp, id, now, /*relaxed=*/true);
    }
    /// Relaxed, like FairOrderingService::Session::submit_batch (the
    /// surface ShardedReference mirrors).
    void submit_batch(std::span<const Submission> items) {
      for (const Submission& item : items) {
        submit_relaxed(item.stamp, item.id, item.arrival);
      }
    }
    void heartbeat(TimePoint local_stamp, TimePoint now) {
      oracle_->hear(slot_, local_stamp, now);
    }
    [[nodiscard]] ClientId client() const {
      return oracle_->clients_[slot_].id;
    }

   private:
    friend class ReferenceSequencer;
    ReferenceSequencer* oracle_{nullptr};
    std::size_t slot_{0};
  };

  /// Binds the oracle to the epoch `source` holds now.
  ReferenceSequencer(const ClientRegistry& source,
                     std::vector<ClientId> expected_clients,
                     OnlineConfig config = {})
      : source_(source), config_(config), engine_(epoch_, config.preceding) {
    TOMMY_EXPECTS(config_.threshold > 0.5 && config_.threshold < 1.0);
    TOMMY_EXPECTS(config_.p_safe > 0.5 && config_.p_safe < 1.0);
    TOMMY_EXPECTS(!expected_clients.empty());
    copy_epoch();
    for (ClientId c : expected_clients) expect(c);
  }

  // The engine refers to the private registry copy; pin both in memory.
  ReferenceSequencer(const ReferenceSequencer&) = delete;
  ReferenceSequencer& operator=(const ReferenceSequencer&) = delete;

  [[nodiscard]] Session open_session(ClientId client) {
    Session session;
    session.oracle_ = this;
    session.slot_ = slot_of(client);
    return session;
  }

  /// Takes up the epoch `source` holds now, and expects `new_clients`.
  void rebind(std::span<const ClientId> new_clients) {
    copy_epoch();
    for (ClientId c : new_clients) expect(c);
    std::sort(buffer_.begin(), buffer_.end(), Before{engine_});
  }

  [[nodiscard]] std::vector<EmissionRecord> poll(TimePoint now) {
    return drain(now, /*ignore_gates=*/false);
  }
  [[nodiscard]] std::vector<EmissionRecord> flush(TimePoint now) {
    return drain(now, /*ignore_gates=*/true);
  }

  [[nodiscard]] TimePoint next_safe_time() const {
    if (buffer_.empty()) return TimePoint::infinite_future();
    return safe_time(head_batch_size());
  }
  [[nodiscard]] std::size_t pending_count() const { return buffer_.size(); }
  [[nodiscard]] Rank next_rank() const { return next_rank_; }
  [[nodiscard]] std::size_t fairness_violations() const { return violations_; }

  [[nodiscard]] std::vector<ClientId> timed_out_clients(TimePoint now) const {
    std::vector<ClientId> out;
    for (const ClientState& c : clients_) {
      if (!c.departed && timed_out(c, now)) out.push_back(c.id);
    }
    return out;
  }

  /// Leaves `client` out of the completeness gate until it speaks again.
  void retire_client(ClientId client) {
    clients_[slot_of(client)].departed = true;
  }

 private:
  struct ClientState {
    ClientId id;
    TimePoint high_water{TimePoint(-std::numeric_limits<double>::infinity())};
    TimePoint last_heard{TimePoint(-std::numeric_limits<double>::infinity())};
    bool heard{false};
    bool departed{false};
  };

  void copy_epoch() {
    for (std::uint32_t i = 0; i < source_.size(); ++i) {
      epoch_.announce(source_.client_at(i),
                      source_.distribution_ptr_at(i)->clone());
    }
  }

  void expect(ClientId client) {
    TOMMY_EXPECTS(epoch_.contains(client));
    for (const ClientState& c : clients_) {
      if (c.id == client) return;  // duplicate expected client: one entry
    }
    clients_.push_back(ClientState{client});
  }

  [[nodiscard]] std::size_t slot_of(ClientId client) const {
    for (std::size_t slot = 0; slot < clients_.size(); ++slot) {
      if (clients_[slot].id == client) return slot;
    }
    TOMMY_EXPECTS(false && "not an expected client");
    return 0;
  }

  /// The buffer order: (corrected stamp, id), evaluated per comparison.
  struct Before {
    const PrecedingEngine& engine;
    bool operator()(const Message& lhs, const Message& rhs) const {
      const TimePoint lk = engine.corrected_stamp(lhs);
      const TimePoint rk = engine.corrected_stamp(rhs);
      if (lk != rk) return lk < rk;
      return lhs.id < rhs.id;
    }
  };

  [[nodiscard]] bool confidently_after(const Message& later,
                                       const Message& earlier) const {
    return engine_.preceding_probability(earlier, later) > config_.threshold;
  }

  void hear(std::size_t slot, TimePoint local_stamp, TimePoint now) {
    ClientState& c = clients_[slot];
    c.high_water = std::max(c.high_water, local_stamp);
    c.last_heard = std::max(c.last_heard, now);
    c.heard = true;
    c.departed = false;  // speaking revives a retired client
  }

  void ingest(std::size_t slot, TimePoint stamp, MessageId id, TimePoint now,
              bool relaxed) {
    if (!relaxed) TOMMY_EXPECTS(now >= last_arrival_);  // FIFO delivery
    last_arrival_ = std::max(last_arrival_, now);
    hear(slot, stamp, now);
    const Message m{id, clients_[slot].id, stamp, now};
    for (const Message& emitted : last_emitted_) {
      if (!confidently_after(m, emitted)) {
        ++violations_;
        break;
      }
    }
    buffer_.insert(std::lower_bound(buffer_.begin(), buffer_.end(), m,
                                    Before{engine_}),
                   m);
  }

  /// Size of the head batch under the closure rule (BatchRule::kClosure):
  /// the first cut that no uncertain pair crosses.
  [[nodiscard]] std::size_t head_batch_size() const {
    const std::size_t n = buffer_.size();
    std::size_t reach = 0;
    std::size_t absorbed = 0;
    std::size_t e = 1;
    while (e < n) {
      for (; absorbed < e; ++absorbed) {
        for (std::size_t j = absorbed + 1; j < n; ++j) {
          if (!confidently_after(buffer_[j], buffer_[absorbed])) {
            reach = std::max(reach, j);
          }
        }
      }
      if (reach < e) return e;
      e = reach + 1;
    }
    return n;
  }

  [[nodiscard]] TimePoint safe_time(std::size_t batch_size) const {
    TimePoint t_b(-std::numeric_limits<double>::infinity());
    for (std::size_t k = 0; k < batch_size; ++k) {
      t_b = std::max(t_b,
                     engine_.safe_emission_time(buffer_[k], config_.p_safe));
    }
    return t_b;
  }

  [[nodiscard]] bool timed_out(const ClientState& c, TimePoint now) const {
    return config_.client_silence_timeout.is_finite() &&
           (!c.heard || now - c.last_heard > config_.client_silence_timeout);
  }

  [[nodiscard]] bool complete(TimePoint t_b, TimePoint now) const {
    for (const ClientState& c : clients_) {
      if (c.departed || timed_out(c, now)) continue;  // out of the gate
      if (!c.heard) return false;
      if (engine_.completeness_frontier(c.id, c.high_water, config_.p_safe) <
          t_b) {
        return false;
      }
    }
    return true;
  }

  std::vector<EmissionRecord> drain(TimePoint now, bool ignore_gates) {
    std::vector<EmissionRecord> out;
    while (!buffer_.empty()) {
      const std::size_t size = head_batch_size();
      const TimePoint t_b = safe_time(size);
      if (!ignore_gates && (now < t_b || !complete(t_b, now))) break;
      const auto end = buffer_.begin() + static_cast<std::ptrdiff_t>(size);
      EmissionRecord record;
      record.batch.rank = next_rank_++;
      record.batch.messages.assign(buffer_.begin(), end);
      record.emitted_at = now;
      record.safe_time = t_b;
      last_emitted_ = record.batch.messages;
      buffer_.erase(buffer_.begin(), end);
      out.push_back(std::move(record));
    }
    return out;
  }

  const ClientRegistry& source_;
  OnlineConfig config_;
  ClientRegistry epoch_;
  PrecedingEngine engine_;
  std::vector<ClientState> clients_;  // expected order, joins appended
  std::vector<Message> buffer_;       // sorted by Before
  std::vector<Message> last_emitted_;
  Rank next_rank_{0};
  std::size_t violations_{0};
  TimePoint last_arrival_{TimePoint(-std::numeric_limits<double>::infinity())};
};

class ShardedReference {
 public:
  using Session = ReferenceSequencer::Session;

  /// One oracle per populated shard of `service`, over the clients the
  /// service routes there (in `expected_clients` order, as the service
  /// partitions them), each bound to the epoch `registry` holds now.
  ShardedReference(const FairOrderingService& service,
                   const ClientRegistry& registry,
                   const std::vector<ClientId>& expected_clients,
                   OnlineConfig config) {
    std::vector<std::vector<ClientId>> partition(service.shard_count());
    for (ClientId c : expected_clients) {
      shard_of_.emplace(c, service.shard_of(c));
      partition[service.shard_of(c)].push_back(c);
    }
    for (std::vector<ClientId>& clients : partition) {
      shards_.push_back(clients.empty()
                            ? nullptr
                            : std::make_unique<ReferenceSequencer>(
                                  registry, std::move(clients), config));
    }
  }

  [[nodiscard]] Session open_session(ClientId client) {
    return shards_[shard_of_.at(client)]->open_session(client);
  }

  /// fn(EmissionRecord&&, std::uint32_t shard), shards in index order.
  template <typename F>
  void poll(TimePoint now, F&& fn) {
    drain(now, /*flush=*/false, fn);
  }
  template <typename F>
  void flush(TimePoint now, F&& fn) {
    drain(now, /*flush=*/true, fn);
  }

  /// Rebinds every shard: call it where the service reconfigures.
  void reconfigure() {
    for (auto& shard : shards_) {
      if (shard) shard->rebind({});
    }
  }

  [[nodiscard]] std::size_t fairness_violations() const {
    std::size_t violations = 0;
    for (const auto& shard : shards_) {
      if (shard) violations += shard->fairness_violations();
    }
    return violations;
  }

 private:
  template <typename F>
  void drain(TimePoint now, bool flush, F& fn) {
    for (std::uint32_t shard = 0; shard < shards_.size(); ++shard) {
      if (!shards_[shard]) continue;
      for (EmissionRecord& record : flush ? shards_[shard]->flush(now)
                                          : shards_[shard]->poll(now)) {
        fn(std::move(record), shard);
      }
    }
  }

  std::vector<std::unique_ptr<ReferenceSequencer>> shards_;  // null: empty
  std::unordered_map<ClientId, std::uint32_t> shard_of_;
};

}  // namespace tommy::core
