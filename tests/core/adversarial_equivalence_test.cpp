// Adversarial arrival-order equivalence: the O(log n) HoldbackBuffer fast
// path must stay bit-identical to the naive oracle
// (reference_sequencer.hpp, a per-comparison sorted vector) under exactly
// the arrival patterns that made the old flat buffer quadratic — and that
// a rank-stealing adversary would engineer. Three stream shapes:
//
//   * reverse-corrected: corrected stamps strictly DECREASING in arrival
//     order, so every insert lands at the buffer front while a closed
//     completeness gate holds the backlog deep;
//   * interleaved bursts: alternating low/high stamp bursts that make
//     inserts ping-pong between the buffer's ends and repeatedly split
//     chunks on both flanks;
//   * mid-stream reprime: a drastic re-announce landing on a deep
//     backlog, forcing both sides through their re-key + re-sort refresh
//     boundary mid-stream.
//
// Each shape is proven on the bare sequencer (fast vs oracle) and then
// on the service: the multi-shard service vs one oracle per shard of its
// partition, and the kGlobalMerge drain vs the shard-local record set —
// covering bare / sharded / global-merge with the new structure
// everywhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/online_sequencer.hpp"
#include "core/service.hpp"
#include "sim/population.hpp"
#include "stats/gaussian.hpp"

#include "reference_sequencer.hpp"

namespace tommy::core {
namespace {

using namespace tommy::literals;

enum class Pattern { kReverseCorrected, kInterleavedBursts, kMidStreamReprime };

const char* to_string(Pattern pattern) {
  switch (pattern) {
    case Pattern::kReverseCorrected:
      return "reverse-corrected";
    case Pattern::kInterleavedBursts:
      return "interleaved-bursts";
    case Pattern::kMidStreamReprime:
      return "mid-stream-reprime";
  }
  return "unknown";
}

struct Scenario {
  sim::Population population;
  ClientRegistry registry;
  std::vector<Message> messages;  // arrival order (FIFO-feasible)
  /// Message count after which the drive re-announces client 0 with a
  /// drastically shifted clock model (0 = never).
  std::size_t reprime_at{0};
};

/// Hand-built adversarial streams: arrivals are non-decreasing (the FIFO
/// contract) while stamps move against them, so the buffer placement —
/// not the transport — is the adversarial element.
Scenario make_scenario(Pattern pattern, std::uint64_t seed,
                       std::size_t clients, std::size_t count) {
  Rng rng(seed);
  Scenario s{sim::gaussian_population(clients, 40e-6, rng), {}, {}, 0};
  s.population.seed_registry(s.registry);
  const auto ids = s.population.ids();
  const double step = 3e-6;
  std::uint64_t next_id = 1;
  auto push = [&](std::size_t i, double stamp_s, double arrival_s) {
    Message m;
    m.id = MessageId(next_id++);
    m.client = ids[i % ids.size()];
    m.stamp = TimePoint(stamp_s);
    m.arrival = TimePoint(arrival_s);
    s.messages.push_back(m);
  };
  switch (pattern) {
    case Pattern::kReverseCorrected: {
      // Newest arrival carries the OLDEST stamp: with per-client offsets
      // only tens of microseconds wide, corrected stamps decrease with
      // every arrival and each insert hits the buffer front.
      const double base = 1.0;
      for (std::size_t i = 0; i < count; ++i) {
        push(i, base - static_cast<double>(i) * step,
             base + static_cast<double>(i) * 0.5e-6);
      }
      break;
    }
    case Pattern::kInterleavedBursts: {
      // Alternating bursts from a low and a high stamp band, both bands
      // sliding forward: inserts alternate between the two ends of the
      // pending order in groups of 16.
      const double base = 1.0;
      const double band_gap = 0.3;  // ≫ any critical gap: bands stay apart
      std::size_t i = 0;
      while (i < count) {
        for (std::size_t k = 0; k < 16 && i < count; ++k, ++i) {
          push(i, base + static_cast<double>(i) * step,
               base + static_cast<double>(i) * 0.5e-6);
        }
        for (std::size_t k = 0; k < 16 && i < count; ++k, ++i) {
          push(i, base + band_gap - static_cast<double>(i) * step,
               base + static_cast<double>(i) * 0.5e-6);
        }
      }
      break;
    }
    case Pattern::kMidStreamReprime: {
      // Reverse-corrected backlog, then a drastic mean shift halfway:
      // the refresh re-keys a deep buffer on both sides.
      const double base = 1.0;
      for (std::size_t i = 0; i < count; ++i) {
        push(i, base - static_cast<double>(i) * step,
             base + static_cast<double>(i) * 0.5e-6);
      }
      s.reprime_at = count / 2;
      break;
    }
  }
  return s;
}

struct DriveResult {
  std::vector<EmissionRecord> records;
  std::size_t violations{0};
  Rank final_rank{0};
  std::size_t pending_after_flush{0};
};

/// Re-learns client 0 with a drastically shifted clock model.
void reprime(Scenario& s) {
  s.registry.announce(s.population.ids().front(),
                      std::make_unique<stats::Gaussian>(0.4, 150e-6));
}

/// Drives a bare sequencer or the oracle: sparse polls while the gate
/// starves (no heartbeats — the backlog must go deep), the optional
/// drastic reprime, then heartbeats + poll + flush to land every record.
/// A bare sequencer takes up the reprime at its next call; the oracle is
/// rebound right after the announce.
template <typename Seq>
DriveResult drive(Seq& seq, Scenario& s) {
  DriveResult out;
  auto append = [&](std::vector<EmissionRecord>&& recs) {
    for (auto& r : recs) out.records.push_back(std::move(r));
  };
  std::unordered_map<ClientId, typename Seq::Session> sessions;
  for (ClientId c : s.population.ids()) {
    sessions.emplace(c, seq.open_session(c));
  }
  TimePoint now(0.0);
  std::size_t k = 0;
  for (const Message& m : s.messages) {
    now = std::max(now, m.arrival);
    sessions.at(m.client).submit(m.stamp, m.id, now);
    if (++k == s.reprime_at && s.reprime_at != 0) {
      reprime(s);
      if constexpr (std::is_same_v<Seq, ReferenceSequencer>) seq.rebind({});
    }
    if (k % 37 == 0) append(seq.poll(now));
  }
  for (ClientId c : s.population.ids()) {
    sessions.at(c).heartbeat(now + 1_s, now + 1_ms);
  }
  append(seq.poll(now + 1_s));
  append(seq.flush(now + 2_s));
  out.pending_after_flush = seq.pending_count();
  out.violations = seq.fairness_violations();
  out.final_rank = seq.next_rank();
  return out;
}

void expect_identical(const DriveResult& fast, const DriveResult& ref,
                      const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(fast.records.size(), ref.records.size());
  for (std::size_t r = 0; r < fast.records.size(); ++r) {
    SCOPED_TRACE("record " + std::to_string(r));
    const EmissionRecord& a = fast.records[r];
    const EmissionRecord& b = ref.records[r];
    EXPECT_EQ(a.batch.rank, b.batch.rank);
    EXPECT_EQ(a.emitted_at.seconds(), b.emitted_at.seconds());
    EXPECT_EQ(a.safe_time.seconds(), b.safe_time.seconds());
    ASSERT_EQ(a.batch.messages.size(), b.batch.messages.size());
    for (std::size_t m = 0; m < a.batch.messages.size(); ++m) {
      EXPECT_EQ(a.batch.messages[m], b.batch.messages[m]);
    }
  }
  EXPECT_EQ(fast.violations, ref.violations);
  EXPECT_EQ(fast.final_rank, ref.final_rank);
  EXPECT_EQ(fast.pending_after_flush, ref.pending_after_flush);
}

TEST(AdversarialEquivalence, BareSequencerAllPatterns) {
  for (const Pattern pattern :
       {Pattern::kReverseCorrected, Pattern::kInterleavedBursts,
        Pattern::kMidStreamReprime}) {
    for (const std::uint64_t seed : {5u, 17u}) {
      // Scenarios are rebuilt per side: drive() mutates the registry on
      // the reprime pattern and both sides must see the same sequence.
      Scenario fast_s = make_scenario(pattern, seed, 6, 1200);
      OnlineConfig config;
      config.threshold = 0.75;
      config.p_safe = 0.99;
      OnlineSequencer fast(fast_s.registry, fast_s.population.ids(), config);
      const DriveResult fast_result = drive(fast, fast_s);

      Scenario oracle_s = make_scenario(pattern, seed, 6, 1200);
      ReferenceSequencer oracle(oracle_s.registry, oracle_s.population.ids(),
                                config);
      const DriveResult oracle_result = drive(oracle, oracle_s);

      expect_identical(fast_result, oracle_result, to_string(pattern));
      // The adversarial gate starvation must actually build a deep
      // buffer: the flush at the end should still be emitting records.
      EXPECT_FALSE(fast_result.records.empty());
    }
  }
}

// ── Service engine configs ──────────────────────────────────────────────

struct Tagged {
  EmissionRecord record;
  std::uint32_t shard;
};

/// Drives a FairOrderingService, or the ShardedReference of one, on
/// drive()'s schedule; the reprime installs through reconfigure().
template <typename Service>
std::vector<Tagged> drive_service(Service& service, Scenario& s) {
  std::unordered_map<ClientId, typename Service::Session> sessions;
  for (ClientId c : s.population.ids()) {
    sessions.emplace(c, service.open_session(c));
  }
  std::vector<Tagged> out;
  auto sink = [&out](EmissionRecord&& record, std::uint32_t shard) {
    out.push_back(Tagged{std::move(record), shard});
  };
  TimePoint now(0.0);
  std::size_t k = 0;
  for (const Message& m : s.messages) {
    now = std::max(now, m.arrival);
    sessions.at(m.client).submit(m.stamp, m.id, now);
    if (++k == s.reprime_at && s.reprime_at != 0) {
      // The service's live-reconfig path: re-announce, then block until
      // the new epoch is installed before the stream continues.
      reprime(s);
      service.reconfigure();
    }
    if (k % 37 == 0) service.poll(now, sink);
  }
  for (ClientId c : s.population.ids()) {
    sessions.at(c).heartbeat(now + 1_s, now + 1_ms);
  }
  service.poll(now + 1_s, sink);
  service.flush(now + 2_s, sink);
  return out;
}

void expect_identical_per_shard(const std::vector<Tagged>& actual,
                                const std::vector<Tagged>& expected,
                                std::uint32_t shard_count,
                                const char* label) {
  SCOPED_TRACE(label);
  auto split = [shard_count](const std::vector<Tagged>& all) {
    std::vector<std::vector<const Tagged*>> by_shard(shard_count);
    for (const Tagged& t : all) by_shard[t.shard].push_back(&t);
    return by_shard;
  };
  const auto a = split(actual);
  const auto b = split(expected);
  for (std::uint32_t shard = 0; shard < shard_count; ++shard) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    ASSERT_EQ(a[shard].size(), b[shard].size());
    for (std::size_t r = 0; r < a[shard].size(); ++r) {
      SCOPED_TRACE("record " + std::to_string(r));
      const EmissionRecord& x = a[shard][r]->record;
      const EmissionRecord& y = b[shard][r]->record;
      EXPECT_EQ(x.batch.rank, y.batch.rank);
      EXPECT_EQ(x.emitted_at.seconds(), y.emitted_at.seconds());
      EXPECT_EQ(x.safe_time.seconds(), y.safe_time.seconds());
      ASSERT_EQ(x.batch.messages.size(), y.batch.messages.size());
      for (std::size_t m = 0; m < x.batch.messages.size(); ++m) {
        EXPECT_EQ(x.batch.messages[m], y.batch.messages[m]);
      }
    }
  }
}

TEST(AdversarialEquivalence, ServiceConfigsAllPatterns) {
  constexpr std::uint32_t kShards = 4;
  for (const Pattern pattern :
       {Pattern::kReverseCorrected, Pattern::kInterleavedBursts,
        Pattern::kMidStreamReprime}) {
    SCOPED_TRACE(to_string(pattern));
    auto config_for = [](DrainPolicy policy) {
      ServiceConfig config;
      config.with_p_safe(0.99).with_shards(kShards);
      config.with_drain_policy(policy);
      return config;
    };

    // Sharded vs one oracle per shard, bit-identical per shard.
    const ServiceConfig sequential = config_for(DrainPolicy::kShardLocal);
    Scenario seq_s = make_scenario(pattern, 29u, 6, 1200);
    FairOrderingService seq_service(seq_s.registry, seq_s.population.ids(),
                                    sequential);
    const auto seq_fast = drive_service(seq_service, seq_s);
    Scenario oracle_s = make_scenario(pattern, 29u, 6, 1200);
    ShardedReference oracles(seq_service, oracle_s.registry,
                             oracle_s.population.ids(), sequential.online);
    EXPECT_FALSE(seq_fast.empty());
    expect_identical_per_shard(seq_fast, drive_service(oracles, oracle_s),
                               kShards, "sequential-vs-oracles");

    // Global merge: per shard it is the same record set the shard-local
    // drain produced (rank order within a shard can differ across
    // policies — compare rank-aligned).
    Scenario merge_s = make_scenario(pattern, 29u, 6, 1200);
    FairOrderingService merge_service(merge_s.registry,
                                      merge_s.population.ids(),
                                      config_for(DrainPolicy::kGlobalMerge));
    const auto merge_seq = drive_service(merge_service, merge_s);
    EXPECT_FALSE(merge_seq.empty());
    auto rank_sorted = [](std::vector<Tagged> v) {
      std::stable_sort(v.begin(), v.end(),
                       [](const Tagged& lhs, const Tagged& rhs) {
                         if (lhs.shard != rhs.shard) {
                           return lhs.shard < rhs.shard;
                         }
                         return lhs.record.batch.rank < rhs.record.batch.rank;
                       });
      return v;
    };
    expect_identical_per_shard(rank_sorted(merge_seq), rank_sorted(seq_fast),
                               kShards, "merge-vs-local records");
  }
}

}  // namespace
}  // namespace tommy::core
