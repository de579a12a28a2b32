// The tentpole proof for live reconfiguration: a real listening server
// under phased client churn — three clients stream phase A, then at a
// drained boundary one re-announces a mutated summary (epoch swap), one
// departs (EOF → retirement from the completeness gate), and a brand-new
// client joins through the ReconfigPending → re-announce → HandshakeAck
// flow — and phase B streams over the SAME surviving connections, no
// restart anywhere. The emission stream, segmented per poll, must be
// bit-identical to a direct-drive oracle performing the same reconfigs
// at the same boundaries, gap-free in ranks, and arrival-monotone.
//
// SOAK_ITERS (env) repeats each scenario with fresh seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <map>
#include <optional>
#include <thread>

#include "net/acceptor.hpp"
#include "wire_test_util.hpp"

namespace tommy::net {
namespace {

using namespace tommy::net::testing;
using core::ClientRegistry;
using core::FairOrderingService;
using core::ServiceConfig;

constexpr std::uint32_t kDeparter = 1;
constexpr std::uint32_t kJoiner = 3;
constexpr double kPhaseBBase = 1.035;

int soak_iterations() {
  const char* env = std::getenv("SOAK_ITERS");
  if (env == nullptr) return 1;
  const int parsed = std::atoi(env);
  return parsed > 0 ? parsed : 1;
}

// ── Phased workload ─────────────────────────────────────────────────────

struct ChurnWorkload {
  /// Indexed by client id; phase A covers {0, 1, 2}, phase B {0, 2, 3}.
  std::array<std::vector<Event>, 4> phase_a{};
  std::array<std::vector<Event>, 4> phase_b{};
  /// Client 0's boundary re-announce (a real change: reconfig trigger).
  stats::DistributionSummary mutated0{
      stats::GaussianParams{5e-4, 1.6e-3}};
};

/// One client's events for one phase: jittered stamps from `base`, a
/// heartbeat every few messages, and a phase-ending heartbeat that
/// flushes the front-end's pending batch. `trailing_gap` stretches the
/// final heartbeat's stamp — the departer gets a tight one, so only its
/// retirement (not a far frontier) can unblock the later polls.
std::vector<Event> phase_events(int per_client, double base,
                                std::uint64_t id_base, Rng rng,
                                double trailing_gap) {
  std::vector<Event> events;
  double stamp = base;
  for (int k = 0; k < per_client; ++k) {
    stamp += rng.uniform(0.5e-3, 3e-3);
    events.push_back(
        Event{false, id_base + static_cast<std::uint64_t>(k),
              TimePoint(stamp)});
    if (k % 4 == 3) {
      events.push_back(Event{true, 0, TimePoint(stamp + 0.1e-3)});
    }
  }
  events.push_back(Event{true, 0, TimePoint(stamp + trailing_gap)});
  return events;
}

ChurnWorkload make_churn_workload(std::uint64_t seed) {
  Rng rng(seed);
  ChurnWorkload w;
  for (std::uint32_t c : {0u, 1u, 2u}) {
    w.phase_a[c] = phase_events(10, 1.0 + 1e-4 * c, 1000ULL * c,
                                rng.split(), /*trailing_gap=*/0.1e-3);
  }
  for (std::uint32_t c : {0u, 2u, 3u}) {
    w.phase_b[c] = phase_events(10, kPhaseBBase + 1e-4 * c,
                                1000ULL * c + 500, rng.split(),
                                /*trailing_gap=*/50e-3);
  }
  return w;
}

struct PhaseTotals {
  std::uint64_t submits{0};
  std::uint64_t heartbeats{0};
};

PhaseTotals count(const std::array<std::vector<Event>, 4>& phase) {
  PhaseTotals totals;
  for (const auto& events : phase) {
    for (const Event& e : events) {
      if (e.is_heartbeat) {
        ++totals.heartbeats;
      } else {
        ++totals.submits;
      }
    }
  }
  return totals;
}

// ── Captures, segmented per poll ────────────────────────────────────────

/// Segments: poll(1.05) at the churn boundary, poll(1.2) after phase B,
/// poll(1.5)+poll(2.5)+flush(3.0) after teardown.
using Segments = std::vector<std::vector<CapturedBatch>>;

struct SegmentSink {
  std::vector<CapturedBatch> batches;

  auto sink() {
    return [this](core::EmissionRecord&& record, std::uint32_t shard) {
      batches.push_back(capture(record, shard));
    };
  }
};

std::vector<CapturedBatch> flatten(const Segments& segments) {
  std::vector<CapturedBatch> all;
  for (const auto& segment : segments) {
    all.insert(all.end(), segment.begin(), segment.end());
  }
  return all;
}

/// Gap-free and arrival-monotone. Shard-local drains deliver each
/// shard's batches in strict rank order, so ranks must be contiguous
/// from zero in delivery order. The global merge releases by safe_time
/// and may legally deliver a rank-blocked batch behind a later one (the
/// documented DrainPolicy caveat), so there the gap-free claim is on the
/// SET of ranks per shard: every rank 0..n-1 delivered exactly once.
/// Either way no message may be emitted before it arrived.
void expect_sane_emissions(const std::vector<CapturedBatch>& batches,
                           bool global_merge) {
  std::map<std::uint32_t, std::vector<Rank>> ranks;
  std::map<std::uint32_t, double> last_emit;
  for (const CapturedBatch& batch : batches) {
    ranks[batch.shard].push_back(batch.rank);
    if (!global_merge) {
      auto [emit_it, _] = last_emit.try_emplace(batch.shard, 0.0);
      EXPECT_GE(batch.emitted_at, emit_it->second);
      emit_it->second = batch.emitted_at;
    }
    for (const CapturedMessage& m : batch.messages) {
      EXPECT_LE(m.arrival, batch.emitted_at)
          << "message " << m.id << " emitted before it arrived";
    }
  }
  for (auto& [shard, seen] : ranks) {
    if (global_merge) std::sort(seen.begin(), seen.end());
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], Rank{i}) << "rank gap on shard " << shard;
    }
  }
}

// ── The churned wire run ────────────────────────────────────────────────

Segments run_churned(ServiceConfig config, const ChurnWorkload& w,
                     bool use_tcp) {
  ClientRegistry registry = make_registry(3);
  FairOrderingService service(registry, ids(3), config);
  ServerConfig server_config;
  server_config.frontend = test_frontend_config();
  server_config.frontend.accept_new_clients = true;
  server_config.frontend.retire_on_eof = true;
  FrameServer server(registry, service, server_config);

  std::string path;
  if (use_tcp) {
    EXPECT_TRUE(server.listen(Endpoint{.unix_path = {}, .tcp_port = 0}));
  } else {
    path = fresh_unix_path();
    EXPECT_TRUE(server.listen(Endpoint{.unix_path = path, .tcp_port = 0}));
  }
  auto connect = [&server, &path] {
    return dial(Endpoint{.unix_path = path, .tcp_port = server.port()},
                RetryPolicy{});
  };

  std::array<std::shared_ptr<ByteStream>, 4> wires;
  std::atomic<int> write_failures{0};
  auto stream_phase = [&](const std::vector<std::uint32_t>& clients,
                          const std::array<std::vector<Event>, 4>& phase,
                          bool announce_first) {
    std::vector<std::thread> writers;
    for (std::uint32_t c : clients) {
      writers.emplace_back([&, c] {
        std::vector<std::uint8_t> bytes;
        if (announce_first) bytes = announce_frame(c);
        for (const Event& e : phase[c]) {
          const auto frame = event_frame(c, e);
          bytes.insert(bytes.end(), frame.begin(), frame.end());
        }
        if (!wires[c]->write_all(bytes)) {
          write_failures.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
  };

  // Phase A: three persistent connections stream concurrently.
  for (std::uint32_t c : {0u, 1u, 2u}) {
    wires[c] = connect();
    EXPECT_NE(wires[c], nullptr);
  }
  stream_phase({0u, 1u, 2u}, w.phase_a, /*announce_first=*/true);
  EXPECT_EQ(write_failures.load(), 0);

  // Barrier: every phase A frame decoded and applied.
  const PhaseTotals a = count(w.phase_a);
  EXPECT_TRUE(eventually([&server, &a] {
    const FrontendTotals t = server.frontend().totals();
    return t.submits_in == a.submits && t.heartbeats_in == a.heartbeats;
  }));
  Segments segments;
  SegmentSink boundary_poll;
  {
    // Boundary drains go through the front-end, not the service: the
    // pollers are live, and the front-end's ingest lock is the only
    // thing serializing them against a poll.
    auto fn = boundary_poll.sink();
    core::CallbackSink<decltype(fn)> sink(fn);
    server.frontend().pump(TimePoint(1.05), PumpOptions{.sink = &sink});
  }
  segments.push_back(std::move(boundary_poll.batches));

  // Churn boundary (canonical order, mirrored by the oracle):
  // (1) client 0 re-announces a mutated summary on its LIVE connection.
  const std::uint64_t pre_mutate = registry.generation();
  EXPECT_TRUE(wires[0]->write_all(encode_frame(WireMessage(
      DistributionAnnouncement{ClientId(0), w.mutated0}))));
  EXPECT_TRUE(eventually([&registry, pre_mutate] {
    return registry.generation() > pre_mutate;
  }));
  // (2) the departer EOFs; retire_on_eof pulls it out of the gate.
  wires[kDeparter]->close_write();
  EXPECT_TRUE(eventually(
      [&server] { return server.frontend().connection_count() == 2; }));
  // (3) a brand-new client joins via the ReconfigPending → ack flow.
  wires[kJoiner] = connect();
  EXPECT_NE(wires[kJoiner], nullptr);
  const auto join = perform_handshake(
      *wires[kJoiner],
      DistributionAnnouncement{ClientId(kJoiner), summary_for(kJoiner)});
  EXPECT_EQ(join, HandshakeResult::kAccepted);
  // (4) drive any residual swap to completion before phase B flows —
  // via the front-end so the swap holds the ingest lock that live
  // pollers contend on.
  server.frontend().reconfigure();
  EXPECT_FALSE(service.reconfig_pending());
  EXPECT_EQ(service.primed_generation(), registry.generation());
  EXPECT_GE(service.epoch(), 1u);

  // Phase B: the survivors and the joiner stream on their connections.
  stream_phase({0u, 2u, kJoiner}, w.phase_b, /*announce_first=*/false);
  EXPECT_EQ(write_failures.load(), 0);
  const PhaseTotals b = count(w.phase_b);
  EXPECT_TRUE(eventually([&server, &a, &b] {
    const FrontendTotals t = server.frontend().totals();
    return t.submits_in == a.submits + b.submits
           && t.heartbeats_in == a.heartbeats + b.heartbeats;
  }));
  SegmentSink after_b;
  {
    auto fn = after_b.sink();
    core::CallbackSink<decltype(fn)> sink(fn);
    server.frontend().pump(TimePoint(1.2), PumpOptions{.sink = &sink});
  }
  segments.push_back(std::move(after_b.batches));

  // Teardown: everyone departs; the final polls and flush drain the rest.
  // (join_readers below waits until every connection is done, so these
  // may hit the service directly.)
  for (std::uint32_t c : {0u, 2u, kJoiner}) wires[c]->close_write();
  server.frontend().join_readers();
  SegmentSink tail;
  {
    auto sink = tail.sink();
    service.poll(TimePoint(1.5), sink);
    service.poll(TimePoint(2.5), sink);
    service.flush(TimePoint(3.0), sink);
  }
  segments.push_back(std::move(tail.batches));
  server.stop();
  return segments;
}

// ── The direct-drive oracle ─────────────────────────────────────────────

/// Direct session calls performing the exact same announces, retirement,
/// join, and reconfigure at the exact same boundaries.
Segments run_oracle(ServiceConfig config, const ChurnWorkload& w) {
  ClientRegistry registry = make_registry(3);
  FairOrderingService service(registry, ids(3), config);
  std::array<std::optional<FairOrderingService::Session>, 4> sessions;
  for (std::uint32_t c : {0u, 1u, 2u}) {
    sessions[c] = service.open_session(ClientId(c));
  }

  auto feed = [&sessions](std::uint32_t c, const std::vector<Event>& events) {
    std::vector<core::Submission> batch;
    for (const Event& e : events) {
      if (e.is_heartbeat) {
        sessions[c]->submit_batch(
            std::span<const core::Submission>(batch));
        batch.clear();
        sessions[c]->heartbeat(e.stamp, e.stamp + kWireDelay);
      } else {
        batch.push_back(core::Submission{e.stamp, MessageId(e.id),
                                         e.stamp + kWireDelay});
      }
    }
    EXPECT_TRUE(batch.empty());  // phases end on a heartbeat
  };

  for (std::uint32_t c : {0u, 1u, 2u}) feed(c, w.phase_a[c]);
  Segments segments;
  SegmentSink boundary_poll;
  {
    auto sink = boundary_poll.sink();
    service.poll(TimePoint(1.05), sink);
  }
  segments.push_back(std::move(boundary_poll.batches));

  registry.announce(ClientId(0), w.mutated0);
  service.close_session(*sessions[kDeparter]);
  registry.announce(ClientId(kJoiner), summary_for(kJoiner));
  service.expect_client(ClientId(kJoiner));
  service.reconfigure();
  sessions[kJoiner] = service.open_session(ClientId(kJoiner));

  for (std::uint32_t c : {0u, 2u, kJoiner}) feed(c, w.phase_b[c]);
  SegmentSink after_b;
  {
    auto sink = after_b.sink();
    service.poll(TimePoint(1.2), sink);
  }
  segments.push_back(std::move(after_b.batches));

  for (std::uint32_t c : {0u, 2u, kJoiner}) {
    service.close_session(*sessions[c]);
  }
  SegmentSink tail;
  {
    auto sink = tail.sink();
    service.poll(TimePoint(1.5), sink);
    service.poll(TimePoint(2.5), sink);
    service.flush(TimePoint(3.0), sink);
  }
  segments.push_back(std::move(tail.batches));
  return segments;
}

// ── The acceptance criterion ────────────────────────────────────────────

void churn_equivalence(ServiceConfig config, bool use_tcp,
                       std::uint64_t seed) {
  const ChurnWorkload w = make_churn_workload(seed);
  const Segments oracle = run_oracle(config, w);
  const Segments churned = run_churned(config, w, use_tcp);

  ASSERT_EQ(oracle.size(), churned.size());
  for (std::size_t s = 0; s < oracle.size(); ++s) {
    ASSERT_EQ(oracle[s].size(), churned[s].size()) << "segment " << s;
    for (std::size_t i = 0; i < oracle[s].size(); ++i) {
      EXPECT_EQ(oracle[s][i], churned[s][i])
          << "segment " << s << " batch " << i;
    }
  }

  const auto all = flatten(churned);
  ASSERT_FALSE(all.empty());
  expect_sane_emissions(
      all, config.drain_policy == core::DrainPolicy::kGlobalMerge);

  // Retirement visibility: the poll after phase B emits phase-B stamps —
  // impossible if the departed client still pinned the gate at its last
  // phase-A heartbeat.
  bool phase_b_emitted = false;
  for (const CapturedBatch& batch : churned[1]) {
    for (const CapturedMessage& m : batch.messages) {
      if (m.stamp > kPhaseBBase) phase_b_emitted = true;
    }
  }
  EXPECT_TRUE(phase_b_emitted);

  // The full workload landed: 30 phase-A + 30 phase-B messages.
  std::size_t messages = 0;
  for (const CapturedBatch& batch : all) messages += batch.messages.size();
  EXPECT_EQ(messages, 60u);
}

TEST(ReconfigChurnSoak, TwoShardGlobalMergeMatchesTheOracleOverUnix) {
  ServiceConfig config;
  config.with_shards(2).with_p_safe(0.99).with_drain_policy(
      core::DrainPolicy::kGlobalMerge);
  for (int iter = 0; iter < soak_iterations(); ++iter) {
    churn_equivalence(config, /*use_tcp=*/false,
                      /*seed=*/21 + static_cast<std::uint64_t>(iter));
  }
}

TEST(ReconfigChurnSoak, TwoShardShardLocalMatchesTheOracleOverUnix) {
  ServiceConfig config;
  config.with_shards(2).with_p_safe(0.99);
  for (int iter = 0; iter < soak_iterations(); ++iter) {
    churn_equivalence(config, /*use_tcp=*/false,
                      /*seed=*/37 + static_cast<std::uint64_t>(iter));
  }
}

TEST(ReconfigChurnSoak, OneShardMatchesTheOracleOverUnix) {
  ServiceConfig config;
  config.with_p_safe(0.99);
  for (int iter = 0; iter < soak_iterations(); ++iter) {
    churn_equivalence(config, /*use_tcp=*/false,
                      /*seed=*/53 + static_cast<std::uint64_t>(iter));
  }
}

TEST(ReconfigChurnSoak, TwoShardGlobalMergeMatchesTheOracleOverTcp) {
  ServiceConfig config;
  config.with_shards(2).with_p_safe(0.99).with_drain_policy(
      core::DrainPolicy::kGlobalMerge);
  churn_equivalence(config, /*use_tcp=*/true, /*seed=*/71);
}

}  // namespace
}  // namespace tommy::net
