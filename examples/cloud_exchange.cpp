// Cloud exchange scenario — the paper's motivating auction-app (§1, §2).
//
// A market-data event is broadcast to traders; each fires an order within
// microseconds. Traders run in two "regions": a local one with tight
// clocks and a remote one whose clocks err by tens of microseconds (the
// multi-region deployment of §2 where WFO/Onyx-style designs break).
// We compare how often each sequencer awards the "trade" (first rank) to
// the truly-first order, and each design's overall fairness.
//
// The closing section runs the same order flow through the *online*
// front-end — a sharded FairOrderingService with one ingest Session per
// trader — to show what the exchange actually deploys: region-aligned
// shards whose completeness gates only wait on their own traders.
//
// Build & run:  ./build/examples/cloud_exchange
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/baselines.hpp"
#include "core/service.hpp"
#include "core/tommy_sequencer.hpp"
#include "metrics/ras.hpp"
#include "sim/offline_runner.hpp"
#include "stats/gaussian.hpp"

namespace {

using namespace tommy;
using namespace tommy::literals;

/// Two-region population: ids [0, n/2) local (σ ~ 2µs), rest remote
/// (σ ~ 40µs, biased means — cross-region sync asymmetry).
sim::Population two_region_population(std::size_t n, Rng& rng) {
  std::vector<sim::ClientSpec> clients;
  for (std::size_t k = 0; k < n; ++k) {
    const bool local = k < n / 2;
    const double mu = local ? rng.uniform(-2e-6, 2e-6)
                            : rng.uniform(-40e-6, 40e-6);
    const double sigma = local ? rng.uniform(1e-6, 3e-6)
                               : rng.uniform(20e-6, 60e-6);
    clients.push_back(sim::ClientSpec{
        ClientId(static_cast<std::uint32_t>(k)),
        std::make_unique<stats::Gaussian>(mu, sigma)});
  }
  return sim::Population(std::move(clients));
}

}  // namespace

int main() {
  constexpr std::size_t kTraders = 100;
  constexpr std::size_t kBursts = 50;

  Rng rng(2024);
  const sim::Population traders = two_region_population(kTraders, rng);

  // Market events every 10 ms; every trader reacts within 5-100 µs.
  const auto orders =
      sim::burst_workload(traders.ids(), kBursts, 10_ms, 5_us, 100_us, rng);
  sim::MaterializeConfig mat;
  mat.mean_net_delay = 150_us;  // cloud fabric, no equal-length wires:
                                // delay spread exceeds the reaction window
  const auto observed = sim::materialize_messages(traders, orders, mat, rng);

  core::ClientRegistry registry;
  traders.seed_registry(registry);

  core::TommySequencer tommy(registry);
  core::TrueTimeSequencer truetime(registry);
  core::WfoSequencer wfo;
  core::FifoSequencer fifo;

  std::printf("cloud exchange: %zu traders (half remote), %zu bursts, "
              "%zu orders\n\n", kTraders, kBursts, observed.size());
  std::printf("%-10s %12s %10s %12s %12s\n", "sequencer", "RAS", "batches",
              "correct", "incorrect");

  core::Sequencer* sequencers[] = {&tommy, &truetime, &wfo, &fifo};
  for (core::Sequencer* seq : sequencers) {
    const sim::SequencerScore score = sim::score_sequencer(*seq, observed);
    std::printf("%-10s %12.4f %10zu %12llu %12llu\n", score.sequencer.c_str(),
                score.ras.normalized(), score.batches.batch_count,
                static_cast<unsigned long long>(score.ras.correct),
                static_cast<unsigned long long>(score.ras.incorrect));
  }

  // Per-burst "who wins the trade": does the first-ranked order belong to
  // the truly-first trader? (Ties within a batch count as a win if the
  // true winner is anywhere in the first batch — it still has a chance
  // under random tie-breaking.)
  // "Reachable" alone can mislead: a sequencer that lumps a whole burst
  // into one batch trivially contains the winner but awards it a 1-in-N
  // lottery under tie-breaking. Expected wins = Σ 1/(first batch size)
  // over bursts where the winner is in the first batch.
  std::printf("\nfirst-order attribution per burst:\n");
  std::printf("  %-10s %12s %18s %15s\n", "sequencer", "reachable",
              "mean 1st batch", "expected wins");
  for (core::Sequencer* seq : sequencers) {
    std::size_t reachable = 0;
    double expected_wins = 0.0;
    double first_batch_sizes = 0.0;
    for (std::size_t b = 0; b < kBursts; ++b) {
      // Orders of this burst only.
      std::vector<sim::ObservedMessage> burst;
      for (std::size_t k = b * kTraders; k < (b + 1) * kTraders; ++k) {
        burst.push_back(observed[k]);
      }
      // True winner = smallest true time.
      const auto* winner = &burst.front();
      for (const auto& om : burst) {
        if (om.true_time < winner->true_time) winner = &om;
      }
      std::vector<core::Message> input;
      for (const auto& om : burst) input.push_back(om.message);
      const auto result = seq->sequence(std::move(input));
      const auto& first_batch = result.batches.front().messages;
      first_batch_sizes += static_cast<double>(first_batch.size());
      for (const core::Message& m : first_batch) {
        if (m.id == winner->message.id) {
          ++reachable;
          expected_wins += 1.0 / static_cast<double>(first_batch.size());
          break;
        }
      }
    }
    std::printf("  %-10s %7zu / %zu %18.1f %15.1f\n", seq->name().c_str(),
                reachable, kBursts,
                first_batch_sizes / static_cast<double>(kBursts),
                expected_wins);
  }

  std::printf(
      "\nTommy keeps fairness without equal-length wires (Fig. 4) or\n"
      "negligible clock error (Fig. 2): it batches what it cannot order\n"
      "confidently instead of guessing.\n");

  // ── The online front-end the exchange deploys ─────────────────────────
  // Each trader holds a Session into a FairOrderingService. With one
  // shard the remote region's wide clocks gate every emission; sharding
  // by client-id range puts the local region on shard 0 and the remote
  // region on shard 1, so local order flow clears its (tight) safe-
  // emission gates without waiting on remote uncertainty.
  std::printf("\nonline front-end (sessions + sharded service):\n");
  std::printf("  %-7s %10s %12s %17s %17s\n", "shards", "batches",
              "violations", "mean batch (all)", "mean batch (loc)");

  std::vector<sim::ObservedMessage> stream = observed;
  std::sort(stream.begin(), stream.end(),
            [](const sim::ObservedMessage& a, const sim::ObservedMessage& b) {
              if (a.message.arrival != b.message.arrival) {
                return a.message.arrival < b.message.arrival;
              }
              return a.message.id < b.message.id;
            });

  // Replay heartbeats lag their stamps behind sequencer time by more than
  // the network-delay tail: a heartbeat stamped `now − lag` only claims
  // the client's clock passed that instant, so it never vouches past
  // orders still in flight (which run_online gets for free from its FIFO
  // channels).
  const Duration heartbeat_lag = 2_ms;

  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    core::ServiceConfig service_config;
    service_config.with_p_safe(0.999).with_shards(shards);
    core::FairOrderingService service(registry, traders.ids(),
                                      service_config);

    std::vector<core::FairOrderingService::Session> sessions;
    sessions.reserve(kTraders);
    for (ClientId id : traders.ids()) {
      sessions.push_back(service.open_session(id));
    }

    std::size_t batches = 0;
    double batch_total = 0.0;
    std::size_t local_batches = 0;
    double local_batch_total = 0.0;
    auto sink = [&](core::EmissionRecord&& record, std::uint32_t) {
      ++batches;
      batch_total += static_cast<double>(record.batch.messages.size());
      const bool all_local = std::all_of(
          record.batch.messages.begin(), record.batch.messages.end(),
          [](const core::Message& m) {
            return m.client.value() < kTraders / 2;
          });
      if (all_local) {
        ++local_batches;
        local_batch_total +=
            static_cast<double>(record.batch.messages.size());
      }
    };

    TimePoint now = TimePoint::epoch();
    std::size_t k = 0;
    for (const sim::ObservedMessage& om : stream) {
      now = std::max(now, om.message.arrival);
      sessions[om.message.client.value()].submit(om.message.stamp,
                                                 om.message.id, now);
      if (++k % 64 == 0) {
        for (auto& session : sessions) {
          session.heartbeat(now - heartbeat_lag, now);
        }
        service.poll(now, sink);
      }
    }
    for (auto& session : sessions) {
      session.heartbeat(now + 10_s, now + 1_ms);
    }
    service.poll(now + 1_s, sink);

    std::printf(
        "  %-7u %10zu %12zu %17.1f %17.1f\n", shards, batches,
        service.fairness_violations(),
        batches > 0 ? batch_total / static_cast<double>(batches) : 0.0,
        local_batches > 0
            ? local_batch_total / static_cast<double>(local_batches)
            : 0.0);
  }
  std::printf(
      "sharding by id range aligns shards with regions: local-only\n"
      "batches shrink to near-singletons because local order flow no\n"
      "longer merges with remote traders' clock uncertainty.\n");
  return 0;
}
