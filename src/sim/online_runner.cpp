#include "sim/online_runner.hpp"

#include <memory>
#include <unordered_map>

#include "clock/local_clock.hpp"
#include "clock/offset_process.hpp"
#include "common/check.hpp"
#include "net/link.hpp"
#include "net/simulation.hpp"
#include "stats/analytic.hpp"

namespace tommy::sim {

namespace {

struct ClientEndpoint {
  std::unique_ptr<clock::LocalClock> local_clock;
  std::unique_ptr<net::OrderedChannel> channel;
  core::FairOrderingService::Session session;  // per-connection handle
};

net::DelayModel make_delay(const OnlineRunConfig& config, Rng& rng) {
  stats::DistributionPtr jitter;
  if (config.net_jitter_mean > Duration::zero()) {
    jitter = std::make_unique<stats::ShiftedExponential>(
        0.0, config.net_jitter_mean.seconds());
  }
  return net::DelayModel(config.net_base_delay, std::move(jitter),
                         rng.split());
}

}  // namespace

OnlineRunResult run_online(const Population& population,
                           const std::vector<GenEvent>& events,
                           const OnlineRunConfig& config, Rng& rng) {
  TOMMY_EXPECTS(!events.empty());

  net::Simulation sim;

  core::ClientRegistry registry;
  population.seed_registry(registry);
  core::ServiceConfig service_config;
  service_config.with_online(config.sequencer)
      .with_shards(config.shard_count)
      .with_router(config.router)
      .with_drain_policy(config.drain_policy);
  core::FairOrderingService service(registry, population.ids(),
                                    service_config);

  // Wire one clock + FIFO channel + ingest session per client.
  std::unordered_map<ClientId, ClientEndpoint> endpoints;
  for (const ClientSpec& spec : population.clients()) {
    ClientEndpoint ep;
    ep.local_clock = std::make_unique<clock::LocalClock>(
        sim, std::make_unique<clock::IidOffset>(spec.offset->clone(),
                                                rng.split()));
    ep.channel =
        std::make_unique<net::OrderedChannel>(sim, make_delay(config, rng));
    ep.session = service.open_session(spec.id);
    endpoints.emplace(spec.id, std::move(ep));
  }

  // Ground truth per message id, recorded at generation time.
  std::unordered_map<MessageId, TimePoint> truth;
  std::uint64_t next_id = 0;

  const TimePoint horizon =
      events.back().true_time + config.drain;

  // Schedule generation events.
  for (const GenEvent& event : events) {
    const MessageId id{next_id++};
    truth.emplace(id, event.true_time);
    sim.schedule_at(event.true_time, [&, id, event] {
      ClientEndpoint& ep = endpoints.at(event.client);
      const TimePoint stamp = ep.local_clock->read();  // T = t_true − θ
      ep.channel->send([&ep, &sim, id, stamp] {
        ep.session.submit(stamp, id, sim.now());
      });
    });
  }

  // Schedule heartbeats per client across the whole horizon.
  for (const ClientSpec& spec : population.clients()) {
    const ClientId client = spec.id;
    for (TimePoint t = TimePoint::epoch() + config.heartbeat_interval;
         t <= horizon; t += config.heartbeat_interval) {
      sim.schedule_at(t, [&, client] {
        ClientEndpoint& ep = endpoints.at(client);
        const TimePoint stamp = ep.local_clock->read();
        ep.channel->send([&ep, &sim, stamp] {
          ep.session.heartbeat(stamp, sim.now());
        });
      });
    }
  }

  // Poll loop, consuming batches through the emission sink.
  OnlineRunResult result;
  auto collect = [&result](core::EmissionRecord&& record,
                           std::uint32_t shard) {
    result.emissions.push_back(std::move(record));
    result.emission_shards.push_back(shard);
  };
  for (TimePoint t = TimePoint::epoch() + config.poll_interval; t <= horizon;
       t += config.poll_interval) {
    sim.schedule_at(t, [&] { service.poll(sim.now(), collect); });
  }

  sim.run();
  // Final drain poll after all traffic has landed.
  service.poll(sim.now(), collect);

  // Score. Ranks are assigned from the global emission sequence (equal to
  // the per-shard rank for a 1-shard service).
  std::vector<metrics::RankedMessage> ranked;
  std::vector<double> latencies;
  for (std::size_t r = 0; r < result.emissions.size(); ++r) {
    const core::EmissionRecord& record = result.emissions[r];
    for (const core::Message& m : record.batch.messages) {
      const TimePoint true_time = truth.at(m.id);
      ranked.push_back(metrics::RankedMessage{m.id, m.client, true_time,
                                              static_cast<Rank>(r)});
      latencies.push_back((record.emitted_at - true_time).seconds());
    }
  }
  result.emitted_messages = ranked.size();
  // Buffered in shards, plus (kGlobalMerge) messages inside batches the
  // merge is still withholding at the horizon.
  result.unemitted_messages =
      service.pending_count() + service.held_back_count();
  result.ras = metrics::rank_agreement(ranked);
  result.emission_latency = metrics::SummaryStats::from_samples(latencies);
  result.fairness_violations = service.fairness_violations();
  return result;
}

}  // namespace tommy::sim
