// Sequencer throughput: offline sequencing cost on the Gaussian fast path
// versus the general tournament path, the baselines, and the online
// ingest cost across its surfaces — the Session handle (hash-free),
// batched session submits, and the sharded FairOrderingService (sessions
// + sink emission, 1/2/4 shards).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/latency_histogram.hpp"
#include "core/baselines.hpp"
#include "core/online_sequencer.hpp"
#include "core/service.hpp"
#include "core/tommy_sequencer.hpp"
#include "sim/offline_runner.hpp"
#include "stats/gaussian.hpp"

namespace {

using namespace tommy;
using namespace tommy::literals;

struct Workbench {
  sim::Population population;
  std::vector<core::Message> messages;
  core::ClientRegistry registry;

  Workbench(std::size_t clients, std::size_t count, Rng rng)
      : population(sim::gaussian_population(clients, 20e-6, rng)) {
    const auto events =
        sim::poisson_workload(population.ids(), count, 10_us, rng);
    const auto observed = sim::materialize_messages(
        population, events, sim::MaterializeConfig{}, rng);
    for (const auto& om : observed) messages.push_back(om.message);
    population.seed_registry(registry);
  }
};

void BM_TommyFastPath(benchmark::State& state) {
  Workbench bench(100, static_cast<std::size_t>(state.range(0)), Rng(3));
  core::TommySequencer seq(bench.registry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq.sequence(bench.messages));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TommyFastPath)->RangeMultiplier(4)->Range(256, 65536);

void BM_TommyTournamentPath(benchmark::State& state) {
  Workbench bench(100, static_cast<std::size_t>(state.range(0)), Rng(3));
  core::TommyConfig config;
  config.gaussian_fast_path = false;
  core::TommySequencer seq(bench.registry, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq.sequence(bench.messages));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TommyTournamentPath)->RangeMultiplier(4)->Range(64, 1024);

void BM_TrueTime(benchmark::State& state) {
  Workbench bench(100, static_cast<std::size_t>(state.range(0)), Rng(3));
  core::TrueTimeSequencer seq(bench.registry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq.sequence(bench.messages));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrueTime)->RangeMultiplier(4)->Range(256, 65536);

void BM_Wfo(benchmark::State& state) {
  Workbench bench(100, static_cast<std::size_t>(state.range(0)), Rng(3));
  core::WfoSequencer seq;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq.sequence(bench.messages));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Wfo)->RangeMultiplier(4)->Range(256, 65536);

void BM_OnlineSteadyStateDrain(benchmark::State& state) {
  // Production shape: ingest interleaved with heartbeats and frequent
  // polls, so batches emit continuously and the buffer stays at its
  // steady-state depth (the emission lag) instead of growing to the full
  // burst. This is the regime the incremental closure targets.
  const auto count = static_cast<std::size_t>(state.range(0));
  Workbench bench(50, count, Rng(7));
  for (auto _ : state) {
    state.PauseTiming();
    core::OnlineConfig config;
    config.p_safe = 0.999;
    core::OnlineSequencer seq(bench.registry, bench.population.ids(), config);
    std::vector<core::OnlineSequencer::Session> sessions;
    sessions.reserve(bench.population.size());
    for (ClientId c : bench.population.ids()) {
      sessions.push_back(seq.open_session(c));
    }
    state.ResumeTiming();

    TimePoint now(0.0);
    std::size_t k = 0;
    for (const core::Message& m : bench.messages) {
      now = std::max(now, m.arrival);
      sessions[m.client.value()].submit(m.stamp, m.id, now);
      ++k;
      if (k % 256 == 0) {
        for (auto& session : sessions) session.heartbeat(now, now);
      }
      if (k % 64 == 0) benchmark::DoNotOptimize(seq.poll(now));
    }
    for (auto& session : sessions) {
      session.heartbeat(now + 10_s, now + 1_ms);
    }
    benchmark::DoNotOptimize(seq.poll(now + 1_s));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OnlineSteadyStateDrain)->RangeMultiplier(4)->Range(1024, 65536);

void BM_SessionIngestAndPoll(benchmark::State& state) {
  // Per-message online cost: ingest a burst through per-connection
  // Session handles, then drain it. The ingest hot path runs with zero
  // hash lookups (the dense index and per-client offsets are cached in
  // the handle at open).
  const auto count = static_cast<std::size_t>(state.range(0));
  Workbench bench(50, count, Rng(5));
  for (auto _ : state) {
    state.PauseTiming();
    core::OnlineConfig config;
    config.p_safe = 0.999;
    core::OnlineSequencer seq(bench.registry, bench.population.ids(), config);
    std::vector<core::OnlineSequencer::Session> sessions;
    sessions.reserve(bench.population.size());
    for (ClientId c : bench.population.ids()) {
      sessions.push_back(seq.open_session(c));
    }
    state.ResumeTiming();

    TimePoint now(0.0);
    for (const core::Message& m : bench.messages) {
      now = std::max(now, m.arrival);
      sessions[m.client.value()].submit(m.stamp, m.id, now);
    }
    for (auto& session : sessions) {
      session.heartbeat(now + 10_s, now + 1_ms);
    }
    benchmark::DoNotOptimize(seq.poll(now + 1_s));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SessionIngestAndPoll)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536);

void BM_SessionChunkedReplay(benchmark::State& state) {
  // The wire front-end's ingest shape (each connection accumulates its
  // decoded submits and applies them through Session::submit_batch):
  // messages regrouped into per-session runs of up to 64, applied run by
  // run. range(1) selects the application
  // surface over the IDENTICAL run sequence — 0: a submit_relaxed call
  // per message; 1: one submit_batch_relaxed per run, which hoists the
  // re-prime check, the generation compare and the completeness-gate
  // maintenance out of the per-message loop. The delta between the two
  // is the pure per-call overhead the batched surface amortizes.
  const auto count = static_cast<std::size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  Workbench bench(50, count, Rng(5));

  // Pre-chunk the arrival-ordered stream into per-client runs.
  std::vector<std::pair<std::size_t, std::vector<core::Submission>>> runs;
  {
    TimePoint now(0.0);
    std::vector<std::vector<core::Submission>> pending(
        bench.population.size());
    std::size_t buffered = 0;
    auto cut = [&] {
      for (std::size_t c = 0; c < pending.size(); ++c) {
        if (pending[c].empty()) continue;
        runs.emplace_back(c, std::move(pending[c]));
        pending[c] = {};
      }
      buffered = 0;
    };
    for (const core::Message& m : bench.messages) {
      now = std::max(now, m.arrival);
      pending[m.client.value()].push_back(
          core::Submission{m.stamp, m.id, now});
      if (++buffered == 64) cut();
    }
    cut();
  }

  for (auto _ : state) {
    state.PauseTiming();
    core::OnlineConfig config;
    config.p_safe = 0.999;
    core::OnlineSequencer seq(bench.registry, bench.population.ids(), config);
    std::vector<core::OnlineSequencer::Session> sessions;
    sessions.reserve(bench.population.size());
    for (ClientId c : bench.population.ids()) {
      sessions.push_back(seq.open_session(c));
    }
    state.ResumeTiming();

    TimePoint now(0.0);
    for (const auto& [c, items] : runs) {
      if (batched) {
        sessions[c].submit_batch_relaxed(items);
      } else {
        for (const core::Submission& item : items) {
          sessions[c].submit_relaxed(item.stamp, item.id, item.arrival);
        }
      }
      now = std::max(now, items.back().arrival);
    }
    for (auto& session : sessions) {
      session.heartbeat(now + 10_s, now + 1_ms);
    }
    benchmark::DoNotOptimize(seq.poll(now + 1_s));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SessionChunkedReplay)
    ->ArgsProduct({{4096, 16384, 65536}, {0, 1}});

void BM_ServiceIngestAndPoll(benchmark::State& state) {
  // The full service surface: burst ingest through sessions into a
  // range-sharded FairOrderingService, drained through the emission sink
  // (no intermediate vectors). range(0) = messages, range(1) = shards.
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::uint32_t>(state.range(1));
  Workbench bench(50, count, Rng(5));
  for (auto _ : state) {
    state.PauseTiming();
    core::ServiceConfig config;
    config.with_p_safe(0.999).with_shards(shards);
    std::optional<core::FairOrderingService> service;
    service.emplace(bench.registry, bench.population.ids(), config);
    std::vector<core::FairOrderingService::Session> sessions;
    sessions.reserve(bench.population.size());
    for (ClientId c : bench.population.ids()) {
      sessions.push_back(service->open_session(c));
    }
    state.ResumeTiming();

    TimePoint now(0.0);
    for (const core::Message& m : bench.messages) {
      now = std::max(now, m.arrival);
      sessions[m.client.value()].submit(m.stamp, m.id, now);
    }
    for (auto& session : sessions) {
      session.heartbeat(now + 10_s, now + 1_ms);
    }
    std::size_t emitted = 0;
    service->poll(now + 1_s, [&](core::EmissionRecord&& record,
                                 std::uint32_t) { emitted += record.batch.messages.size(); });
    benchmark::DoNotOptimize(emitted);

    // Teardown outside the timed region, like the set-up.
    state.PauseTiming();
    service.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ServiceIngestAndPoll)
    ->ArgsProduct({{4096, 16384, 65536}, {1, 2, 4}})
    ->UseRealTime();

void BM_ServiceSteadyStateDrain(benchmark::State& state) {
  // Steady-state service shape: interleaved sessions ingest, heartbeats,
  // frequent sink polls; multi-shard buffers stay at emission-lag depth.
  // range(0) = messages, range(1) = shards.
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::uint32_t>(state.range(1));
  Workbench bench(50, count, Rng(7));
  for (auto _ : state) {
    state.PauseTiming();
    core::ServiceConfig config;
    config.with_p_safe(0.999).with_shards(shards);
    std::optional<core::FairOrderingService> service;
    service.emplace(bench.registry, bench.population.ids(), config);
    std::vector<core::FairOrderingService::Session> sessions;
    sessions.reserve(bench.population.size());
    for (ClientId c : bench.population.ids()) {
      sessions.push_back(service->open_session(c));
    }
    state.ResumeTiming();

    std::size_t emitted = 0;
    auto sink = [&](core::EmissionRecord&& record, std::uint32_t) {
      emitted += record.batch.messages.size();
    };
    TimePoint now(0.0);
    std::size_t k = 0;
    for (const core::Message& m : bench.messages) {
      now = std::max(now, m.arrival);
      sessions[m.client.value()].submit(m.stamp, m.id, now);
      ++k;
      if (k % 256 == 0) {
        for (auto& session : sessions) session.heartbeat(now, now);
      }
      if (k % 64 == 0) service->poll(now, sink);
    }
    for (auto& session : sessions) {
      session.heartbeat(now + 10_s, now + 1_ms);
    }
    service->poll(now + 1_s, sink);
    benchmark::DoNotOptimize(emitted);

    state.PauseTiming();  // teardown outside the clock
    service.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ServiceSteadyStateDrain)
    ->ArgsProduct({{4096, 65536}, {1, 2, 4}})
    ->UseRealTime();

void BM_BackloggedInsertRelease(benchmark::State& state) {
  // The quadratic-collapse regression gate. One expected client never
  // speaks, so the completeness gate stays shut while range(0) messages
  // pile into the pending buffer — every insert lands in a buffer of
  // depth ~i. The old flat sorted buffer paid an O(i) shift per insert
  // (an O(N²) ramp that only the tail of the latency distribution saw
  // early); the chunked HoldbackBuffer pays O(B + log i). Each insert is
  // clocked individually into an HDR-style histogram and the tracked
  // fields are its tail: insert_p50/p99/p999_ns. Sub-linear growth of
  // ns-per-item from 10k to 200k held messages is the acceptance bar.
  const auto count = static_cast<std::size_t>(state.range(0));
  Workbench bench(50, count, Rng(9));
  // An announced 51st client that stays silent holds the gate shut no
  // matter what the speakers do.
  const ClientId mute(static_cast<std::uint32_t>(bench.population.size()));
  bench.registry.announce(mute, std::make_unique<stats::Gaussian>(0.0, 20e-6));
  std::vector<ClientId> expected = bench.population.ids();
  expected.push_back(mute);

  tommy::LatencyHistogram inserts;
  double release_seconds = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    core::OnlineConfig config;
    config.p_safe = 0.999;
    core::OnlineSequencer seq(bench.registry, expected, config);
    std::vector<core::OnlineSequencer::Session> sessions;
    sessions.reserve(bench.population.size());
    for (ClientId c : bench.population.ids()) {
      sessions.push_back(seq.open_session(c));
    }
    core::OnlineSequencer::Session mute_session = seq.open_session(mute);
    state.ResumeTiming();

    TimePoint now(0.0);
    for (const core::Message& m : bench.messages) {
      now = std::max(now, m.arrival);
      const auto t0 = std::chrono::steady_clock::now();
      sessions[m.client.value()].submit(m.stamp, m.id, now);
      const auto t1 = std::chrono::steady_clock::now();
      inserts.record_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
    // Everything is still held: the gate never opened.
    benchmark::DoNotOptimize(seq.pending_count());

    // Open the gate (the mute client finally heartbeats) and release the
    // whole backlog in one drain.
    const auto r0 = std::chrono::steady_clock::now();
    for (auto& session : sessions) {
      session.heartbeat(now + 10_s, now + 1_ms);
    }
    mute_session.heartbeat(now + 10_s, now + 1_ms);
    benchmark::DoNotOptimize(seq.poll(now + 1_s));
    const auto r1 = std::chrono::steady_clock::now();
    release_seconds += std::chrono::duration<double>(r1 - r0).count();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["insert_p50_ns"] =
      benchmark::Counter(static_cast<double>(inserts.percentile_ns(0.50)));
  state.counters["insert_p99_ns"] =
      benchmark::Counter(static_cast<double>(inserts.percentile_ns(0.99)));
  state.counters["insert_p999_ns"] =
      benchmark::Counter(static_cast<double>(inserts.percentile_ns(0.999)));
  state.counters["release_ms_per_iter"] = benchmark::Counter(
      1e3 * release_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BackloggedInsertRelease)
    ->Arg(10000)
    ->Arg(50000)
    ->Arg(200000)
    ->UseRealTime();

void BM_ServiceReconfigSwap(benchmark::State& state) {
  // Live-reconfiguration cost on an idle service: one mutating
  // re-announce followed by the full RCU epoch swap (off-thread prime to
  // the new generation, then the install). range(0) = clients; 2 shards.
  const auto clients = static_cast<std::size_t>(state.range(0));
  Workbench bench(clients, 8192, Rng(11));
  core::ServiceConfig config;
  config.with_p_safe(0.999).with_shards(2);
  core::FairOrderingService service(bench.registry, bench.population.ids(),
                                    config);

  double sigma = 20e-6;
  for (auto _ : state) {
    sigma = sigma == 20e-6 ? 25e-6 : 20e-6;  // a real change every swap
    bench.registry.announce(ClientId(0),
                            std::make_unique<stats::Gaussian>(0.0, sigma));
    service.reconfigure();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceReconfigSwap)->Arg(64)->UseRealTime();

}  // namespace

#ifndef TOMMY_BUILD_TYPE
#define TOMMY_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  // Provenance for the tracked BENCH_throughput.json: the library's build
  // type (the stock "library_build_type" context reflects how
  // libbenchmark itself was compiled, not this code) and the shard grid
  // the service benchmarks sweep.
  benchmark::AddCustomContext("tommy_build_type", TOMMY_BUILD_TYPE);
  benchmark::AddCustomContext(
      "hardware_threads",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("service_shard_configs", "1,2,4");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
