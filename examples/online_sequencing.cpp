// Online sequencing demo (§3.5 / Appendix C): a live stream of messages
// and heartbeats over FIFO channels, with safe-emission gating. Prints an
// event timeline so the waiting/merging behaviour is visible (driven
// through per-connection Session handles — the hash-free ingest surface),
// then runs a larger randomized stream through the sharded
// FairOrderingService and reports latency/violation statistics.
//
// Build & run:  ./build/examples/online_sequencing
#include <cstdio>

#include "core/online_sequencer.hpp"
#include "core/service.hpp"
#include "sim/online_runner.hpp"
#include "stats/gaussian.hpp"

namespace {

using namespace tommy;
using namespace tommy::literals;

void appendix_c_walkthrough() {
  std::printf("--- Appendix C walkthrough (session API) ---\n");
  core::ClientRegistry registry;
  registry.announce(ClientId(1), std::make_unique<stats::Gaussian>(0.0, 0.05));
  registry.announce(ClientId(2), std::make_unique<stats::Gaussian>(0.0, 1.0));

  core::OnlineConfig config;
  config.threshold = 0.75;
  config.p_safe = 0.999;
  core::OnlineSequencer seq(registry, {ClientId(1), ClientId(2)}, config);

  // One session per connected client: the dense index and per-client
  // offsets are resolved here, once, not per message.
  auto c1 = seq.open_session(ClientId(1));
  auto c2 = seq.open_session(ClientId(2));

  const auto report = [&seq](const char* what) {
    std::printf("%-34s pending=%zu next_safe=%gs\n", what,
                seq.pending_count(),
                seq.next_safe_time().is_finite()
                    ? seq.next_safe_time().seconds()
                    : -1.0);
  };

  // Step 1: C1's first message (true 100.0, stamp 100.0).
  c1.submit(TimePoint(100.0), MessageId(10), TimePoint(100.1));
  report("1a arrives (stamp 100.0)");

  // Step 2: C2's high-uncertainty message (true 100.2, stamp 100.6).
  c2.submit(TimePoint(100.6), MessageId(20), TimePoint(100.7));
  report("2 arrives  (stamp 100.6, wide)");

  // Step 3: C1's second message (true 100.3, stamp 100.3).
  c1.submit(TimePoint(100.3), MessageId(11), TimePoint(100.8));
  report("1b arrives (stamp 100.3)");

  // Step 4: safe emission. Heartbeats answer Q2; the poll past T_b emits
  // one merged batch {1a, 1b, 2}.
  c1.heartbeat(TimePoint(108.0), TimePoint(104.0));
  c2.heartbeat(TimePoint(108.0), TimePoint(104.0));
  const auto emissions = seq.poll(TimePoint(104.0));
  for (const core::EmissionRecord& e : emissions) {
    std::printf("emitted rank %llu at %.2fs (T_b=%.2fs):",
                static_cast<unsigned long long>(e.batch.rank),
                e.emitted_at.seconds(), e.safe_time.seconds());
    for (const core::Message& m : e.batch.messages) {
      std::printf(" msg%llu", static_cast<unsigned long long>(m.id.value()));
    }
    std::printf("\n");
  }
}

void randomized_stream() {
  std::printf("\n--- randomized online stream (FairOrderingService) ---\n");
  Rng rng(99);
  const sim::Population pop = sim::gaussian_population(30, 80e-6, rng);
  const auto events = sim::poisson_workload(pop.ids(), 2000, 100_us, rng);

  for (double p_safe : {0.99, 0.9999}) {
    sim::OnlineRunConfig config;
    config.sequencer.p_safe = p_safe;
    config.heartbeat_interval = 500_us;
    config.poll_interval = 100_us;
    config.drain = 100_ms;

    Rng run_rng(7);
    const sim::OnlineRunResult result =
        sim::run_online(pop, events, config, run_rng);
    std::printf(
        "p_safe=%.4f  emitted=%zu  ras=%.3f  violations=%zu  "
        "latency p50=%.2fms p99=%.2fms\n",
        p_safe, result.emitted_messages, result.ras.normalized(),
        result.fairness_violations, result.emission_latency.p50 * 1e3,
        result.emission_latency.p99 * 1e3);
  }
  std::printf(
      "higher p_safe: fewer fairness violations, higher emission latency\n");

  // The same stream through 1/2/4 shards: per-shard fairness is
  // preserved, the completeness gates decouple, and latency falls as
  // each shard only waits on its own clients.
  std::printf("\nshard sweep (p_safe=0.999, range router):\n");
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    sim::OnlineRunConfig config;
    config.sequencer.p_safe = 0.999;
    config.shard_count = shards;
    config.heartbeat_interval = 500_us;
    config.poll_interval = 100_us;
    config.drain = 100_ms;

    Rng run_rng(7);
    const sim::OnlineRunResult result =
        sim::run_online(pop, events, config, run_rng);
    std::printf(
        "shards=%u inline   emitted=%zu  batches=%zu  violations=%zu  "
        "latency p50=%.2fms p99=%.2fms\n",
        shards, result.emitted_messages, result.emissions.size(),
        result.fairness_violations, result.emission_latency.p50 * 1e3,
        result.emission_latency.p99 * 1e3);
  }

  // Consumers that need one total stream across shards: the global-merge
  // drain releases batches in (T_b, shard, rank) order, gated on
  // min(next_safe_time) across shards.
  std::printf("\nglobal-merge drain (4 shards):\n");
  {
    sim::OnlineRunConfig config;
    config.sequencer.p_safe = 0.999;
    config.shard_count = 4;
    config.drain_policy = core::DrainPolicy::kGlobalMerge;
    config.heartbeat_interval = 500_us;
    config.poll_interval = 100_us;
    config.drain = 100_ms;

    Rng run_rng(7);
    const sim::OnlineRunResult result =
        sim::run_online(pop, events, config, run_rng);
    std::size_t ordered_pairs = 0;
    for (std::size_t r = 1; r < result.emissions.size(); ++r) {
      if (result.emissions[r - 1].safe_time <= result.emissions[r].safe_time) {
        ++ordered_pairs;
      }
    }
    std::printf(
        "emitted=%zu  batches=%zu  safe-time-ordered pairs=%zu/%zu  "
        "withheld at horizon=%zu\n",
        result.emitted_messages, result.emissions.size(), ordered_pairs,
        result.emissions.empty() ? 0 : result.emissions.size() - 1,
        result.unemitted_messages);
  }
}

}  // namespace

int main() {
  appendix_c_walkthrough();
  randomized_stream();
  return 0;
}
