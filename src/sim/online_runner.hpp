// End-to-end online sequencing run (§3.5) on the discrete-event network:
// clients stamp messages with their noisy clocks and send them (plus
// periodic heartbeats) over per-client FIFO channels with random delay;
// the sequencing front-end is a FairOrderingService — each client holds a
// per-connection Session, batches are consumed through the emission sink,
// and the client set can be partitioned across shards. The runner scores
// fairness (RAS over emitted ranks), emission latency, and violation
// counts.
#pragma once

#include <cstdint>
#include <vector>

#include "core/service.hpp"
#include "metrics/ras.hpp"
#include "metrics/summary_stats.hpp"
#include "sim/population.hpp"
#include "sim/workload.hpp"

namespace tommy::sim {

struct OnlineRunConfig {
  core::OnlineConfig sequencer{};
  /// Shards in the FairOrderingService front-end (range-partitioned by
  /// client id unless `router` overrides). 1 reproduces the bare-
  /// sequencer behaviour exactly.
  std::uint32_t shard_count{1};
  /// Optional router override for the service partition.
  std::shared_ptr<const core::KeyRouter> router{};
  /// Emission drain policy for multi-shard runs (kGlobalMerge gives one
  /// total stream gated on min next_safe_time across shards).
  core::DrainPolicy drain_policy{core::DrainPolicy::kShardLocal};
  /// Per-client heartbeat period (local clock stamps, FIFO channel).
  Duration heartbeat_interval{Duration::from_millis(1)};
  /// How often the sequencer re-evaluates emission conditions.
  Duration poll_interval{Duration::from_micros(100)};
  /// Channel base propagation delay.
  Duration net_base_delay{Duration::from_micros(50)};
  /// Mean of the exponential jitter on top of the base delay.
  Duration net_jitter_mean{Duration::from_micros(20)};
  /// Extra simulated time after the last generation event, letting
  /// in-flight traffic land and final batches emit.
  Duration drain{Duration::from_millis(50)};
};

struct OnlineRunResult {
  /// Every emitted batch, in emission order (shards visited in index
  /// order within one poll). With one shard this is exactly the bare
  /// sequencer's rank order.
  std::vector<core::EmissionRecord> emissions;
  /// Emitting shard of each record, parallel to `emissions`.
  std::vector<std::uint32_t> emission_shards;
  metrics::RasBreakdown ras;                 // over emitted messages
  metrics::SummaryStats emission_latency;    // emitted_at − true_time (s)
  std::size_t fairness_violations{0};
  std::size_t emitted_messages{0};
  std::size_t unemitted_messages{0};  // still buffered at the end
};

/// Runs the full scenario. The registry given to the service is seeded
/// with the population's true distributions (§4 upper-bound setup). RAS
/// is scored over the global emission order (per-shard ranks are dense
/// but shard-local; the emission sequence is the service's merged output
/// order, which for shard_count == 1 coincides with the rank order).
[[nodiscard]] OnlineRunResult run_online(const Population& population,
                                         const std::vector<GenEvent>& events,
                                         const OnlineRunConfig& config,
                                         Rng& rng);

}  // namespace tommy::sim
