// The Tommy fair sequencer (§3.4, offline): builds likely-happened-before
// relations from the preceding-probability engine, extracts a linear order,
// and cuts it into confidence batches.
//
// Ordering strategy:
//  * Gaussian fast path — when every registered distribution is Gaussian,
//    Appendix A reduces pairwise comparison to corrected means, so sorting
//    by T + μ yields the transitive tournament's unique topological order
//    without materializing O(n²) probabilities.
//  * Tournament path — otherwise (or when forced), the full tournament is
//    built. If it is transitive, its unique Hamiltonian path is the order.
//    If cyclic, the configured CyclePolicy applies:
//      kCondense      — SCC condensation; every cycle's members share a
//                       batch (maximally conservative, the default),
//      kGreedyFas     — Eades–Lin–Smyth weighted feedback-arc heuristic,
//      kStochasticFas — randomized order sampled from the probabilities
//                       (stochastically fair across rounds, §3.4/§5),
//      kExactFas      — exact minimum FAS (n <= 20 only; test oracle).
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "core/batching.hpp"
#include "core/preceding.hpp"
#include "core/sequencer.hpp"
#include "graph/transitivity.hpp"

namespace tommy::core {

enum class CyclePolicy { kCondense, kGreedyFas, kStochasticFas, kExactFas };

struct TommyConfig {
  /// Batch-boundary confidence (§3.4; the paper evaluates with 0.75).
  double threshold{0.75};
  /// Boundary rule along the linear order (see BatchRule).
  BatchRule batch_rule{BatchRule::kAdjacent};
  CyclePolicy cycle_policy{CyclePolicy::kCondense};
  /// Allow the corrected-mean sort when all distributions are Gaussian.
  bool gaussian_fast_path{true};
  /// Upper bound on messages for the O(n²) tournament path.
  std::size_t max_tournament_nodes{4096};
  /// Seed for kStochasticFas order sampling.
  std::uint64_t stochastic_seed{0x70AA5EEDULL};
  /// Fill TommyDiagnostics::transitivity on the tournament path. O(n³) —
  /// diagnostics only, off by default.
  bool analyze_transitivity{false};
  PrecedingConfig preceding{};
};

/// Post-run introspection for tests and benches.
struct TommyDiagnostics {
  bool used_gaussian_fast_path{false};
  bool tournament_transitive{true};
  std::size_t scc_count{0};        // condensation components (kCondense)
  std::size_t fas_removed_edges{0};  // backward edges dropped (FAS policies)
  double fas_removed_weight{0.0};
  /// Only populated when TommyConfig::analyze_transitivity is set and the
  /// tournament path ran (§5's "characterization of —p→" diagnostics).
  graph::TransitivityReport transitivity{};
};

class TommySequencer final : public Sequencer {
 public:
  /// The registry must contain every client appearing in messages and must
  /// outlive the sequencer.
  TommySequencer(const ClientRegistry& registry, TommyConfig config = {});

  [[nodiscard]] SequencerResult sequence(
      std::vector<Message> messages) override;
  [[nodiscard]] std::string name() const override { return "tommy"; }

  [[nodiscard]] const TommyDiagnostics& last_diagnostics() const {
    return diagnostics_;
  }
  [[nodiscard]] const PrecedingEngine& engine() const { return engine_; }
  [[nodiscard]] const TommyConfig& config() const { return config_; }

 private:
  [[nodiscard]] SequencerResult sequence_fast_gaussian(
      std::vector<Message> messages);
  [[nodiscard]] SequencerResult sequence_tournament(
      std::vector<Message> messages);
  /// The batch-boundary predicate `p(a, b) > threshold`: one subtraction
  /// against the primed per-pair critical gap, no probability evaluated.
  [[nodiscard]] PairConfidenceFn boundary_predicate() const;

  ClientRegistry const& registry_;
  TommyConfig config_;
  PrecedingEngine engine_;
  Rng stochastic_rng_;
  TommyDiagnostics diagnostics_{};
};

}  // namespace tommy::core
