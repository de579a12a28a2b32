// Online fair sequencing (§3.5, Appendix C).
//
// Messages stream in; the sequencer maintains a buffer of unemitted
// messages ordered by corrected stamp and repeatedly tries to emit the
// head batch. A batch B is emitted only when BOTH hold:
//
//  (Q1, safe emission) now >= T_b where T_b = max_{m in B} T^F_m and
//    P(T*_m < T^F_m) > p_safe. New arrivals that are not confidently
//    after every member of B merge into B (extending T_b), reproducing
//    Appendix C's behaviour where one high-uncertainty message pulls
//    temporally-distinct messages into its batch.
//
//  (Q2, completeness) for every expected client c the sequencer has seen a
//    message or heartbeat (over the per-client FIFO channel) whose stamp
//    implies — with probability >= p_safe — that any future message from c
//    must have true time past T_b: hw_c + Q_{θc}(1 − p_safe) >= T_b.
//    A client silent longer than `client_silence_timeout` is dropped from
//    this gate (the liveness trade-off §3.5 names: "a failed client may
//    halt the sequencer").
//
// Arrivals that confidently belonged at or before an already-emitted rank
// are counted as fairness violations (they are assigned to the next batch;
// the p_safe knob controls how rare this is).
//
// ── Ingest surface: sessions ────────────────────────────────────────────
//
// The hot ingest path is the per-connection `Session` handle returned by
// `open_session(client)`. A session caches the client's registry dense
// index, its completeness-gate slot, and the per-client corrected-stamp /
// safe-emission offsets once at open, so `session.submit(...)` and
// `session.heartbeat(...)` touch no hash map at all: the only per-message
// work beyond the buffer insert is one generation-counter compare (which
// detects registry re-announces and refreshes the cached offsets).
// Sessions are the only ingest surface: `open_session` builds the handle
// from the client's gate slot, and a caller that has only a ClientId per
// message keeps one handle per client.
//
// ── Hot-path design (critical gaps + incremental closure) ───────────────
//
// The sequencer never evaluates a probability on the hot path. Every
// buffered entry caches its corrected stamp, safe-emission time and dense
// client index once at ingest; every "confidently after" question is then
// a subtraction and a comparison against the engine's precomputed
// per-client-pair critical gap (see preceding.hpp for the derivation).
// The closure computation for the head batch maintains this invariant
// between polls:
//
//   head_valid_ ⟹ head_size_ = |head batch under BatchRule::kClosure| and
//   head_safe_  = max safe-emission time over that batch, for the buffer
//   as it currently stands.
//
// The cached pair survives across inserts because the closure is monotone
// under insertion beyond the head: new entries can never *unblock* an
// earlier cut (uncertain pairs only accumulate), so an insert invalidates
// the pair only when it (a) lands inside the current head batch — detected
// by one key compare against the cached last-head-row key — or (b) forms
// an uncertain pair with some head row — detected exactly, by scanning
// head rows nearest-first and stopping once the corrected-stamp gap
// exceeds the engine's global maximum critical gap. Recomputation itself
// is windowed the same way (a row's uncertain partners all lie within its
// max critical gap), so a poll costs O(batch + uncertainty window) instead
// of the naive O(n²) sweep.
//
// The pending buffer itself is a HoldbackBuffer — a counted chunked
// ordered sequence with O(log n)-comparison, bounded-move inserts — so a
// deep backlog (the adversarial regime, where uncertain messages pile up
// behind a closed gate) no longer degrades every insert to O(backlog)
// element moves the way the former sorted deque did. Head emission pops a
// prefix (whole chunks in O(1)); the insert-time head-boundary check needs
// no random access (one key compare + an O(head/B) prefix walk).
//
// The completeness gate (Q2) is a min-frontier heap rather than a scan:
// every heard, gate-active client keeps one node keyed by its cached
// frontier hw_c + Q_c(1 − p_safe), so an emission attempt peeks the root
// (the minimum frontier) in O(1) and each high-water advance is an
// O(log n) sift. Clients dropped by the silence timeout are removed at
// the gate check and re-enter with their next message/heartbeat; because
// that removal is only valid for forward-moving gate queries, a query
// earlier than the latest one falls back to an exact scan over the
// cached frontiers (see completeness_satisfied).
//
// The naive algorithm this re-derives — per-query probabilities, the
// closure recomputed from scratch at every emission attempt — lives on as
// the test oracle (tests/core/reference_sequencer.hpp); the randomized
// equivalence suites assert both emit bit-identical batch sequences.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/batching.hpp"
#include "core/holdback_buffer.hpp"
#include "core/preceding.hpp"
#include "core/sequencer.hpp"

namespace tommy::core {

struct OnlineConfig {
  /// Batch-boundary confidence (§3.4).
  double threshold{0.75};
  /// Safe-emission confidence (§3.5; e.g. 0.999).
  double p_safe{0.999};
  /// Drop a client from the completeness gate after this much sequencer
  /// time without any message/heartbeat. Infinite = never (strict
  /// fairness, no liveness under client failure). With a finite timeout a
  /// client that has NEVER spoken is excluded immediately — startup does
  /// not block on clients that may not exist; it re-enters the gate with
  /// its first message/heartbeat.
  Duration client_silence_timeout{Duration::infinity()};
  /// Engine configuration — only consulted when the sequencer builds its
  /// own engine (the registry constructor). The shared-engine constructor
  /// uses the engine's existing configuration instead.
  PrecedingConfig preceding{};
};

/// One element of a batched ingest (Session::submit_batch): the same
/// (stamp, id, arrival) triple submit() takes, as data.
struct Submission {
  TimePoint stamp;   // client's local clock at generation
  MessageId id;
  TimePoint arrival; // sequencer clock at receipt (the `now` of submit)
};

/// One emitted batch plus emission metadata.
struct EmissionRecord {
  Batch batch;
  TimePoint emitted_at;  // sequencer clock when emitted
  TimePoint safe_time;   // the T_b that gated it
};

/// Consumer of emitted batches (the allocation-free alternative to the
/// vector-returning poll/flush overloads): each record is handed over by
/// rvalue exactly once, in rank order per shard. `shard` is the emitting
/// shard's index when polled through a FairOrderingService; a bare
/// OnlineSequencer always reports shard 0.
class EmissionSink {
 public:
  virtual ~EmissionSink() = default;
  virtual void on_emission(EmissionRecord&& record, std::uint32_t shard) = 0;
};

class OnlineSequencer {
 public:
  /// Per-connection ingest handle; see the file header. Cheap to copy —
  /// it is a pointer plus cached per-client constants. Valid as long as
  /// the sequencer it came from is alive (the sequencer is pinned in
  /// memory: it is neither copyable nor movable). A handle survives
  /// registry re-announces of its client: the cached offsets refresh at
  /// the next call once the engine's generation has moved.
  class Session {
   public:
    Session() = default;

    /// Ingests one message stamped `stamp` (the client's local clock at
    /// generation) arriving at sequencer time `now`. `now` must be
    /// non-decreasing across the owning sequencer's ingests (FIFO
    /// channels deliver in order).
    void submit(TimePoint stamp, MessageId id, TimePoint now);

    /// Batched submit: equivalent to calling submit(item...) for every
    /// element in order, but the per-call overhead (re-prime check,
    /// generation compare, completeness-state maintenance) is paid once
    /// per batch instead of once per message. Arrivals must be
    /// non-decreasing within the span and respect the sequencer-wide
    /// FIFO contract like submit().
    void submit_batch(std::span<const Submission> items);

    /// Like submit/submit_batch but exempt from the cross-session FIFO
    /// arrival check: `now` may be out of order w.r.t. OTHER sessions'
    /// ingests (the sequencer tracks max arrival instead of asserting
    /// monotonicity). For consumers that drain several per-session FIFO
    /// queues in arbitrary order — FairOrderingService::Session::
    /// submit_batch applies the batches a front-end accumulates per
    /// connection this way. Emissions are unaffected: between two polls
    /// the buffer contents, completeness state and violation counts are
    /// ingest-order-independent (the buffer orders by corrected stamp,
    /// gate state is max-merged, violations compare each entry against
    /// the already-emitted set only).
    void submit_relaxed(TimePoint stamp, MessageId id, TimePoint now);
    void submit_batch_relaxed(std::span<const Submission> items);

    /// Ingests a heartbeat carrying the client's local `local_stamp`.
    void heartbeat(TimePoint local_stamp, TimePoint now);

    [[nodiscard]] ClientId client() const { return client_; }

   private:
    friend class OnlineSequencer;

    OnlineSequencer* sequencer_{nullptr};
    ClientId client_{};
    std::uint32_t cindex_{0};       // registry dense index
    std::uint32_t slot_{0};         // completeness-gate slot
    std::uint64_t generation_{0};   // registry generation of the offsets
    double mean_offset_{0.0};       // E[θ]  (corrected = stamp + mean)
    double safe_offset_{0.0};       // Q_θ(p_safe)
  };

  /// `expected_clients` is the fixed, known client set (§3.5's assumption
  /// for answering Q2). The registry must cover all of them. Builds a
  /// private PrecedingEngine from `config.preceding`.
  OnlineSequencer(const ClientRegistry& registry,
                  std::vector<ClientId> expected_clients,
                  OnlineConfig config = {});

  /// Shard constructor: runs against a caller-owned engine (and its
  /// registry), so several sequencers can share one primed engine's flat
  /// tables — the FairOrderingService path. `config.preceding` is ignored;
  /// the engine's own configuration rules.
  ///
  /// The sequencer treats the shared engine as an immutable epoch: the
  /// engine must already be primed for (config.threshold, config.p_safe),
  /// the sequencer never re-primes it, and sessions revalidate against the
  /// engine's fast_generation(). A registry announce therefore reaches the
  /// sequencer only when rebind_engine() installs a fresher engine.
  OnlineSequencer(std::shared_ptr<const PrecedingEngine> engine,
                  std::vector<ClientId> expected_clients,
                  OnlineConfig config = {});

  // Sessions cache a pointer to the sequencer; pin it in memory.
  OnlineSequencer(const OnlineSequencer&) = delete;
  OnlineSequencer& operator=(const OnlineSequencer&) = delete;

  /// Opens an ingest handle for `client` (which must be one of the
  /// expected clients — anything else is a precondition failure). May be
  /// called repeatedly; handles are independent and all stay valid.
  [[nodiscard]] Session open_session(ClientId client);

  /// Attempts emissions at sequencer time `now`; returns every batch that
  /// became safe, in rank order.
  [[nodiscard]] std::vector<EmissionRecord> poll(TimePoint now);

  /// Sink-style poll: hands each emitted batch to `sink` (tagged with
  /// `shard_tag`) instead of accumulating a vector. Returns the number of
  /// batches emitted.
  std::size_t poll(TimePoint now, EmissionSink& sink,
                   std::uint32_t shard_tag = 0);

  /// Shutdown path: emits everything still buffered as properly-batched
  /// ranks, ignoring the safe-emission and completeness gates. Use when
  /// the stream has provably ended (e.g. simulation teardown, market
  /// close); fairness w.r.t. still-in-flight messages is obviously not
  /// guaranteed. Ingest may continue afterwards: later arrivals simply
  /// start the next batch (and are counted as violations if they
  /// confidently belonged at an already-emitted rank).
  [[nodiscard]] std::vector<EmissionRecord> flush(TimePoint now);

  /// Sink-style flush; returns the number of batches emitted.
  std::size_t flush(TimePoint now, EmissionSink& sink,
                    std::uint32_t shard_tag = 0);

  /// T_b of the current head batch (infinite future if buffer empty) —
  /// callers can schedule the next poll at this instant.
  [[nodiscard]] TimePoint next_safe_time() const;

  [[nodiscard]] std::size_t pending_count() const { return buffer_.size(); }
  [[nodiscard]] Rank next_rank() const { return next_rank_; }

  /// Messages that arrived after a batch they confidently belonged in (or
  /// before) had already been emitted.
  [[nodiscard]] std::size_t fairness_violations() const {
    return fairness_violations_;
  }

  /// Clients currently excluded from the completeness gate by the
  /// silence timeout.
  [[nodiscard]] std::vector<ClientId> timed_out_clients(TimePoint now) const;

  /// Installs a new engine epoch: swaps the engine handle, registers any
  /// newly-expected clients (growing the completeness gate), and
  /// refreshes every cached constant — buffered entries, emitted-set
  /// entries, client frontiers, the gate heap — exactly as a re-prime
  /// would. Sessions refresh themselves lazily at their next call via the
  /// generation compare. The caller must guarantee no concurrent use of
  /// this sequencer (FairOrderingService installs between two caller
  /// operations); the new engine must be primed for this sequencer's
  /// (threshold, p_safe).
  void rebind_engine(std::shared_ptr<const PrecedingEngine> engine,
                     std::span<const ClientId> new_clients);

  /// Marks `client` as departed: it is removed from the completeness-gate
  /// frontier immediately (instead of stalling emissions until the
  /// silence timeout — or forever, with an infinite timeout). Already-
  /// buffered messages from the client still emit normally. A later
  /// message or heartbeat revives the client into the gate. Idempotent.
  void retire_client(ClientId client);

  /// True while `client` is marked departed (see retire_client).
  [[nodiscard]] bool is_departed(ClientId client) const;

  [[nodiscard]] const ClientRegistry& registry() const { return registry_; }

  /// The engine epoch this sequencer currently runs against.
  [[nodiscard]] const PrecedingEngine& engine() const { return *engine_; }

 private:
  /// A buffered (or recently emitted) message with its per-ingest cached
  /// constants: corrected stamp (the sort key), safe-emission time, and
  /// the dense client index keying the engine's flat tables.
  struct Buffered {
    Message msg;
    double corrected{0.0};
    TimePoint safe_time{TimePoint::epoch()};
    std::uint32_t cindex{0};
  };

  /// The buffer's strict weak order: (corrected stamp, message id). Ids
  /// are unique per stream, so keys are unique and every sort/insert
  /// order is deterministic.
  struct BufferedLess {
    bool operator()(const Buffered& lhs, const Buffered& rhs) const {
      if (lhs.corrected != rhs.corrected) {
        return lhs.corrected < rhs.corrected;
      }
      return lhs.msg.id < rhs.msg.id;
    }
  };

  struct ClientState {
    ClientId id;
    std::uint32_t cindex{0};
    TimePoint high_water{TimePoint(-std::numeric_limits<double>::infinity())};
    TimePoint last_heard{TimePoint(-std::numeric_limits<double>::infinity())};
    /// Cached completeness frontier hw + Q(1 − p_safe) (refreshed on
    /// every high-water advance and on re-prime).
    TimePoint frontier{TimePoint(-std::numeric_limits<double>::infinity())};
    bool heard{false};
    /// Departed clients (retire_client) are excluded from the
    /// completeness gate until they speak again.
    bool departed{false};
  };

  void init_expected_clients();
  /// Adds one client to the expected set mid-life (rebind_engine): grows
  /// slot_by_cindex_ / clients_ / heap_pos_. No-op for clients already
  /// expected.
  void register_client(ClientId client);
  /// Completeness-gate slot of `client` — the hash open_session and
  /// retire_client pay (registry id → dense index, then a flat array).
  /// Precondition: `client` is an expected client.
  [[nodiscard]] std::uint32_t slot_of(ClientId client) const;
  /// Re-reads a session's cached per-client offsets from the engine's
  /// flat tables and stamps it with the engine's generation.
  void refresh_session(Session& session) const;
  /// The session-table ingest core every entry surface shares. `relaxed`
  /// skips the cross-session FIFO arrival assertion (see
  /// Session::submit_relaxed) and tracks max arrival instead.
  void session_submit(Session& session, TimePoint stamp, MessageId id,
                      TimePoint now, bool relaxed);
  void session_submit_batch(Session& session,
                            std::span<const Submission> items, bool relaxed);
  void session_heartbeat(Session& session, TimePoint local_stamp,
                         TimePoint now);
  /// Completeness-state maintenance after a client advanced its
  /// high-water/last-heard: refreshes the cached frontier and fixes up the
  /// min-frontier heap.
  void touch_client(ClientState& state);
  /// Violation accounting + ordered buffer insert (keeping the cached
  /// head batch when the insert provably leaves it intact).
  void ingest(Buffered entry);
  void refresh_entry(Buffered& entry) const;
  /// Own engine only: re-primes the engine and refreshes cached entry
  /// constants after a registry re-announce (takes effect at the next
  /// entry-point call); a shared engine is never re-primed here. A
  /// re-announce can reorder corrected stamps relative to the stored
  /// buffer order, so the refresh re-sorts the buffer under the fresh
  /// keys — the sorted invariant (and with it every windowed early
  /// exit) holds unconditionally.
  void maybe_reprime();
  /// The shared tail of maybe_reprime() and rebind_engine(): refreshes
  /// every cached constant derived from the engine tables (buffer —
  /// re-keyed, re-sorted and rebuilt — emitted set, client frontiers,
  /// gate heap, head cache).
  void refresh_epoch_state();

  void recompute_head() const;
  [[nodiscard]] bool completeness_satisfied(TimePoint t_b, TimePoint now) const;
  /// Exact O(n) gate scan over the cached frontiers; the fallback for
  /// out-of-order gate queries (see completeness_satisfied).
  [[nodiscard]] bool completeness_scan(TimePoint t_b, TimePoint now) const;

  // Min-frontier heap (see completeness_satisfied). An indexed
  // binary min-heap over completeness-gate slots keyed by
  // clients_[slot].frontier: every heard, not-timed-out client has
  // exactly one node, so the gate is a peek at the root instead of a
  // scan over every expected client.
  void heap_sift_up(std::size_t pos) const;
  void heap_sift_down(std::size_t pos) const;
  void heap_insert(std::uint32_t slot) const;
  void heap_remove_top() const;
  /// General positional removal (retire_client needs to pull a node that
  /// is not the root).
  void heap_remove_at(std::size_t pos) const;
  void heap_rebuild() const;

  std::size_t drain(TimePoint now, bool ignore_gates, EmissionSink& sink,
                    std::uint32_t shard_tag);
  [[nodiscard]] EmissionRecord take_head(std::size_t size, TimePoint t_b,
                                         TimePoint now);

  // engine_ptr_ owns (or co-owns) the engine; engine_ is the raw pointer
  // the hot path dereferences (re-seated only by rebind_engine, never
  // null). Declared in this order on purpose.
  std::shared_ptr<const PrecedingEngine> engine_ptr_;
  const PrecedingEngine* engine_;
  const ClientRegistry& registry_;
  OnlineConfig config_;
  /// Built by the registry constructor: the only case that re-primes.
  bool owns_engine_{false};
  std::vector<ClientId> expected_clients_;
  std::vector<ClientState> clients_;  // parallel to expected_clients_
  /// Registry dense index → completeness-gate slot (kNoSlot = not an
  /// expected client). Dense replacement for the former
  /// unordered_map<ClientId, uint32_t> — the registry already assigns
  /// dense indices, so membership is one bounds check + one load.
  std::vector<std::uint32_t> slot_by_cindex_;

  /// Pending buffer: chunked ordered structure, O(log n) comparisons +
  /// bounded moves per insert.
  HoldbackBuffer<Buffered, BufferedLess> buffer_;
  Rank next_rank_{0};
  std::vector<Buffered> last_emitted_;  // for violation detection
  std::size_t fairness_violations_{0};
  /// Latest ingest arrival seen; enforces the FIFO-delivery contract
  /// (`arrival`/`now` non-decreasing across message ingests).
  TimePoint last_arrival_{TimePoint(-std::numeric_limits<double>::infinity())};

  // Completeness min-frontier heap. heap_ holds gate slots
  // (indices into clients_) as a binary min-heap on the cached frontier;
  // heap_pos_[slot] is the slot's position in heap_ (kNotInHeap when the
  // client is unheard or currently dropped from the gate by the silence
  // timeout — it re-enters with its next message/heartbeat). Mutable
  // because the gate check removes timed-out roots; last_gate_now_
  // records the latest gate-query time, the watermark below which the
  // heap's removals cannot be trusted (queries that travel back in time
  // fall back to the exact scan).
  mutable std::vector<std::uint32_t> heap_;
  mutable std::vector<std::uint32_t> heap_pos_;
  std::size_t unheard_count_{0};
  mutable TimePoint last_gate_now_{
      TimePoint(-std::numeric_limits<double>::infinity())};

  // Cached head-batch closure state; see file header.
  // head_last_corrected_/head_last_id_ cache the (corrected, id) key of
  // the LAST head row, so the insert-time "did it land inside the head?"
  // test is one key compare instead of a positional rank computation.
  mutable bool head_valid_{false};
  mutable std::size_t head_size_{0};
  mutable TimePoint head_safe_{
      TimePoint(-std::numeric_limits<double>::infinity())};
  mutable double head_last_corrected_{0.0};
  mutable MessageId head_last_id_{};
};

}  // namespace tommy::core
