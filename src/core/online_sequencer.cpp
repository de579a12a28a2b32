#include "core/online_sequencer.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace tommy::core {

namespace {

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kNotInHeap = std::numeric_limits<std::uint32_t>::max();

/// Adapts the vector-returning poll/flush overloads onto the sink drain.
class VectorSink final : public EmissionSink {
 public:
  explicit VectorSink(std::vector<EmissionRecord>& out) : out_(out) {}
  void on_emission(EmissionRecord&& record, std::uint32_t) override {
    out_.push_back(std::move(record));
  }

 private:
  std::vector<EmissionRecord>& out_;
};

std::shared_ptr<const PrecedingEngine> require_engine(
    std::shared_ptr<const PrecedingEngine> engine) {
  TOMMY_EXPECTS(engine != nullptr);
  return engine;
}

}  // namespace

OnlineSequencer::OnlineSequencer(const ClientRegistry& registry,
                                 std::vector<ClientId> expected_clients,
                                 OnlineConfig config)
    : engine_ptr_(std::make_shared<const PrecedingEngine>(registry,
                                                          config.preceding)),
      engine_(engine_ptr_.get()),
      registry_(registry),
      config_(config),
      owns_engine_(true),
      expected_clients_(std::move(expected_clients)) {
  init_expected_clients();
  engine_->prime(config_.threshold, config_.p_safe);
}

OnlineSequencer::OnlineSequencer(std::shared_ptr<const PrecedingEngine> engine,
                                 std::vector<ClientId> expected_clients,
                                 OnlineConfig config)
    : engine_ptr_(require_engine(std::move(engine))),
      engine_(engine_ptr_.get()),
      registry_(engine_ptr_->registry()),
      config_(config),
      expected_clients_(std::move(expected_clients)) {
  // The engine's owner primes it; every sequencer sharing it must agree on
  // (threshold, p_safe), since none of them may re-prime it.
  TOMMY_EXPECTS(engine_->fast_params_match(config_.threshold, config_.p_safe));
  init_expected_clients();
}

void OnlineSequencer::init_expected_clients() {
  TOMMY_EXPECTS(config_.threshold > 0.5 && config_.threshold < 1.0);
  TOMMY_EXPECTS(config_.p_safe > 0.5 && config_.p_safe < 1.0);
  TOMMY_EXPECTS(!expected_clients_.empty());
  clients_.reserve(expected_clients_.size());
  slot_by_cindex_.assign(registry_.size(), kNoSlot);
  for (ClientId c : expected_clients_) {
    TOMMY_EXPECTS(registry_.contains(c));
    const std::uint32_t cindex = registry_.index_of(c);
    if (slot_by_cindex_[cindex] != kNoSlot) {
      continue;  // duplicate expected client: one gate entry
    }
    slot_by_cindex_[cindex] = static_cast<std::uint32_t>(clients_.size());
    ClientState state;
    state.id = c;
    state.cindex = cindex;
    clients_.push_back(state);
  }
  unheard_count_ = clients_.size();
  heap_.reserve(clients_.size());
  heap_pos_.assign(clients_.size(), kNotInHeap);
}

void OnlineSequencer::register_client(ClientId client) {
  TOMMY_EXPECTS(registry_.contains(client));
  const std::uint32_t cindex = registry_.index_of(client);
  if (cindex >= slot_by_cindex_.size()) {
    slot_by_cindex_.resize(registry_.size(), kNoSlot);
  }
  if (slot_by_cindex_[cindex] != kNoSlot) return;  // already expected
  const auto slot = static_cast<std::uint32_t>(clients_.size());
  slot_by_cindex_[cindex] = slot;
  expected_clients_.push_back(client);
  ClientState state;
  state.id = client;
  state.cindex = cindex;
  clients_.push_back(state);
  ++unheard_count_;
  heap_pos_.push_back(kNotInHeap);
}

std::uint32_t OnlineSequencer::slot_of(ClientId client) const {
  // Unknown-to-the-registry clients die inside index_of; clients the
  // registry knows but this sequencer does not expect die here. Both are
  // configuration errors.
  const std::uint32_t cindex = registry_.index_of(client);
  TOMMY_EXPECTS(cindex < slot_by_cindex_.size() &&
                slot_by_cindex_[cindex] != kNoSlot);
  return slot_by_cindex_[cindex];
}

void OnlineSequencer::refresh_session(Session& session) const {
  session.generation_ = engine_->fast_generation();
  session.mean_offset_ = engine_->fast_mean(session.cindex_);
  session.safe_offset_ = engine_->fast_safe_offset(session.cindex_);
}

OnlineSequencer::Session OnlineSequencer::open_session(ClientId client) {
  maybe_reprime();  // a fresh handle starts from current tables
  const std::uint32_t slot = slot_of(client);
  Session session;
  session.sequencer_ = this;
  session.client_ = clients_[slot].id;
  session.cindex_ = clients_[slot].cindex;
  session.slot_ = slot;
  refresh_session(session);
  return session;
}

void OnlineSequencer::Session::submit(TimePoint stamp, MessageId id,
                                      TimePoint now) {
  TOMMY_EXPECTS(sequencer_ != nullptr);
  sequencer_->session_submit(*this, stamp, id, now, /*relaxed=*/false);
}

void OnlineSequencer::Session::submit_relaxed(TimePoint stamp, MessageId id,
                                              TimePoint now) {
  TOMMY_EXPECTS(sequencer_ != nullptr);
  sequencer_->session_submit(*this, stamp, id, now, /*relaxed=*/true);
}

void OnlineSequencer::Session::submit_batch(
    std::span<const Submission> items) {
  TOMMY_EXPECTS(sequencer_ != nullptr);
  sequencer_->session_submit_batch(*this, items, /*relaxed=*/false);
}

void OnlineSequencer::Session::submit_batch_relaxed(
    std::span<const Submission> items) {
  TOMMY_EXPECTS(sequencer_ != nullptr);
  sequencer_->session_submit_batch(*this, items, /*relaxed=*/true);
}

void OnlineSequencer::Session::heartbeat(TimePoint local_stamp,
                                         TimePoint now) {
  TOMMY_EXPECTS(sequencer_ != nullptr);
  sequencer_->session_heartbeat(*this, local_stamp, now);
}

void OnlineSequencer::touch_client(ClientState& state) {
  state.departed = false;  // hearing from a retired client revives it
  if (!state.heard) {
    state.heard = true;
    TOMMY_ASSERT(unheard_count_ > 0);
    --unheard_count_;
  }
  const TimePoint frontier =
      engine_->fast_completeness_frontier(state.cindex, state.high_water);
  const auto slot = static_cast<std::uint32_t>(&state - clients_.data());
  if (heap_pos_[slot] == kNotInHeap) {
    // First word from this client, or its re-entry into the gate after a
    // silence-timeout removal.
    state.frontier = frontier;
    heap_insert(slot);
  } else if (frontier > state.frontier) {
    // High water advanced: the frontier only grows, so the node can only
    // move away from the root.
    state.frontier = frontier;
    heap_sift_down(heap_pos_[slot]);
  }
}

void OnlineSequencer::session_submit(Session& session, TimePoint stamp,
                                     MessageId id, TimePoint now,
                                     bool relaxed) {
  maybe_reprime();
  if (!relaxed) {
    TOMMY_EXPECTS(now >= last_arrival_);  // FIFO delivery contract
  }
  last_arrival_ = std::max(last_arrival_, now);
  if (session.generation_ != engine_->fast_generation()) {
    refresh_session(session);
  }

  ClientState& state = clients_[session.slot_];
  state.high_water = std::max(state.high_water, stamp);
  state.last_heard = std::max(state.last_heard, now);
  touch_client(state);

  Buffered entry;
  entry.msg = Message{id, session.client_, stamp, now};
  entry.cindex = session.cindex_;
  // Same arithmetic as the engine's fast_corrected /
  // fast_safe_emission_time, from the session's cached offsets.
  entry.corrected = stamp.seconds() + session.mean_offset_;
  entry.safe_time = stamp + Duration(session.safe_offset_);
  ingest(std::move(entry));
}

void OnlineSequencer::session_submit_batch(Session& session,
                                           std::span<const Submission> items,
                                           bool relaxed) {
  if (items.empty()) return;
  maybe_reprime();
  if (session.generation_ != engine_->fast_generation()) {
    refresh_session(session);
  }

  ClientState& state = clients_[session.slot_];
  for (const Submission& item : items) {
    if (!relaxed) {
      TOMMY_EXPECTS(item.arrival >= last_arrival_);  // FIFO contract
    }
    last_arrival_ = std::max(last_arrival_, item.arrival);
    state.high_water = std::max(state.high_water, item.stamp);
    state.last_heard = std::max(state.last_heard, item.arrival);

    Buffered entry;
    entry.msg = Message{item.id, session.client_, item.stamp, item.arrival};
    entry.cindex = session.cindex_;
    entry.corrected = item.stamp.seconds() + session.mean_offset_;
    entry.safe_time = item.stamp + Duration(session.safe_offset_);
    ingest(std::move(entry));
  }
  // One completeness-state fix-up for the whole batch: gate checks only
  // run at polls, so the intermediate per-item states are unobservable.
  touch_client(state);
}

void OnlineSequencer::session_heartbeat(Session& session,
                                        TimePoint local_stamp, TimePoint now) {
  maybe_reprime();
  ClientState& state = clients_[session.slot_];
  state.high_water = std::max(state.high_water, local_stamp);
  state.last_heard = std::max(state.last_heard, now);
  touch_client(state);
}

void OnlineSequencer::refresh_entry(Buffered& entry) const {
  entry.cindex = registry_.index_of(entry.msg.client);
  entry.corrected = engine_->fast_corrected(entry.cindex, entry.msg.stamp);
  entry.safe_time =
      engine_->fast_safe_emission_time(entry.cindex, entry.msg.stamp);
}

void OnlineSequencer::maybe_reprime() {
  // A shared engine is an immutable epoch: announces wait for
  // rebind_engine.
  if (!owns_engine_ || engine_->fast_ready(config_.threshold, config_.p_safe)) {
    return;
  }
  engine_->prime(config_.threshold, config_.p_safe);
  refresh_epoch_state();
}

void OnlineSequencer::refresh_epoch_state() {
  // Distributions changed under us: refresh every cached constant and
  // rebuild the buffer in (corrected, id) order under the fresh keys —
  // one O(n log n) sort at the announce boundary buys back the sorted
  // invariant every windowed early exit depends on (the former
  // leave-it-unsorted behaviour disabled those exits for the rest of the
  // epoch). Sessions refresh themselves lazily off the generation
  // counter.
  std::vector<Buffered> entries = buffer_.extract_all();
  for (Buffered& entry : entries) refresh_entry(entry);
  std::sort(entries.begin(), entries.end(), BufferedLess{});
  buffer_.assign_sorted(std::move(entries));
  for (Buffered& entry : last_emitted_) refresh_entry(entry);
  // The frontier offsets moved too: recompute every heard client's cached
  // frontier and rebuild the gate heap over all heard clients (clients
  // previously dropped by the silence timeout re-enter here; the next
  // gate check re-drops whoever is still silent).
  for (ClientState& state : clients_) {
    if (!state.heard) continue;
    state.frontier =
        engine_->fast_completeness_frontier(state.cindex, state.high_water);
  }
  heap_rebuild();
  head_valid_ = false;
}

void OnlineSequencer::rebind_engine(
    std::shared_ptr<const PrecedingEngine> engine,
    std::span<const ClientId> new_clients) {
  TOMMY_EXPECTS(engine != nullptr);
  TOMMY_EXPECTS(&engine->registry() == &registry_);
  // The new epoch must be a finished table set for our parameters.
  TOMMY_EXPECTS(engine->fast_params_match(config_.threshold, config_.p_safe));
  engine_ptr_ = std::move(engine);
  engine_ = engine_ptr_.get();
  owns_engine_ = false;
  for (ClientId client : new_clients) register_client(client);
  refresh_epoch_state();
}

void OnlineSequencer::retire_client(ClientId client) {
  const std::uint32_t slot = slot_of(client);
  ClientState& state = clients_[slot];
  if (state.departed) return;
  state.departed = true;
  if (!state.heard) {
    // A client that departs without ever speaking stops gating Q2 the
    // same way a heard-then-departed one does.
    state.heard = true;
    TOMMY_ASSERT(unheard_count_ > 0);
    --unheard_count_;
    return;  // never touched, so never in the heap
  }
  if (heap_pos_[slot] != kNotInHeap) heap_remove_at(heap_pos_[slot]);
}

bool OnlineSequencer::is_departed(ClientId client) const {
  return clients_[slot_of(client)].departed;
}

void OnlineSequencer::ingest(Buffered entry) {
  // Fairness-violation check: did this message confidently belong at or
  // before a rank we already emitted? (The safe-emission machinery makes
  // this rare — with frequency controlled by p_safe.)
  for (const Buffered& emitted : last_emitted_) {
    const double diff = entry.corrected - emitted.corrected;
    if (!(diff > engine_->fast_critical_gap(emitted.cindex, entry.cindex))) {
      ++fairness_violations_;
      break;
    }
  }
  // Keep the cached head batch if the insert provably leaves it intact.
  if (head_valid_) {
    const bool inside_head =
        entry.corrected < head_last_corrected_ ||
        (entry.corrected == head_last_corrected_ &&
         entry.msg.id <= head_last_id_);
    if (inside_head) {
      // Lands at or before the last head row: positions (and possibly
      // the cut) moved.
      head_valid_ = false;
    } else {
      // Beyond the head. Inserts can only add uncertain pairs, never
      // remove them, so earlier (blocked) cuts stay blocked and the cut at
      // head_size_ survives iff the new entry is confidently after every
      // head row. Check exactly, nearest row first; once the gap exceeds
      // the global maximum critical gap no farther row can be uncertain.
      auto it = buffer_.iterator_at(head_size_);
      const auto begin = buffer_.begin();
      while (it != begin) {
        --it;
        const double diff = entry.corrected - it->corrected;
        if (diff > engine_->fast_global_max_gap()) break;
        if (!(diff > engine_->fast_critical_gap(it->cindex, entry.cindex))) {
          head_valid_ = false;
          break;
        }
      }
    }
  }
  buffer_.insert(std::move(entry));
}

void OnlineSequencer::recompute_head() const {
  TOMMY_ASSERT(!buffer_.empty());
  // Closure rule (see BatchRule::kClosure): the head batch ends at the
  // first position e such that no uncertain pair (i < e <= j) crosses it.
  // "reach" tracks the furthest uncertain partner of any absorbed row; any
  // candidate boundary at or before reach is blocked, so we jump past it.
  // A row's uncertain partners all lie within its maximum critical gap
  // (diff > Ḡ_i ⟹ diff > g*_{ij} ∀j), so each row's scan stops at its
  // uncertainty window instead of running to the end of the buffer (the
  // buffer is always sorted by corrected stamp: epoch refreshes rebuild
  // it in order). The walk is purely sequential — absorbed advances one
  // row at a time and each inner scan starts just past it — so
  // bidirectional iterators suffice; indices are tracked only for the
  // reach/cut arithmetic.
  const std::size_t n = buffer_.size();
  std::size_t reach = 0;
  std::size_t absorbed = 0;
  std::size_t e = 1;
  TimePoint safe(-std::numeric_limits<double>::infinity());
  auto row_it = buffer_.begin();
  while (true) {
    for (; absorbed < e; ++absorbed, ++row_it) {
      const Buffered& row = *row_it;
      safe = std::max(safe, row.safe_time);
      // The loop exits with absorbed == e, so the last row written here
      // is the head's final row — exactly the key ingest compares
      // against.
      head_last_corrected_ = row.corrected;
      head_last_id_ = row.msg.id;
      const double window = engine_->fast_max_gap_from(row.cindex);
      auto jt = row_it;
      ++jt;
      for (std::size_t j = absorbed + 1; j < n; ++j, ++jt) {
        const double diff = jt->corrected - row.corrected;
        if (diff > window) break;
        if (!(diff > engine_->fast_critical_gap(row.cindex, jt->cindex))) {
          reach = std::max(reach, j);
        }
      }
    }
    if (reach < e) break;  // clean cut: head batch is the first e rows
    e = reach + 1;
  }
  head_size_ = e;
  head_safe_ = safe;
  head_valid_ = true;
}

// ── Completeness min-frontier heap ──────────────────────────────────────
//
// The gate question "does every gate-active client's frontier clear T_b"
// is a minimum query: min over active clients of (hw_c + Q_c(1 − p_safe))
// >= T_b. The heap keeps that minimum at the root so an emission attempt
// costs O(1) instead of a scan over every expected client; frontier
// advances are O(log n) sift-downs (the frontier is monotone per client
// between re-primes).
//
// The silence timeout is the subtle part: exclusion from the gate is a
// function of the query's `now`, not of any ingest event. Timed-out roots
// are REMOVED during the check and re-inserted by the client's next
// message/heartbeat (touch_client). That removal is only sound while gate
// queries move forward in time — a client silent at `now` is silent at
// every later `now` until it speaks again, and speaking re-inserts it.
// Queries that travel backwards (nothing forbids poll(5) after poll(7))
// take the exact O(n) scan over the cached frontiers instead, so the heap
// never serves a query its removals could have corrupted.

void OnlineSequencer::heap_sift_up(std::size_t pos) const {
  const std::uint32_t slot = heap_[pos];
  const TimePoint key = clients_[slot].frontier;
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (clients_[heap_[parent]].frontier <= key) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos]] = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = slot;
  heap_pos_[slot] = static_cast<std::uint32_t>(pos);
}

void OnlineSequencer::heap_sift_down(std::size_t pos) const {
  const std::size_t n = heap_.size();
  const std::uint32_t slot = heap_[pos];
  const TimePoint key = clients_[slot].frontier;
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        clients_[heap_[child + 1]].frontier < clients_[heap_[child]].frontier) {
      ++child;
    }
    if (key <= clients_[heap_[child]].frontier) break;
    heap_[pos] = heap_[child];
    heap_pos_[heap_[pos]] = static_cast<std::uint32_t>(pos);
    pos = child;
  }
  heap_[pos] = slot;
  heap_pos_[slot] = static_cast<std::uint32_t>(pos);
}

void OnlineSequencer::heap_insert(std::uint32_t slot) const {
  TOMMY_ASSERT(heap_pos_[slot] == kNotInHeap);
  heap_.push_back(slot);
  heap_sift_up(heap_.size() - 1);
}

void OnlineSequencer::heap_remove_top() const {
  TOMMY_ASSERT(!heap_.empty());
  heap_pos_[heap_.front()] = kNotInHeap;
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_.front() = last;
    heap_pos_[last] = 0;
    heap_sift_down(0);
  }
}

void OnlineSequencer::heap_remove_at(std::size_t pos) const {
  TOMMY_ASSERT(pos < heap_.size());
  heap_pos_[heap_[pos]] = kNotInHeap;
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail node
  heap_[pos] = last;
  heap_pos_[last] = static_cast<std::uint32_t>(pos);
  // The moved node may violate either direction; only one sift acts.
  heap_sift_down(pos);
  heap_sift_up(heap_pos_[last]);
}

void OnlineSequencer::heap_rebuild() const {
  heap_.clear();
  std::fill(heap_pos_.begin(), heap_pos_.end(), kNotInHeap);
  for (std::uint32_t slot = 0; slot < clients_.size(); ++slot) {
    if (!clients_[slot].heard || clients_[slot].departed) continue;
    heap_.push_back(slot);
    heap_pos_[slot] = static_cast<std::uint32_t>(heap_.size() - 1);
  }
  for (std::size_t pos = heap_.size() / 2; pos-- > 0;) heap_sift_down(pos);
}

bool OnlineSequencer::completeness_scan(TimePoint t_b, TimePoint now) const {
  // The gate's definition, applied to the cached frontiers.
  for (const ClientState& state : clients_) {
    if (state.departed) continue;  // explicit departure: out of the gate
    const bool timed_out =
        config_.client_silence_timeout.is_finite() &&
        (!state.heard ||
         now - state.last_heard > config_.client_silence_timeout);
    if (timed_out) continue;  // liveness guard: drop from the gate
    if (!state.heard) return false;
    if (state.frontier < t_b) return false;
  }
  return true;
}

bool OnlineSequencer::completeness_satisfied(TimePoint t_b,
                                             TimePoint now) const {
  const bool finite_timeout = config_.client_silence_timeout.is_finite();
  if (!finite_timeout && unheard_count_ > 0) return false;
  if (now < last_gate_now_) return completeness_scan(t_b, now);
  last_gate_now_ = now;
  while (!heap_.empty()) {
    const ClientState& state = clients_[heap_.front()];
    if (finite_timeout &&
        now - state.last_heard > config_.client_silence_timeout) {
      heap_remove_top();  // silent: drop from the gate until it speaks
      continue;
    }
    return state.frontier >= t_b;  // the root IS the minimum frontier
  }
  // Every heard client is currently dropped by the timeout (and, with a
  // finite timeout, unheard clients never gate): nothing blocks.
  return true;
}

EmissionRecord OnlineSequencer::take_head(std::size_t size, TimePoint t_b,
                                          TimePoint now) {
  EmissionRecord record;
  record.batch.rank = next_rank_++;
  record.batch.messages.reserve(size);
  last_emitted_.clear();
  last_emitted_.reserve(size);
  auto it = buffer_.begin();
  for (std::size_t k = 0; k < size; ++k, ++it) {
    record.batch.messages.push_back(it->msg);
    last_emitted_.push_back(*it);
  }
  buffer_.pop_front(size);
  record.emitted_at = now;
  record.safe_time = t_b;
  head_valid_ = false;
  return record;
}

std::size_t OnlineSequencer::drain(TimePoint now, bool ignore_gates,
                                   EmissionSink& sink,
                                   std::uint32_t shard_tag) {
  std::size_t emitted = 0;
  while (!buffer_.empty()) {
    if (!head_valid_) recompute_head();
    const std::size_t size = head_size_;
    const TimePoint t_b = head_safe_;
    if (!ignore_gates &&
        (now < t_b || !completeness_satisfied(t_b, now))) {
      break;
    }
    sink.on_emission(take_head(size, t_b, now), shard_tag);
    ++emitted;
  }
  return emitted;
}

std::vector<EmissionRecord> OnlineSequencer::poll(TimePoint now) {
  std::vector<EmissionRecord> out;
  VectorSink sink(out);
  maybe_reprime();
  drain(now, /*ignore_gates=*/false, sink, 0);
  return out;
}

std::size_t OnlineSequencer::poll(TimePoint now, EmissionSink& sink,
                                  std::uint32_t shard_tag) {
  maybe_reprime();
  return drain(now, /*ignore_gates=*/false, sink, shard_tag);
}

std::vector<EmissionRecord> OnlineSequencer::flush(TimePoint now) {
  std::vector<EmissionRecord> out;
  VectorSink sink(out);
  maybe_reprime();
  drain(now, /*ignore_gates=*/true, sink, 0);
  return out;
}

std::size_t OnlineSequencer::flush(TimePoint now, EmissionSink& sink,
                                   std::uint32_t shard_tag) {
  maybe_reprime();
  return drain(now, /*ignore_gates=*/true, sink, shard_tag);
}

TimePoint OnlineSequencer::next_safe_time() const {
  if (buffer_.empty()) return TimePoint::infinite_future();
  if (!head_valid_) recompute_head();
  return head_safe_;
}

std::vector<ClientId> OnlineSequencer::timed_out_clients(TimePoint now) const {
  std::vector<ClientId> out;
  if (!config_.client_silence_timeout.is_finite()) return out;
  for (const ClientState& state : clients_) {
    if (state.departed) continue;  // departed, not timed out
    if (!state.heard ||
        now - state.last_heard > config_.client_silence_timeout) {
      out.push_back(state.id);
    }
  }
  return out;
}

}  // namespace tommy::core
