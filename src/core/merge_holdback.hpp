// The one cross-source merge order, and the holdback that releases by it.
//
// Several streams, each rank-ordered on its own (the shards of a
// kGlobalMerge FairOrderingService, the shard nodes feeding a MergeNode),
// become one total order by releasing records in ascending
//
//   MergeKey = (safe_time T_b, source, rank)
//
// and a record leaves only once the gate — the minimum frontier its
// caller can vouch for over every source — has strictly passed its T_b.
// This is Lamport's grant rule applied to probabilistic timestamps: a
// request is granted only once every other process has been heard from
// with a later timestamp. Every merge in the repository orders by this
// key and nothing else:
//
//  * FairOrderingService's kGlobalMerge drain holds EmissionRecords keyed
//    by (T_b, shard, rank) — the shard tag rides in the key — and gates
//    on min next_safe_time() over its shards;
//  * MergeNode holds net::OrderedBatch keyed by (T_b, node, rank) and
//    gates on the minimum announced frontier over its peers;
//  * MergeSubscriber compares the key of its watermark with the key of
//    each downlink batch, so a cursor comparison IS a release-position
//    comparison.
//
// (source, rank) is unique per holdback — each source's ranks are
// strictly increasing — so the release order is a total order with no
// ties and equals a stable sort of the pushed records by key.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace tommy::core {

/// Release position of one record: lexicographic (safe_time, source,
/// rank). `source` is the emitting shard or node index.
struct MergeKey {
  TimePoint safe_time{};
  std::uint32_t source{0};
  Rank rank{0};

  friend constexpr auto operator<=>(const MergeKey&, const MergeKey&) =
      default;
};

/// Records awaiting release, as a binary min-heap on MergeKey: a release
/// round pops the released prefix in O(released · log H) instead of
/// re-sorting the whole holdback. Not synchronized; callers hold their
/// own lock. The release path is a template (no virtual call, no
/// std::function): the in-process merge runs it on every poll.
template <typename Record>
class MergeHoldback {
 public:
  struct Entry {
    MergeKey key;
    Record record;
  };

  void push(MergeKey key, Record record) {
    heap_.emplace_back(key, std::move(record));
    std::push_heap(heap_.begin(), heap_.end(), After{});
  }

  /// Pops every record whose key.safe_time is strictly below `gate` (all
  /// of them when `release_all`) and hands each to `fn(const MergeKey&,
  /// Record&&)` in key order. A record exactly at the gate stays held.
  /// Returns the number released.
  template <typename Fn>
  std::size_t release(TimePoint gate, bool release_all, Fn&& fn) {
    std::size_t released = 0;
    while (!heap_.empty()) {
      if (!release_all && !(heap_.front().key.safe_time < gate)) break;
      std::pop_heap(heap_.begin(), heap_.end(), After{});
      Entry& next = heap_.back();
      fn(std::as_const(next.key), std::move(next.record));
      heap_.pop_back();
      ++released;
    }
    return released;
  }

  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Read-only iteration over the held entries, in heap (not key) order.
  [[nodiscard]] auto begin() const { return heap_.cbegin(); }
  [[nodiscard]] auto end() const { return heap_.cend(); }

 private:
  /// "After" under the release order: std::push_heap/pop_heap are
  /// max-heap primitives, so this keeps the NEXT record at the root.
  struct After {
    bool operator()(const Entry& lhs, const Entry& rhs) const {
      return rhs.key < lhs.key;
    }
  };

  std::vector<Entry> heap_;
};

}  // namespace tommy::core
