// Unit coverage for the dist tier's moving parts in isolation — the
// topology partition identity, the merge node's per-peer protocol state
// machine (duplicates, gaps, epochs, the frontier gate), the one merge
// order every holdback and the subscriber share, the relay splice, and
// a default-clocked shard node's silence timeout — over socketpairs and
// local sockets; the end-to-end topology proof lives in
// multinode_soak_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "dist/merge_node.hpp"
#include "dist/merge_subscriber.hpp"
#include "dist/shard_node.hpp"
#include "dist/topology.hpp"
#include "common/rng.hpp"
#include "core/merge_holdback.hpp"
#include "net/framing.hpp"
#include "../net/wire_test_util.hpp"

namespace tommy::dist {
namespace {

using namespace tommy::net::testing;
using net::ByteStream;
using net::DistributionAnnouncement;
using net::OrderedBatch;
using net::SafeTimeAnnounce;
using net::WireMessage;
using net::encode_frame;
using net::make_socketpair_streams;

// ── Topology ────────────────────────────────────────────────────────────

TEST(Topology, DefaultPartitionMatchesOracleService) {
  // The whole equivalence story rests on this identity: Topology's
  // default client→node map must equal the shard map a shard_count = N
  // service builds over the same clients.
  for (std::uint32_t nodes : {1u, 2u, 3u, 4u}) {
    const std::uint32_t clients = 7;
    core::ClientRegistry registry = make_registry(clients);
    core::FairOrderingService service(
        registry, ids(clients), core::ServiceConfig{}.with_shards(nodes));
    Topology topology(std::vector<NodeEndpoints>(nodes), ids(clients));
    for (std::uint32_t c = 0; c < clients; ++c) {
      EXPECT_EQ(topology.node_for(ClientId(c)), service.shard_of(ClientId(c)))
          << "client " << c << " with " << nodes << " nodes";
    }
  }
}

TEST(Topology, PartitionsPreserveClientOrderAndCoverEveryClient) {
  const std::uint32_t clients = 9;
  Topology topology(std::vector<NodeEndpoints>(3), ids(clients));
  std::size_t covered = 0;
  const auto parts = topology.partitions();
  ASSERT_EQ(parts.size(), 3u);
  for (std::uint32_t node = 0; node < 3; ++node) {
    EXPECT_EQ(parts[node], topology.partition(node));
    for (std::size_t i = 1; i < parts[node].size(); ++i) {
      EXPECT_LT(parts[node][i - 1].value(), parts[node][i].value());
    }
    for (ClientId c : parts[node]) {
      EXPECT_EQ(topology.node_for(c), node);
    }
    covered += parts[node].size();
  }
  EXPECT_EQ(covered, clients);
}

// ── MergeNode protocol state machine ────────────────────────────────────

OrderedBatch make_batch(std::uint32_t node, std::uint64_t epoch, Rank rank,
                        double safe_time) {
  OrderedBatch batch;
  batch.node = node;
  batch.epoch = epoch;
  batch.rank = rank;
  batch.safe_time = TimePoint(safe_time);
  batch.emitted_at = TimePoint(safe_time + 0.25);
  batch.messages = {OrderedBatch::Entry{
      ClientId(node), MessageId(rank), TimePoint(safe_time - 0.5),
      TimePoint(safe_time - 0.25)}};
  return batch;
}

std::vector<std::uint8_t> announce_of(std::uint32_t node, std::uint64_t epoch,
                                      double next_safe) {
  return encode_frame(
      WireMessage(SafeTimeAnnounce{node, epoch, TimePoint(next_safe)}));
}

struct MergeHarness {
  MergeNode merge;
  std::vector<std::shared_ptr<ByteStream>> uplinks;

  explicit MergeHarness(std::uint32_t nodes) : merge(nodes) {
    for (std::uint32_t n = 0; n < nodes; ++n) {
      auto [node_end, merge_end] = make_socketpair_streams();
      merge.attach(n, merge_end);
      uplinks.push_back(node_end);
    }
  }

  void send(std::uint32_t node, const std::vector<std::uint8_t>& frame) {
    ASSERT_TRUE(uplinks[node]->write_all(frame));
  }

  void sync(std::uint32_t node, std::uint64_t epoch) {
    // A trailing announce with an unmistakable frontier doubles as a
    // FIFO barrier: once applied, everything sent before it has been
    // handled too.
    const std::uint64_t target = merge.peer(node).announces + 1;
    send(node, announce_of(node, epoch, 1e9));
    ASSERT_TRUE(merge.wait_for_announces(node, target, 5000));
  }
};

TEST(MergeNode, AcceptsDenseRanksAndDropsReplayedPrefix) {
  MergeHarness h(1);
  h.send(0, encode_frame(WireMessage(make_batch(0, 0, 0, 1.0))));
  h.send(0, encode_frame(WireMessage(make_batch(0, 0, 1, 2.0))));
  // A restarted incarnation replays rank 0 and 1, then continues with 2.
  h.send(0, encode_frame(WireMessage(make_batch(0, 1, 0, 1.0))));
  h.send(0, encode_frame(WireMessage(make_batch(0, 1, 1, 2.0))));
  h.send(0, encode_frame(WireMessage(make_batch(0, 1, 2, 3.0))));
  h.sync(0, 1);

  const MergePeerStats stats = h.merge.peer(0);
  EXPECT_EQ(stats.error, MergeError::kNone);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.duplicates, 2u);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(h.merge.held_count(), 3u);
}

TEST(MergeNode, RankGapIsATypedProtocolError) {
  MergeHarness h(1);
  h.send(0, encode_frame(WireMessage(make_batch(0, 0, 0, 1.0))));
  h.send(0, encode_frame(WireMessage(make_batch(0, 0, 2, 3.0))));
  ASSERT_TRUE(eventually(
      [&] { return h.merge.peer(0).error == MergeError::kRankGap; }));
  const MergePeerStats stats = h.merge.peer(0);
  EXPECT_FALSE(stats.connected);
  EXPECT_EQ(stats.accepted, 1u);
  // A failed peer pins the gate: nothing releases past a broken stream.
  EXPECT_EQ(h.merge.release(), 0u);
}

TEST(MergeNode, StaleEpochFramesAreDropped) {
  MergeHarness h(1);
  h.send(0, announce_of(0, 2, 5.0));
  h.send(0, encode_frame(WireMessage(make_batch(0, 1, 0, 1.0))));
  h.send(0, announce_of(0, 1, 9.0));
  h.sync(0, 2);
  const MergePeerStats stats = h.merge.peer(0);
  EXPECT_EQ(stats.error, MergeError::kNone);
  EXPECT_EQ(stats.epoch, 2u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.stale, 2u);
  // The stale announce must not have moved the frontier.
  EXPECT_EQ(stats.next_safe, TimePoint(1e9));
}

TEST(MergeNode, UnexpectedFrameKindIsATypedError) {
  MergeHarness h(1);
  h.send(0, encode_frame(WireMessage(net::Heartbeat{ClientId(1),
                                                    TimePoint(1.0)})));
  ASSERT_TRUE(eventually(
      [&] { return h.merge.peer(0).error == MergeError::kUnexpectedFrame; }));
}

TEST(MergeNode, SilentPeerPinsTheGate) {
  MergeHarness h(2);
  h.send(0, encode_frame(WireMessage(make_batch(0, 0, 0, 1.0))));
  h.sync(0, 0);
  // Peer 1 has never announced: the gate is −infinity, nothing moves.
  EXPECT_EQ(h.merge.gate(),
            TimePoint(-std::numeric_limits<double>::infinity()));
  EXPECT_EQ(h.merge.release(), 0u);
  // Peer 1 speaks: the gate jumps to min(1e9, 3.0) and the held record
  // (safe_time 1.0 < 3.0) releases.
  h.send(1, announce_of(1, 0, 3.0));
  ASSERT_TRUE(h.merge.wait_for_announces(1, 1, 5000));
  EXPECT_EQ(h.merge.gate(), TimePoint(3.0));
  EXPECT_EQ(h.merge.release(), 1u);
  EXPECT_EQ(h.merge.released_count(), 1u);
}

TEST(MergeNode, DisconnectedPeerRevertsToBlocking) {
  MergeHarness h(2);
  h.sync(0, 0);
  h.send(1, announce_of(1, 0, 3.0));
  ASSERT_TRUE(h.merge.wait_for_announces(1, 1, 5000));
  EXPECT_EQ(h.merge.gate(), TimePoint(3.0));
  // Peer 1 goes away: its frontier promise dies with the connection.
  h.uplinks[1]->close_write();
  ASSERT_TRUE(eventually([&] { return !h.merge.peer(1).connected; }));
  EXPECT_EQ(h.merge.gate(),
            TimePoint(-std::numeric_limits<double>::infinity()));
  EXPECT_EQ(h.merge.release(), 0u);
}

TEST(MergeNode, ReleasesInSafeTimeNodeRankOrder) {
  MergeHarness h(2);
  h.send(0, encode_frame(WireMessage(make_batch(0, 0, 0, 2.0))));
  h.send(0, encode_frame(WireMessage(make_batch(0, 0, 1, 4.0))));
  h.send(1, encode_frame(WireMessage(make_batch(1, 0, 0, 1.0))));
  h.send(1, encode_frame(WireMessage(make_batch(1, 0, 1, 2.0))));
  h.sync(0, 0);
  h.sync(1, 0);
  // Gate is far out: everything releases, in (safe_time, node, rank)
  // order — the tie at safe_time 2.0 breaks on node index.
  EXPECT_EQ(h.merge.release(), 4u);
  const auto released = h.merge.released();
  ASSERT_EQ(released.size(), 4u);
  EXPECT_EQ(released[0].node, 1u);
  EXPECT_EQ(released[0].rank, 0u);
  EXPECT_EQ(released[1].node, 0u);  // safe_time 2.0 tie: node 0 first
  EXPECT_EQ(released[1].rank, 0u);
  EXPECT_EQ(released[2].node, 1u);
  EXPECT_EQ(released[2].rank, 1u);
  EXPECT_EQ(released[3].node, 0u);
  EXPECT_EQ(released[3].rank, 1u);
}

TEST(MergeNode, LargeHoldbackReleasesInExactSortedOrderAcrossRounds) {
  // The holdback is a binary min-heap on (safe_time, node, rank), not a
  // sorted sequence: each release round must still drain in the exact
  // order the old full stable_sort produced, including across rounds
  // that each take only a slice of a deep pre-seeded holdback.
  constexpr std::uint32_t kNodes = 3;
  constexpr std::size_t kPerNode = 700;
  MergeHarness h(kNodes);

  struct Key {
    double safe;
    std::uint32_t node;
    Rank rank;
  };
  std::vector<Key> oracle;
  std::mt19937_64 rng(41);
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    double safe = 1.0;
    for (Rank rank = 0; rank < kPerNode; ++rank) {
      // Frequent zero increments manufacture safe-time ties within a
      // node (rank breaks them) and across nodes (node index breaks
      // them) — the cases where heap order could diverge from the
      // stable sort if keys were not unique.
      safe += 0.25 * static_cast<double>(rng() % 4);
      h.send(node, encode_frame(WireMessage(make_batch(node, 0, rank, safe))));
      oracle.push_back(Key{safe, node, rank});
    }
  }
  auto announce_and_wait = [&](std::uint32_t node, double frontier) {
    const std::uint64_t target = h.merge.peer(node).announces + 1;
    h.send(node, announce_of(node, 0, frontier));
    ASSERT_TRUE(h.merge.wait_for_announces(node, target, 5000));
  };
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    announce_and_wait(node, 0.5);  // barrier: all sends applied, gate shut
  }
  ASSERT_EQ(h.merge.held_count(), oracle.size());

  // Partial rounds against an advancing gate, then a flush of the rest.
  // Gates at quarters of the realized safe-time span keep every round a
  // strict slice regardless of what the rng produced.
  double max_safe = 0.0;
  for (const Key& k : oracle) max_safe = std::max(max_safe, k.safe);
  std::size_t released_total = 0;
  for (const double gate :
       {0.25 * max_safe, 0.5 * max_safe, 0.75 * max_safe}) {
    for (std::uint32_t node = 0; node < kNodes; ++node) {
      announce_and_wait(node, gate);
    }
    const std::size_t round = h.merge.release();
    EXPECT_GT(round, 0u);
    released_total += round;
  }
  EXPECT_LT(released_total, oracle.size());  // rounds were genuinely partial
  released_total += h.merge.flush();
  ASSERT_EQ(released_total, oracle.size());

  std::stable_sort(oracle.begin(), oracle.end(),
                   [](const Key& lhs, const Key& rhs) {
                     if (lhs.safe != rhs.safe) return lhs.safe < rhs.safe;
                     if (lhs.node != rhs.node) return lhs.node < rhs.node;
                     return lhs.rank < rhs.rank;
                   });
  const auto released = h.merge.released();
  ASSERT_EQ(released.size(), oracle.size());
  for (std::size_t i = 0; i < released.size(); ++i) {
    EXPECT_EQ(released[i].safe_time.seconds(), oracle[i].safe) << "row " << i;
    EXPECT_EQ(released[i].node, oracle[i].node) << "row " << i;
    EXPECT_EQ(released[i].rank, oracle[i].rank) << "row " << i;
  }
}

TEST(MergeNode, StrictGateHoldsRecordAtExactFrontier) {
  MergeHarness h(1);
  h.send(0, encode_frame(WireMessage(make_batch(0, 0, 0, 2.0))));
  h.send(0, announce_of(0, 0, 2.0));
  ASSERT_TRUE(h.merge.wait_for_announces(0, 1, 5000));
  // release_merged's gate is strict: safe_time < frontier, not <=.
  EXPECT_EQ(h.merge.release(), 0u);
  EXPECT_EQ(h.merge.held_count(), 1u);
  // flush ignores the gate.
  EXPECT_EQ(h.merge.flush(), 1u);
  EXPECT_EQ(h.merge.held_count(), 0u);
}

// ── The one merge order: MergeHoldback over both record types ─────────

/// How each holdback caller files a record: the in-process service holds
/// EmissionRecords with the shard tag in the key, MergeNode holds wire
/// batches keyed by merge_key().
struct ServiceRecords {
  using Record = core::EmissionRecord;
  static void push(core::MergeHoldback<Record>& holdback,
                   const core::MergeKey& key) {
    Record record;
    record.batch.rank = key.rank;
    record.safe_time = key.safe_time;
    holdback.push(core::MergeKey{record.safe_time, key.source,
                                 record.batch.rank},
                  std::move(record));
  }
  /// The key the released record itself carries back out.
  static core::MergeKey carried(const core::MergeKey& key,
                                const Record& record) {
    return core::MergeKey{record.safe_time, key.source, record.batch.rank};
  }
};

struct WireRecords {
  using Record = OrderedBatch;
  static void push(core::MergeHoldback<Record>& holdback,
                   const core::MergeKey& key) {
    Record batch =
        make_batch(key.source, 0, key.rank, key.safe_time.seconds());
    const core::MergeKey batch_key = merge_key(batch);
    holdback.push(batch_key, std::move(batch));
  }
  static core::MergeKey carried(const core::MergeKey&, const Record& batch) {
    return merge_key(batch);
  }
};

template <typename Records>
class MergeOrder : public ::testing::Test {
 protected:
  using Record = typename Records::Record;

  /// Releases one round, checking every record carries its key out.
  std::vector<core::MergeKey> release(core::MergeHoldback<Record>& holdback,
                                      TimePoint gate, bool release_all) {
    std::vector<core::MergeKey> out;
    const std::size_t n = holdback.release(
        gate, release_all, [&out](const core::MergeKey& key, Record&& r) {
          EXPECT_EQ(Records::carried(key, r), key);
          out.push_back(key);
        });
    EXPECT_EQ(n, out.size());
    return out;
  }

  /// Random keys that tie on safe_time (a 0.5 s grid) and on source
  /// (three sources), pushed over release rounds whose gates climb the
  /// same grid. A round only pushes keys at or past the previous gate —
  /// what a caller's frontier guarantees — and every (source, rank) is
  /// unique, as each source's dense ranks are.
  std::vector<core::MergeKey> run_rounds(std::uint64_t seed,
                                         std::vector<core::MergeKey>& pushed) {
    Rng rng(seed);
    core::MergeHoldback<Record> holdback;
    std::vector<Rank> next_rank(3, 0);
    std::vector<core::MergeKey> released;
    for (int round = 1; round <= 12; ++round) {
      const std::int64_t floor_step = round - 1;
      const auto count = rng.uniform_int(0, 12);
      for (std::int64_t k = 0; k < count; ++k) {
        const auto step = rng.uniform_int(floor_step, floor_step + 6);
        const auto source = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
        const core::MergeKey key{TimePoint(0.5 * static_cast<double>(step)),
                                 source, next_rank[source]++};
        Records::push(holdback, key);
        pushed.push_back(key);
      }
      const TimePoint gate(0.5 * round);
      for (const core::MergeKey& key : release(holdback, gate, false)) {
        EXPECT_LT(key.safe_time, gate);
        released.push_back(key);
      }
      for (const auto& held : holdback) {
        EXPECT_GE(held.key.safe_time, gate);
      }
    }
    for (const core::MergeKey& key :
         release(holdback, TimePoint::infinite_future(), true)) {
      released.push_back(key);
    }
    EXPECT_EQ(holdback.size(), 0u);
    return released;
  }
};

using RecordTypes = ::testing::Types<ServiceRecords, WireRecords>;
TYPED_TEST_SUITE(MergeOrder, RecordTypes);

TYPED_TEST(MergeOrder, ReleasesAcrossRoundsEqualAStableSortByKey) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    std::vector<core::MergeKey> pushed;
    const std::vector<core::MergeKey> released =
        this->run_rounds(seed, pushed);
    std::vector<core::MergeKey> sorted = pushed;
    std::stable_sort(sorted.begin(), sorted.end());
    EXPECT_EQ(released, sorted) << "seed " << seed;
  }
}

TYPED_TEST(MergeOrder, RecordExactlyAtTheGateStaysHeld) {
  core::MergeHoldback<typename TypeParam::Record> holdback;
  TypeParam::push(holdback, core::MergeKey{TimePoint(2.0), 0, 0});
  TypeParam::push(holdback, core::MergeKey{TimePoint(1.5), 1, 0});
  const auto first = this->release(holdback, TimePoint(2.0), false);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].safe_time, TimePoint(1.5));
  EXPECT_EQ(holdback.size(), 1u);
  EXPECT_TRUE(this->release(holdback, TimePoint(2.0), false).empty());
  EXPECT_EQ(this->release(holdback, TimePoint(2.0), true).size(), 1u);
  EXPECT_EQ(holdback.size(), 0u);
}

/// A bare downlink endpoint whose test owns the server side of the
/// first accepted connection.
struct DownlinkStub {
  std::mutex mutex;
  std::condition_variable cv;
  std::shared_ptr<ByteStream> server;
  net::StreamAcceptor acceptor;
  std::string path = fresh_unix_path();

  DownlinkStub()
      : acceptor([this](std::shared_ptr<ByteStream> stream) {
          std::lock_guard<std::mutex> lock(mutex);
          server = std::move(stream);
          cv.notify_all();
        }) {
    EXPECT_TRUE(
        acceptor.listen(net::Endpoint{.unix_path = path, .tcp_port = 0}));
  }

  [[nodiscard]] std::shared_ptr<ByteStream> accept() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock, std::chrono::seconds(5),
                [this] { return server != nullptr; });
    return server;
  }
};

TYPED_TEST(MergeOrder, SubscriberOrderCheckAgreesWithMergeKey) {
  // What the holdback releases, the subscriber accepts in full; a record
  // whose key does not exceed the last one — here a tie on safe_time and
  // source at an already-consumed rank — is an order violation.
  std::vector<core::MergeKey> pushed;
  const std::vector<core::MergeKey> released = this->run_rounds(7, pushed);
  ASSERT_FALSE(released.empty());

  DownlinkStub stub;
  MergeSubscriberConfig config;
  config.endpoints = {NodeAddress{stub.path, 0}};
  MergeSubscriber subscriber(config);
  subscriber.start();
  auto server = stub.accept();
  ASSERT_NE(server, nullptr);
  for (const core::MergeKey& key : released) {
    ASSERT_TRUE(server->write_all(encode_frame(WireMessage(make_batch(
        key.source, 0, key.rank, key.safe_time.seconds())))));
  }
  ASSERT_TRUE(subscriber.wait_for_released(released.size(), 5000));
  EXPECT_EQ(subscriber.stats().error, SubscriberError::kNone);
  std::vector<core::MergeKey> consumed;
  for (const OrderedBatch& batch : subscriber.released()) {
    consumed.push_back(merge_key(batch));
  }
  EXPECT_EQ(consumed, released);
  EXPECT_EQ(merge_key(subscriber.watermark()), released.back());

  const core::MergeKey last = released.back();
  ASSERT_TRUE(server->write_all(encode_frame(WireMessage(
      make_batch(last.source, 0, last.rank, last.safe_time.seconds())))));
  ASSERT_TRUE(eventually([&] {
    return subscriber.stats().error == SubscriberError::kOrderViolation;
  }));
  EXPECT_EQ(subscriber.released_count(), released.size());
  subscriber.stop();
}

// ── RelaySet (over socketpairs) ─────────────────────────────────────────

TEST(RelaySet, SplicesHandshakeAndTrafficBothWays) {
  auto [relay_up_end, upstream_end] = make_socketpair_streams();
  net::RelaySet relays(
      [&, up = relay_up_end](const DistributionAnnouncement& announcement)
          -> std::shared_ptr<ByteStream> {
        EXPECT_EQ(announcement.client, ClientId(2));
        return up;
      });
  auto [client_end, relay_down_end] = make_socketpair_streams();
  relays.adopt(relay_down_end);

  // Client writes its announce plus a coalesced message frame.
  auto bytes = announce_frame(2);
  const auto extra = message_frame(2, 7, 1.0);
  bytes.insert(bytes.end(), extra.begin(), extra.end());
  ASSERT_TRUE(client_end->write_all(bytes));

  // The upstream must observe the exact byte stream the client wrote.
  std::vector<std::uint8_t> got;
  std::vector<std::uint8_t> chunk(4096);
  while (got.size() < bytes.size()) {
    const auto n = upstream_end->read_some(chunk);
    ASSERT_TRUE(n.has_value());
    ASSERT_GT(*n, 0u);
    got.insert(got.end(), chunk.begin(),
               chunk.begin() + static_cast<std::ptrdiff_t>(*n));
  }
  EXPECT_EQ(got, bytes);

  // Backward direction: upstream frames reach the client.
  const auto ack = encode_frame(WireMessage(net::HandshakeAck{1}));
  ASSERT_TRUE(upstream_end->write_all(ack));
  std::vector<std::uint8_t> back(ack.size());
  std::size_t read = 0;
  while (read < back.size()) {
    const auto n = client_end->read_some(
        std::span<std::uint8_t>(back.data() + read, back.size() - read));
    ASSERT_TRUE(n.has_value());
    ASSERT_GT(*n, 0u);
    read += *n;
  }
  EXPECT_EQ(back, ack);

  EXPECT_EQ(relays.adopted_total(), 1u);
  EXPECT_EQ(relays.handshake_failures(), 0u);
  relays.stop();
}

TEST(RelaySet, DropsDownstreamWhoseFirstFrameIsNotAnAnnouncement) {
  net::RelaySet relays([](const DistributionAnnouncement&)
                           -> std::shared_ptr<ByteStream> {
    ADD_FAILURE() << "dial must not run without a handshake";
    return nullptr;
  });
  auto [client_end, relay_down_end] = make_socketpair_streams();
  relays.adopt(relay_down_end);
  ASSERT_TRUE(client_end->write_all(message_frame(1, 1, 1.0)));
  ASSERT_TRUE(eventually([&] { return relays.handshake_failures() == 1; }));
  // The downstream is torn down: reads drain to EOF.
  std::vector<std::uint8_t> chunk(16);
  const auto n = client_end->read_some(chunk);
  EXPECT_TRUE(!n.has_value() || *n == 0);
  relays.stop();
}

TEST(RelaySet, CountsDialFailuresAndDropsTheDownstream) {
  net::RelaySet relays([](const DistributionAnnouncement&)
                           -> std::shared_ptr<ByteStream> { return nullptr; });
  auto [client_end, relay_down_end] = make_socketpair_streams();
  relays.adopt(relay_down_end);
  ASSERT_TRUE(client_end->write_all(announce_frame(1)));
  ASSERT_TRUE(eventually([&] { return relays.dial_failures() == 1; }));
  EXPECT_EQ(relays.handshake_failures(), 0u);
  relays.stop();
}

TEST(RelaySet, UpstreamDeathTearsTheDownstreamDown) {
  auto [relay_up_end, upstream_end] = make_socketpair_streams();
  net::RelaySet relays(
      [up = relay_up_end](const DistributionAnnouncement&) { return up; });
  auto [client_end, relay_down_end] = make_socketpair_streams();
  relays.adopt(relay_down_end);
  ASSERT_TRUE(client_end->write_all(announce_frame(1)));
  // Wait until the splice is up (upstream saw the handshake), then kill
  // the upstream: the client's connection must die too, so it
  // reconnects instead of writing into a void.
  std::vector<std::uint8_t> chunk(4096);
  ASSERT_TRUE(upstream_end->read_some(chunk).has_value());
  upstream_end->shutdown();
  ASSERT_TRUE(eventually([&] {
    const auto n = client_end->read_some(chunk);
    return !n.has_value() || *n == 0;
  }));
  relays.stop();
}

// ── ShardNode uplink basics ─────────────────────────────────────────────

TEST(ShardNode, LateSubscriberReplaysTheFullRetainedStream) {
  const std::uint32_t clients = 2;
  core::ClientRegistry registry = make_registry(clients);
  ShardNodeConfig config;
  config.node = 0;
  config.frontend = test_frontend_config();
  ShardNode node(registry, ids(clients), config);
  const std::string uplink_path = fresh_unix_path();
  ASSERT_TRUE(node.listen_uplink(
      net::Endpoint{.unix_path = uplink_path, .tcp_port = 0}));

  // Drive ingest directly through the service (in-process), then pump.
  {
    auto session = node.service().open_session(ClientId(0));
    session.submit(TimePoint(1.0), MessageId(1), TimePoint(1.0005));
    session.heartbeat(TimePoint(1.2), TimePoint(1.2005));
    auto other = node.service().open_session(ClientId(1));
    other.heartbeat(TimePoint(1.2), TimePoint(1.2005));
  }
  node.pump(TimePoint(2.0));
  EXPECT_EQ(node.announces_published(), 1u);
  const std::size_t retained = node.frames_retained();
  EXPECT_GE(retained, 2u);  // ≥1 batch + 1 announce

  // A merge connecting AFTER the pump must still see everything.
  MergeNode merge(1);
  ASSERT_TRUE(
      merge.connect(0, net::Endpoint{.unix_path = uplink_path, .tcp_port = 0}));
  ASSERT_TRUE(merge.wait_for_announces(0, 1, 5000));
  EXPECT_EQ(merge.peer(0).accepted, retained - 1);
  EXPECT_EQ(merge.flush(), retained - 1);
  merge.stop();
  node.stop();
}

// ── Merge replication: watermark, downlink, stall watchdog ──────────────

TEST(MergeNode, WatermarkTracksTheLastReleasedCursor) {
  MergeHarness h(1);
  // Nothing released: the empty watermark.
  EXPECT_EQ(h.merge.watermark(), net::MergeWatermark{});
  h.send(0, encode_frame(WireMessage(make_batch(0, 0, 0, 1.0))));
  h.send(0, encode_frame(WireMessage(make_batch(0, 0, 1, 2.0))));
  h.sync(0, 0);
  EXPECT_EQ(h.merge.release(), 2u);
  const net::MergeWatermark watermark = h.merge.watermark();
  EXPECT_EQ(watermark.released, 2u);
  EXPECT_EQ(watermark.node, 0u);
  EXPECT_EQ(watermark.rank, 1u);
  EXPECT_EQ(watermark.safe_time, TimePoint(2.0));
}

TEST(MergeNode, DownlinkReplaysBacklogThenAttachBarrierThenLive) {
  MergeHarness h(1);
  h.send(0, encode_frame(WireMessage(make_batch(0, 0, 0, 1.0))));
  h.send(0, encode_frame(WireMessage(make_batch(0, 0, 1, 2.0))));
  h.sync(0, 0);
  EXPECT_EQ(h.merge.release(), 2u);

  const std::string downlink_path = fresh_unix_path();
  ASSERT_TRUE(h.merge.listen_downlink_unix(downlink_path));
  auto stream = net::dial(
      net::Endpoint{.unix_path = downlink_path, .tcp_port = 0},
      net::RetryPolicy{});
  ASSERT_NE(stream, nullptr);
  ASSERT_TRUE(eventually(
      [&] { return h.merge.downlink_subscriber_count() == 1; }));

  // One more release lands live after the attach.
  h.send(0, encode_frame(WireMessage(make_batch(0, 0, 2, 3.0))));
  h.sync(0, 0);
  EXPECT_EQ(h.merge.release(), 1u);

  // Expected frame sequence: replayed backlog (batch 0, batch 1,
  // watermark@2), the fresh attach barrier (watermark@2 again), then the
  // live tail (batch 2, watermark@3).
  std::vector<WireMessage> got;
  net::FrameDecoder decoder;
  std::vector<std::uint8_t> chunk(4096);
  while (got.size() < 6) {
    const auto n = stream->read_some(chunk);
    ASSERT_TRUE(n.has_value());
    ASSERT_GT(*n, 0u);
    decoder.append(std::span<const std::uint8_t>(chunk.data(), *n));
    while (auto payload = decoder.next()) {
      auto message = net::decode(*payload);
      ASSERT_TRUE(message.has_value());
      got.push_back(std::move(*message));
    }
  }
  ASSERT_EQ(got.size(), 6u);
  for (std::size_t i : {0u, 1u, 4u}) {
    ASSERT_TRUE(std::holds_alternative<net::OrderedBatch>(got[i]))
        << "frame " << i;
  }
  EXPECT_EQ(std::get<net::OrderedBatch>(got[0]).rank, 0u);
  EXPECT_EQ(std::get<net::OrderedBatch>(got[1]).rank, 1u);
  EXPECT_EQ(std::get<net::OrderedBatch>(got[4]).rank, 2u);
  for (std::size_t i : {2u, 3u, 5u}) {
    ASSERT_TRUE(std::holds_alternative<net::MergeWatermark>(got[i]))
        << "frame " << i;
  }
  EXPECT_EQ(std::get<net::MergeWatermark>(got[2]).released, 2u);
  EXPECT_EQ(std::get<net::MergeWatermark>(got[3]).released, 2u);
  const auto& live = std::get<net::MergeWatermark>(got[5]);
  EXPECT_EQ(live.released, 3u);
  EXPECT_EQ(live.rank, 2u);
  EXPECT_EQ(live.safe_time, TimePoint(3.0));
  h.merge.stop();
}

TEST(MergeNode, WatchdogFlagsStalledPeerAndTrafficClearsIt) {
  MergeConfig config;
  config.staleness_budget = std::chrono::milliseconds(25);
  config.watchdog_interval = std::chrono::milliseconds(2);
  MergeNode merge(1, config);
  auto [node_end, merge_end] = net::make_socketpair_streams();
  merge.attach(0, merge_end);

  // A connected-but-never-heard peer is not "stalled" — it has no
  // last-heard to be stale relative to (its frontier already pins the
  // gate at −infinity).
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(merge.peer(0).stalled);
  EXPECT_EQ(merge.peer(0).state, MergePeerState::kNeverHeard);
  EXPECT_TRUE(std::isinf(merge.peer(0).since_heard_seconds));

  ASSERT_TRUE(node_end->write_all(announce_of(0, 0, 3.0)));
  ASSERT_TRUE(merge.wait_for_announces(0, 1, 5000));
  EXPECT_LT(merge.peer(0).since_heard_seconds, 1.0);
  // Silence past the budget: the watchdog surfaces the stall…
  ASSERT_TRUE(eventually([&] { return merge.peer(0).stalled; }));
  const MergePeerStats stalled = merge.peer(0);
  EXPECT_TRUE(stalled.connected);
  EXPECT_EQ(stalled.state, MergePeerState::kPeerStalled);
  EXPECT_EQ(stalled.error, MergeError::kNone);
  // …but never speculates: the last announced frontier still gates.
  EXPECT_EQ(merge.gate(), TimePoint(3.0));

  // Any frame clears the verdict.
  ASSERT_TRUE(node_end->write_all(announce_of(0, 0, 4.0)));
  ASSERT_TRUE(eventually([&] { return !merge.peer(0).stalled; }));
  EXPECT_EQ(merge.peer(0).state, MergePeerState::kLive);
  EXPECT_EQ(merge.gate(), TimePoint(4.0));

  // Tearing the peer's stream down demotes the verdict to disconnected
  // (the gate reverts to −infinity blocking, not to speculation).
  node_end->close_write();
  node_end->shutdown();
  ASSERT_TRUE(eventually([&] { return !merge.peer(0).connected; }));
  EXPECT_EQ(merge.peer(0).state, MergePeerState::kDisconnected);
  merge.stop();
}

// ── ShardNode retention cap and self-clocking pump ──────────────────────

TEST(ShardNode, RetentionCapBoundsBacklogAndRefusesLateSubscribers) {
  core::ClientRegistry registry = make_registry(1);
  ShardNodeConfig config;
  config.frontend = test_frontend_config();
  config.replay_retention_cap = 4;
  ShardNode node(registry, ids(1), config);
  const std::string uplink_path = fresh_unix_path();
  ASSERT_TRUE(node.listen_uplink(
      net::Endpoint{.unix_path = uplink_path, .tcp_port = 0}));

  // Eight empty pumps publish eight announce frames: four past the cap.
  for (int k = 0; k < 8; ++k) node.pump(TimePoint(1.0));
  EXPECT_EQ(node.frames_retained(), 4u);
  EXPECT_EQ(node.frames_truncated(), 4u);

  // A merge attaching now cannot be replayed from frame zero: typed
  // refusal, not a silent gap.
  MergeNode merge(1);
  ASSERT_TRUE(
      merge.connect(0, net::Endpoint{.unix_path = uplink_path, .tcp_port = 0}));
  ASSERT_TRUE(eventually(
      [&] { return merge.peer(0).error == MergeError::kReplayTruncated; }));
  EXPECT_FALSE(merge.peer(0).connected);
  merge.stop();
  node.stop();
}

TEST(ShardNode, SubscriberAttachedBeforeTruncationKeepsItsLiveStream) {
  core::ClientRegistry registry = make_registry(1);
  ShardNodeConfig config;
  config.frontend = test_frontend_config();
  config.replay_retention_cap = 2;
  ShardNode node(registry, ids(1), config);
  const std::string uplink_path = fresh_unix_path();
  ASSERT_TRUE(node.listen_uplink(
      net::Endpoint{.unix_path = uplink_path, .tcp_port = 0}));

  MergeNode merge(1);
  ASSERT_TRUE(
      merge.connect(0, net::Endpoint{.unix_path = uplink_path, .tcp_port = 0}));
  ASSERT_TRUE(eventually([&] { return node.subscriber_count() == 1; }));
  // Truncation happens under the attached subscriber: it already
  // consumed those frames live, so its stream stays healthy.
  for (int k = 0; k < 6; ++k) node.pump(TimePoint(1.0));
  ASSERT_TRUE(merge.wait_for_announces(0, 6, 5000));
  EXPECT_GT(node.frames_truncated(), 0u);
  EXPECT_EQ(merge.peer(0).error, MergeError::kNone);
  EXPECT_EQ(merge.peer(0).announces, 6u);
  merge.stop();
  node.stop();
}

TEST(ShardNode, SelfClockingPumpAnnouncesAndFlushesOnStop) {
  core::ClientRegistry registry = make_registry(1);
  ShardNodeConfig config;
  config.frontend = test_frontend_config();
  config.pump_interval = std::chrono::microseconds(500);
  // Manual clock pinned before the message's stamp: the held message
  // cannot emit until the shutdown flush.
  std::atomic<double> now{1.0};
  config.pump_clock = [&now] { return TimePoint(now.load()); };
  ShardNode node(registry, ids(1), config);

  {
    auto session = node.service().open_session(ClientId(0));
    session.submit(TimePoint(5.0), MessageId(1), TimePoint(5.0005));
  }

  EXPECT_FALSE(node.pump_running());
  node.start_pump();
  EXPECT_TRUE(node.pump_running());
  ASSERT_TRUE(eventually([&] { return node.announces_published() >= 3; }));
  // Gate pinned at 1.0: every pump so far was announce-only.
  EXPECT_EQ(node.frames_retained(), node.announces_published());

  node.stop_pump();
  EXPECT_FALSE(node.pump_running());
  // stop_pump's trailing flush drained the held message: exactly one
  // batch frame beyond the announces.
  EXPECT_EQ(node.frames_retained(), node.announces_published() + 1);

  // The pump can restart after a clean stop.
  node.start_pump();
  EXPECT_TRUE(node.pump_running());
  node.stop();
  EXPECT_FALSE(node.pump_running());
}

TEST(ShardNode, DefaultClocksHoldTheGateThroughTheSilenceBudget) {
  // Neither the ingest arrival clock nor the pump clock is injected, so
  // the silence timeout subtracts a default-clock arrival from a
  // default-clock pump time. Client 1 is heard once, at t; client 0's
  // message stamped t + 10 ms (plus a far-stamped heartbeat, so client 0
  // never holds the gate) must stay held while client 1 is inside its
  // silence budget and leave only once that budget has run out.
  constexpr double kBudget = 1.0;
  core::ClientRegistry registry = make_registry(2);
  ShardNodeConfig config;
  config.online.client_silence_timeout = Duration(kBudget);
  config.pump_interval = std::chrono::microseconds(5000);
  ShardNode node(registry, ids(2), config);
  const net::Endpoint ingest{.unix_path = fresh_unix_path(), .tcp_port = 0};
  const net::Endpoint uplink{.unix_path = fresh_unix_path(), .tcp_port = 0};
  ASSERT_TRUE(node.listen_ingest(ingest));
  ASSERT_TRUE(node.listen_uplink(uplink));
  MergeNode merge(1);
  ASSERT_TRUE(merge.connect(0, uplink));

  std::vector<std::shared_ptr<ByteStream>> clients;
  for (std::uint32_t c = 0; c < 2; ++c) {
    auto stream = net::dial(ingest, net::RetryPolicy{});
    ASSERT_NE(stream, nullptr);
    ASSERT_EQ(net::perform_handshake(
                  *stream, DistributionAnnouncement{ClientId(c),
                                                    summary_for(c)}),
              net::HandshakeResult::kAccepted);
    clients.push_back(std::move(stream));
  }
  node.start_pump();

  const double t = net::system_clock_now().seconds();
  ASSERT_TRUE(clients[1]->write_all(heartbeat_frame(1, t)));
  ASSERT_TRUE(clients[0]->write_all(message_frame(0, 1, t + 0.010)));
  ASSERT_TRUE(clients[0]->write_all(heartbeat_frame(0, t + 10.0)));

  // Well past T_b, well inside the budget: still held.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(merge.peer(0).accepted, 0u);

  ASSERT_TRUE(eventually([&] { return merge.peer(0).accepted == 1; },
                         static_cast<int>(kBudget * 1000) + 5000));
  EXPECT_GE(net::system_clock_now().seconds() - t, kBudget);
  for (const auto& stream : clients) stream->shutdown();
  merge.stop();
  node.stop();
}

// ── MergeSubscriber protocol errors (hand-fed downlink) ─────────────────

TEST(MergeSubscriber, OrderViolationIsTerminalNotACutover) {
  DownlinkStub stub;
  MergeSubscriberConfig config;
  config.endpoints = {NodeAddress{stub.path, 0}};
  MergeSubscriber subscriber(config);
  subscriber.start();
  auto server = stub.accept();
  ASSERT_NE(server, nullptr);

  // A record at safe_time 2.0, then one at 1.0 — released order must be
  // ascending, so the replica is lying. No attach watermark excuses it
  // (this subscriber never consumed anything before this connection).
  ASSERT_TRUE(server->write_all(
      encode_frame(WireMessage(make_batch(0, 0, 0, 2.0)))));
  ASSERT_TRUE(subscriber.wait_for_released(1, 5000));
  ASSERT_TRUE(server->write_all(
      encode_frame(WireMessage(make_batch(0, 0, 1, 1.0)))));
  ASSERT_TRUE(eventually([&] {
    return subscriber.stats().error == SubscriberError::kOrderViolation;
  }));
  const MergeSubscriberStats stats = subscriber.stats();
  EXPECT_FALSE(stats.connected);
  EXPECT_EQ(stats.cutovers, 0u);
  EXPECT_EQ(subscriber.released_count(), 1u);
  subscriber.stop();
}

TEST(MergeSubscriber, UnexpectedFrameKindIsATypedError) {
  DownlinkStub stub;
  MergeSubscriberConfig config;
  config.endpoints = {NodeAddress{stub.path, 0}};
  MergeSubscriber subscriber(config);
  subscriber.start();
  auto server = stub.accept();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->write_all(encode_frame(
      WireMessage(net::Heartbeat{ClientId(1), TimePoint(1.0)}))));
  ASSERT_TRUE(eventually([&] {
    return subscriber.stats().error == SubscriberError::kUnexpectedFrame;
  }));
  subscriber.stop();
}

TEST(MergeSubscriber, WatermarkAheadOfTheDeliveredStreamIsAViolation) {
  DownlinkStub stub;
  MergeSubscriberConfig config;
  config.endpoints = {NodeAddress{stub.path, 0}};
  MergeSubscriber subscriber(config);
  subscriber.start();
  auto server = stub.accept();
  ASSERT_NE(server, nullptr);
  // A barrier claiming 3 releases on a stream that delivered none:
  // records were lost ahead of their watermark.
  net::MergeWatermark watermark;
  watermark.released = 3;
  ASSERT_TRUE(server->write_all(encode_frame(WireMessage(watermark))));
  ASSERT_TRUE(eventually([&] {
    return subscriber.stats().error == SubscriberError::kOrderViolation;
  }));
  subscriber.stop();
}

TEST(MergeSubscriber, ConsumesLiveDownlinkWithWatermarks) {
  MergeHarness h(1);
  const std::string downlink_path = fresh_unix_path();
  ASSERT_TRUE(h.merge.listen_downlink_unix(downlink_path));

  MergeSubscriberConfig config;
  config.endpoints = {NodeAddress{downlink_path, 0}};
  MergeSubscriber subscriber(config);
  subscriber.start();
  // The attach barrier: an empty watermark before anything releases.
  ASSERT_TRUE(subscriber.wait_for_watermarks(1, 5000));
  EXPECT_EQ(subscriber.watermark(), net::MergeWatermark{});

  h.send(0, encode_frame(WireMessage(make_batch(0, 0, 0, 1.0))));
  h.send(0, encode_frame(WireMessage(make_batch(0, 0, 1, 2.0))));
  h.sync(0, 0);
  EXPECT_EQ(h.merge.release(), 2u);
  ASSERT_TRUE(subscriber.wait_for_released(2, 5000));
  EXPECT_EQ(subscriber.watermark(), h.merge.watermark());
  const MergeSubscriberStats stats = subscriber.stats();
  EXPECT_TRUE(stats.connected);
  EXPECT_EQ(stats.error, SubscriberError::kNone);
  EXPECT_EQ(stats.duplicates, 0u);
  subscriber.stop();
  h.merge.stop();
}

}  // namespace
}  // namespace tommy::dist
