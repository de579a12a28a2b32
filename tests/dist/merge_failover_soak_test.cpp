// Chaos proof of merge replication: N shard nodes behind a router, a
// PRIMARY and a STANDBY MergeNode over the same uplinks (each publishing
// its released stream on a downlink), and one MergeSubscriber consuming
// the primary. The primary is killed mid-run; the subscriber cuts over
// to the standby and resumes from its watermark — and the spliced stream
// it ends up with must be BIT-IDENTICAL to the single-process
// kGlobalMerge oracle: no gap, no duplicate, no typed error, exactly as
// if the merge had never died.
//
// Variants: announce-only cutover (the primary dies before releasing
// anything, so the splice happens at a pure SafeTimeAnnounce barrier
// with an empty watermark), double failover (primary → standby → a
// merge restarted on the primary's endpoint), and a shard killed during
// the cutover (the standby loses an uplink mid-splice, its gate reverts
// to −infinity, and the epoch+1 restart's replay un-wedges it).
//
// SOAK_ITERS (env) repeats each scenario; CI runs 3.
#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/merge_node.hpp"
#include "dist/merge_subscriber.hpp"
#include "dist/shard_node.hpp"
#include "dist/topology.hpp"
#include "../net/wire_test_util.hpp"

namespace tommy::dist {
namespace {

using namespace tommy::net::testing;
using net::ByteStream;
using net::DistributionAnnouncement;
using net::FrontendTotals;
using net::HandshakeResult;
using net::perform_handshake;

int soak_iterations() {
  const char* env = std::getenv("SOAK_ITERS");
  if (env == nullptr) return 1;
  const int parsed = std::atoi(env);
  return parsed > 0 ? parsed : 1;
}

/// Released OrderedBatches in the oracle's currency (epoch is
/// incarnation metadata, deliberately outside the comparison).
std::vector<CapturedBatch> captured_of(
    const std::vector<net::OrderedBatch>& released) {
  std::vector<CapturedBatch> out;
  out.reserve(released.size());
  for (const net::OrderedBatch& batch : released) {
    CapturedBatch captured;
    captured.shard = batch.node;
    captured.rank = batch.rank;
    captured.emitted_at = batch.emitted_at.seconds();
    captured.safe_time = batch.safe_time.seconds();
    for (const net::OrderedBatch::Entry& entry : batch.messages) {
      captured.messages.push_back(
          CapturedMessage{entry.id.value(), entry.client.value(),
                          entry.stamp.seconds(), entry.arrival.seconds()});
    }
    out.push_back(std::move(captured));
  }
  return out;
}

[[nodiscard]] std::shared_ptr<ByteStream> stream_client(
    const std::string& router_path, std::uint32_t client,
    const std::vector<Event>& events) {
  auto stream = net::dial(
      net::Endpoint{.unix_path = router_path, .tcp_port = 0},
      net::RetryPolicy{});
  if (stream == nullptr) return nullptr;
  if (perform_handshake(*stream, DistributionAnnouncement{
                                     ClientId(client), summary_for(client)})
      != HandshakeResult::kAccepted) {
    return nullptr;
  }
  std::vector<std::uint8_t> bytes;
  for (const Event& e : events) {
    const auto frame = event_frame(client, e);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  if (!stream->write_all(bytes)) return nullptr;
  stream->close_write();
  return stream;
}

enum class Fault {
  /// Kill the primary merge between pump rounds (records in flight).
  kKillPrimaryMidRun,
  /// Kill the primary before ANY release: the cutover happens at a pure
  /// announce barrier, the subscriber's watermark still empty.
  kAnnounceOnlyCutover,
  /// Kill the primary, then the standby; a fresh merge restarted on the
  /// primary's downlink endpoint catches the second cutover.
  kDoubleFailover,
  /// Kill shard 0 together with the primary: the subscriber splices onto
  /// a standby whose gate is wedged at −infinity by the dead uplink,
  /// until the shard's epoch+1 restart replays and un-wedges it.
  kShardKilledDuringCutover,
};

/// The full replicated-merge scenario against the oracle.
void run_failover(std::uint32_t node_count, Fault fault, std::uint64_t seed) {
  const std::uint32_t kClients = 6;
  const int kPerClient = 12;
  const auto workload = make_workload(kClients, kPerClient, seed);

  const std::vector<CapturedBatch> oracle = run_direct(
      workload, core::ServiceConfig{}
                    .with_shards(node_count)
                    .with_drain_policy(core::DrainPolicy::kGlobalMerge));
  ASSERT_FALSE(oracle.empty());

  // ── Shard tier + router (as in multinode_soak) ───────────────────────
  std::vector<NodeEndpoints> endpoints(node_count);
  for (auto& e : endpoints) {
    e.ingest.unix_path = fresh_unix_path();
    e.uplink.unix_path = fresh_unix_path();
  }
  Topology topology(endpoints, ids(kClients));

  std::deque<core::ClientRegistry> registries;
  std::vector<std::unique_ptr<ShardNode>> nodes(node_count);
  auto start_node = [&](std::uint32_t node, std::uint64_t epoch,
                        core::ClientRegistry& registry) {
    ShardNodeConfig config;
    config.node = node;
    config.epoch = epoch;
    config.frontend = test_frontend_config();
    auto shard = std::make_unique<ShardNode>(registry,
                                             topology.partition(node), config);
    ASSERT_TRUE(shard->listen_ingest(endpoints[node].ingest));
    ASSERT_TRUE(shard->listen_uplink(endpoints[node].uplink));
    nodes[node] = std::move(shard);
  };
  for (std::uint32_t n = 0; n < node_count; ++n) {
    registries.push_back(make_registry(kClients));
    start_node(n, /*epoch=*/0, registries[n]);
  }

  RouterNode router(topology);
  const std::string router_path = fresh_unix_path();
  ASSERT_TRUE(router.listen(
      net::Endpoint{.unix_path = router_path, .tcp_port = 0}));

  // ── The replicated merge tier: primary + hot standby ─────────────────
  const std::string primary_downlink = fresh_unix_path();
  const std::string standby_downlink = fresh_unix_path();
  auto start_merge = [&](const std::string& downlink_path)
      -> std::unique_ptr<MergeNode> {
    auto merge = std::make_unique<MergeNode>(node_count);
    EXPECT_TRUE(merge->listen_downlink_unix(downlink_path));
    for (std::uint32_t n = 0; n < node_count; ++n) {
      EXPECT_TRUE(merge->connect(n, endpoints[n].uplink));
    }
    return merge;
  };
  auto primary = start_merge(primary_downlink);
  auto standby = start_merge(standby_downlink);

  MergeSubscriberConfig subscriber_config;
  subscriber_config.endpoints = {NodeAddress{primary_downlink, 0},
                                 NodeAddress{standby_downlink, 0}};
  // A dead endpoint mid-cycle should be skipped quickly, not outwaited.
  subscriber_config.retry.attempts = 3;
  subscriber_config.retry.base_delay = std::chrono::microseconds(500);
  MergeSubscriber subscriber(subscriber_config);
  subscriber.start();
  // The attach barrier proves the subscriber is wired to the primary
  // before any fault fires.
  ASSERT_TRUE(subscriber.wait_for_watermarks(1, 10000));

  // ── Clients stream their workloads through the router ────────────────
  std::vector<std::shared_ptr<ByteStream>> held_open(kClients);
  auto run_clients = [&](const std::vector<ClientId>& clients) {
    std::vector<std::thread> writers;
    for (ClientId c : clients) {
      writers.emplace_back([&, c] {
        std::shared_ptr<ByteStream> stream;
        while (stream == nullptr) {
          stream = stream_client(router_path, c.value(), workload[c.value()]);
        }
        held_open[c.value()] = std::move(stream);
      });
    }
    for (std::thread& writer : writers) writer.join();
  };
  auto await_ingest = [&](std::uint32_t node) {
    std::uint64_t submits = 0;
    std::uint64_t heartbeats = 0;
    for (ClientId c : topology.partition(node)) {
      for (const Event& e : workload[c.value()]) {
        e.is_heartbeat ? ++heartbeats : ++submits;
      }
    }
    ASSERT_TRUE(eventually([&] {
      const FrontendTotals t = nodes[node]->server().frontend().totals();
      return t.submits_in == submits && t.heartbeats_in == heartbeats;
    })) << "node " << node << " ingest incomplete";
  };
  run_clients(ids(kClients));
  for (std::uint32_t n = 0; n < node_count; ++n) await_ingest(n);

  // ── Pump rounds: both replicas consume, both release ─────────────────
  // Each live replica must stay a prefix of the oracle independently.
  std::vector<std::uint64_t> announce_target(node_count, 0);
  auto pump_round = [&](TimePoint now, bool flush_all,
                        std::vector<MergeNode*> merges) {
    for (std::uint32_t n = 0; n < node_count; ++n) {
      if (flush_all) {
        nodes[n]->pump_flush(now);
      } else {
        nodes[n]->pump(now);
      }
      ++announce_target[n];
    }
    for (MergeNode* merge : merges) {
      for (std::uint32_t n = 0; n < node_count; ++n) {
        ASSERT_TRUE(merge->wait_for_announces(n, announce_target[n], 10000))
            << "node " << n << " announce missing";
      }
      merge->release();
      const auto released = captured_of(merge->released());
      ASSERT_LE(released.size(), oracle.size());
      for (std::size_t i = 0; i < released.size(); ++i) {
        ASSERT_EQ(released[i], oracle[i]) << "replica diverged at " << i;
      }
    }
  };

  const auto schedule = poll_schedule();
  std::uint64_t expected_cutovers = 1;

  if (fault == Fault::kAnnounceOnlyCutover) {
    // The primary consumes the announces but is killed before its first
    // release: the subscriber has seen only the empty attach watermark
    // when the stream dies.
    pump_round(schedule[0], false, {standby.get()});
    for (std::uint32_t n = 0; n < node_count; ++n) {
      ASSERT_TRUE(primary->wait_for_announces(n, announce_target[n], 10000));
    }
    EXPECT_EQ(subscriber.released_count(), 0u);
    primary.reset();
    pump_round(schedule[1], false, {standby.get()});
  } else {
    pump_round(schedule[0], false, {primary.get(), standby.get()});
    pump_round(schedule[1], false, {primary.get(), standby.get()});
    // The subscriber has consumed some of the primary's stream (how much
    // is timing-dependent); the kill lands with records in flight.
    primary.reset();
  }

  if (fault == Fault::kShardKilledDuringCutover) {
    // The uplink cut lands while the subscriber is splicing onto the
    // standby: shard 0 dies with the primary, the standby's gate reverts
    // to −infinity for that slot, and nothing can release until the
    // epoch+1 incarnation replays its schedule.
    const std::uint64_t accepted_before = standby->peer(0).accepted;
    nodes[0].reset();
    ASSERT_TRUE(eventually([&] { return !standby->peer(0).connected; }));

    start_node(0, /*epoch=*/1, registries[0]);
    ASSERT_TRUE(standby->connect(0, endpoints[0].uplink));
    // The partition's clients lost their relays; they reconnect through
    // the router (the dial retry absorbs the restart window) and resend.
    run_clients(topology.partition(0));
    await_ingest(0);
    // Replay the schedule so far: rank collisions with the accepted
    // prefix are dropped, and the announces re-open the gate.
    nodes[0]->pump(schedule[0]);
    nodes[0]->pump(schedule[1]);
    announce_target[0] += 2;
    ASSERT_TRUE(standby->wait_for_announces(0, announce_target[0], 10000));
    const MergePeerStats stats = standby->peer(0);
    EXPECT_EQ(stats.error, MergeError::kNone);
    EXPECT_EQ(stats.epoch, 1u);
    EXPECT_EQ(stats.duplicates, accepted_before)
        << "replayed prefix must be dropped rank for rank";
  }

  pump_round(schedule[2], false, {standby.get()});

  std::unique_ptr<MergeNode> revived;
  if (fault == Fault::kDoubleFailover) {
    // The subscriber must have finished cutover #1 before the standby
    // dies, or it would see two dead endpoints and just cycle (which
    // works, but then cutovers is timing-dependent).
    ASSERT_TRUE(eventually(
        [&] { return subscriber.stats().cutovers >= 1; }, 10000));
    // Restart a merge on the PRIMARY's downlink endpoint (the address is
    // what the subscriber's cycle knows). Full uplink replay rebuilds
    // the identical released stream.
    revived = start_merge(primary_downlink);
    for (std::uint32_t n = 0; n < node_count; ++n) {
      ASSERT_TRUE(revived->wait_for_announces(n, announce_target[n], 10000));
    }
    revived->release();
    standby.reset();
    expected_cutovers = 2;
  }

  std::vector<MergeNode*> live;
  if (standby) live.push_back(standby.get());
  if (revived) live.push_back(revived.get());
  pump_round(schedule[3], false, live);
  pump_round(TimePoint(3.0), true, live);
  for (MergeNode* merge : live) merge->flush();

  // ── The verdict ──────────────────────────────────────────────────────
  ASSERT_TRUE(subscriber.wait_for_released(oracle.size(), 20000))
      << "subscriber stalled at " << subscriber.released_count() << "/"
      << oracle.size();
  // A replica killed late may already have delivered every record, so
  // the subscriber can hold the whole stream before its asynchronous
  // re-attach (the one a cutover counts) lands: wait for that attach.
  ASSERT_TRUE(eventually(
      [&] { return subscriber.stats().cutovers >= expected_cutovers; },
      10000))
      << "subscriber made " << subscriber.stats().cutovers << " of "
      << expected_cutovers << " cutovers";
  const auto spliced = captured_of(subscriber.released());
  expect_equivalent(oracle, spliced);

  const MergeSubscriberStats stats = subscriber.stats();
  EXPECT_EQ(stats.error, SubscriberError::kNone);
  EXPECT_EQ(stats.cutovers, expected_cutovers);
  if (fault == Fault::kAnnounceOnlyCutover) {
    EXPECT_EQ(stats.duplicates, 0u)
        << "nothing was released before the splice, so nothing can replay";
  }
  for (MergeNode* merge : live) {
    for (std::uint32_t n = 0; n < node_count; ++n) {
      EXPECT_EQ(merge->peer(n).error, MergeError::kNone) << "node " << n;
    }
  }

  subscriber.stop();
  if (standby) standby->stop();
  if (revived) revived->stop();
  router.stop();
  for (auto& node : nodes) node->stop();
}

TEST(MergeFailoverSoak, PrimaryKilledMidRunTwoShards) {
  for (int iter = 0; iter < soak_iterations(); ++iter) {
    run_failover(2, Fault::kKillPrimaryMidRun, 611 + iter);
  }
}

TEST(MergeFailoverSoak, PrimaryKilledMidRunFourShards) {
  for (int iter = 0; iter < soak_iterations(); ++iter) {
    run_failover(4, Fault::kKillPrimaryMidRun, 722 + iter);
  }
}

TEST(MergeFailoverSoak, AnnounceOnlyCutoverSplicesAtEmptyWatermark) {
  for (int iter = 0; iter < soak_iterations(); ++iter) {
    run_failover(2, Fault::kAnnounceOnlyCutover, 833 + iter);
  }
}

TEST(MergeFailoverSoak, DoubleFailoverPrimaryStandbyRevivedPrimary) {
  for (int iter = 0; iter < soak_iterations(); ++iter) {
    run_failover(2, Fault::kDoubleFailover, 944 + iter);
  }
}

TEST(MergeFailoverSoak, ShardKilledDuringCutoverWedgesThenRecovers) {
  for (int iter = 0; iter < soak_iterations(); ++iter) {
    run_failover(2, Fault::kShardKilledDuringCutover, 1055 + iter);
  }
}

}  // namespace
}  // namespace tommy::dist
