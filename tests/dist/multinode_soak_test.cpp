// End-to-end proof of the distributed topology: N shard nodes behind a
// router, one merge node over the uplinks, driven by real client
// connections over real Unix sockets — and the released global stream
// must be BIT-IDENTICAL to the single-process kGlobalMerge oracle over
// the same workload. The kill/restart scenario additionally proves the
// resume protocol: a shard node dying mid-run and coming back as a new
// incarnation (epoch + 1) replays its ingest, the merge drops the
// replayed prefix as duplicates, and the final stream is unchanged.
//
// SOAK_ITERS (env) repeats each scenario; CI runs 3.
#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "dist/merge_node.hpp"
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

struct PartitionTotals {
  std::uint64_t submits{0};
  std::uint64_t heartbeats{0};
};

PartitionTotals count_partition(
    const std::vector<std::vector<Event>>& workload,
    const std::vector<ClientId>& partition) {
  PartitionTotals totals;
  for (ClientId c : partition) {
    for (const Event& e : workload[c.value()]) {
      if (e.is_heartbeat) {
        ++totals.heartbeats;
      } else {
        ++totals.submits;
      }
    }
  }
  return totals;
}

/// One client incarnation: connect through the router, join-handshake,
/// stream every event, half-close. The returned stream is kept alive by
/// the caller so the server side sees a quiet-but-open peer (the oracle
/// never retires clients either). False on any transport hiccup — the
/// caller retries the whole incarnation, which is exactly the resend
/// protocol a real client follows after a relay teardown.
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

/// The full scenario. `kill_node` < node_count kills that shard node
/// after the second pump round and restarts it as epoch 1 on the same
/// endpoints; node_count == kill_node disables the fault.
void run_scenario(std::uint32_t node_count, std::uint32_t kill_node,
                  std::uint64_t seed) {
  const std::uint32_t kClients = 6;
  const int kPerClient = 12;
  const auto workload = make_workload(kClients, kPerClient, seed);

  // The oracle: same clients, same events, one process, N shards, global
  // merge. Everything below must reproduce this byte for byte.
  const std::vector<CapturedBatch> oracle = run_direct(
      workload, core::ServiceConfig{}
                    .with_shards(node_count)
                    .with_drain_policy(core::DrainPolicy::kGlobalMerge));
  ASSERT_FALSE(oracle.empty());

  // ── Deployment ────────────────────────────────────────────────────────
  std::vector<NodeEndpoints> endpoints(node_count);
  for (auto& e : endpoints) {
    e.ingest.unix_path = fresh_unix_path();
    e.uplink.unix_path = fresh_unix_path();
  }
  Topology topology(endpoints, ids(kClients));

  // One registry per node, as in a real deployment: every node primes
  // over the full client set from its own copy of the shared config.
  std::deque<core::ClientRegistry> registries;
  std::vector<std::unique_ptr<ShardNode>> nodes;
  auto start_node = [&](std::uint32_t node, std::uint64_t epoch,
                        core::ClientRegistry& registry) {
    ShardNodeConfig config;
    config.node = node;
    config.epoch = epoch;
    config.frontend = test_frontend_config();
    auto shard = std::make_unique<ShardNode>(
        registry, topology.partition(node), config);
    ASSERT_TRUE(shard->listen_ingest(endpoints[node].ingest));
    ASSERT_TRUE(shard->listen_uplink(endpoints[node].uplink));
    nodes[node] = std::move(shard);
  };
  nodes.resize(node_count);
  for (std::uint32_t n = 0; n < node_count; ++n) {
    registries.push_back(make_registry(kClients));
    start_node(n, /*epoch=*/0, registries[n]);
  }

  RouterNode router(topology);
  const std::string router_path = fresh_unix_path();
  ASSERT_TRUE(router.listen(
      net::Endpoint{.unix_path = router_path, .tcp_port = 0}));

  MergeNode merge(node_count);
  for (std::uint32_t n = 0; n < node_count; ++n) {
    ASSERT_TRUE(merge.connect(n, endpoints[n].uplink));
  }

  // ── Clients stream their full workloads through the router ───────────
  std::vector<std::shared_ptr<ByteStream>> held_open(kClients);
  auto run_clients = [&](const std::vector<ClientId>& clients) {
    std::vector<std::thread> writers;
    for (ClientId c : clients) {
      writers.emplace_back([&, c] {
        std::shared_ptr<ByteStream> stream;
        while (stream == nullptr) {
          stream = stream_client(router_path, c.value(),
                                 workload[c.value()]);
        }
        held_open[c.value()] = std::move(stream);
      });
    }
    for (std::thread& writer : writers) writer.join();
  };
  run_clients(ids(kClients));

  // Barrier: every node has decoded and dispatched its whole partition
  // (the oracle ingests everything before its first poll, so must we).
  auto await_ingest = [&](std::uint32_t node) {
    const PartitionTotals expected =
        count_partition(workload, topology.partition(node));
    ASSERT_TRUE(eventually([&] {
      const FrontendTotals t = nodes[node]->server().frontend().totals();
      return t.submits_in == expected.submits
             && t.heartbeats_in == expected.heartbeats;
    })) << "node " << node << " ingest incomplete";
  };
  for (std::uint32_t n = 0; n < node_count; ++n) await_ingest(n);

  // ── Pump rounds on the shared schedule ────────────────────────────────
  // After each round the released stream must be a PREFIX of the oracle:
  // the merge may (legitimately) still be holding what the oracle's gate
  // released, but may never release anything else or reorder.
  std::vector<std::uint64_t> announce_target(node_count, 0);
  auto pump_round = [&](TimePoint now, bool flush_all) {
    for (std::uint32_t n = 0; n < node_count; ++n) {
      if (flush_all) {
        nodes[n]->pump_flush(now);
      } else {
        nodes[n]->pump(now);
      }
      ++announce_target[n];
    }
    for (std::uint32_t n = 0; n < node_count; ++n) {
      // FIFO uplink: the announce landing implies every batch the pump
      // emitted before it landed too.
      ASSERT_TRUE(merge.wait_for_announces(n, announce_target[n], 10000))
          << "node " << n << " announce missing";
    }
    merge.release();
    const auto released = captured_of(merge.released());
    ASSERT_LE(released.size(), oracle.size());
    for (std::size_t i = 0; i < released.size(); ++i) {
      ASSERT_EQ(released[i], oracle[i])
          << "divergence from oracle at released batch " << i;
    }
  };

  const auto schedule = poll_schedule();
  pump_round(schedule[0], false);
  pump_round(schedule[1], false);

  // ── Fault: kill one shard node mid-run, restart as epoch 1 ────────────
  if (kill_node < node_count) {
    const std::uint64_t accepted_before = merge.peer(kill_node).accepted;
    nodes[kill_node].reset();  // uplink + ingest die hard
    ASSERT_TRUE(
        eventually([&] { return !merge.peer(kill_node).connected; }));

    start_node(kill_node, /*epoch=*/1, registries[kill_node]);
    ASSERT_TRUE(merge.connect(kill_node, endpoints[kill_node].uplink));
    // The partition's clients lost their relays; they reconnect through
    // the router and resend from scratch (the client resend protocol).
    run_clients(topology.partition(kill_node));
    await_ingest(kill_node);
    // The new incarnation replays the whole schedule so far; its ranks
    // collide with the accepted prefix and the merge drops them.
    nodes[kill_node]->pump(schedule[0]);
    ++announce_target[kill_node];
    nodes[kill_node]->pump(schedule[1]);
    ++announce_target[kill_node];
    ASSERT_TRUE(merge.wait_for_announces(kill_node,
                                         announce_target[kill_node], 10000));
    const MergePeerStats stats = merge.peer(kill_node);
    EXPECT_EQ(stats.error, MergeError::kNone);
    EXPECT_EQ(stats.epoch, 1u);
    EXPECT_EQ(stats.duplicates, accepted_before)
        << "replayed prefix must be dropped rank for rank";
  }

  pump_round(schedule[2], false);
  pump_round(schedule[3], false);
  // Shutdown drain: the trailing announce carries an infinite frontier,
  // so the gate opens fully; flush() backstops records whose safe_time
  // is itself infinite (strict < can never pass those).
  pump_round(TimePoint(3.0), true);
  merge.flush();

  // ── The verdict: bit-identical to the oracle, no protocol errors ──────
  const auto released = captured_of(merge.released());
  expect_equivalent(oracle, released);
  for (std::uint32_t n = 0; n < node_count; ++n) {
    const MergePeerStats stats = merge.peer(n);
    EXPECT_EQ(stats.error, MergeError::kNone) << "node " << n;
    EXPECT_EQ(stats.stale, 0u) << "node " << n;
    if (n != kill_node) {
      EXPECT_EQ(stats.duplicates, 0u) << "node " << n;
    }
  }

  merge.stop();
  router.stop();
  for (auto& node : nodes) {
    if (node) node->stop();
  }
}

TEST(MultinodeSoak, SingleNodeMatchesOracle) {
  for (int iter = 0; iter < soak_iterations(); ++iter) {
    run_scenario(/*node_count=*/1, /*kill_node=*/1, /*seed=*/101 + iter);
  }
}

TEST(MultinodeSoak, TwoNodesMatchOracle) {
  for (int iter = 0; iter < soak_iterations(); ++iter) {
    run_scenario(/*node_count=*/2, /*kill_node=*/2, /*seed=*/202 + iter);
  }
}

TEST(MultinodeSoak, FourNodesMatchOracle) {
  for (int iter = 0; iter < soak_iterations(); ++iter) {
    run_scenario(/*node_count=*/4, /*kill_node=*/4, /*seed=*/303 + iter);
  }
}

TEST(MultinodeSoak, ShardNodeKillRestartIsInvisibleInTheMergedStream) {
  for (int iter = 0; iter < soak_iterations(); ++iter) {
    run_scenario(/*node_count=*/2, /*kill_node=*/0, /*seed=*/404 + iter);
  }
}

TEST(MultinodeSoak, KillRestartUnderFourNodes) {
  for (int iter = 0; iter < soak_iterations(); ++iter) {
    run_scenario(/*node_count=*/4, /*kill_node=*/2, /*seed=*/505 + iter);
  }
}

}  // namespace
}  // namespace tommy::dist
