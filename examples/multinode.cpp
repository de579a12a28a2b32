// Multi-node fair ordering: shard nodes + safe-time gossip + merge tier.
//
//   ./build/example_multinode                       # self-contained demo
//   ./build/example_multinode failover              # replicated merge demo
//   ./build/example_multinode shard --node 0 --nodes 2 --clients 6
//        --messages 5000 --uplink-prefix /tmp/mn_up [--wait-subscribers W]
//   ./build/example_multinode merge --nodes 2 --clients 6 --messages 5000
//        --uplink-prefix /tmp/mn_up [--json out.json] [--standbys K]
//        [--downlink PATH]
//   ./build/example_multinode router --listen /tmp/mn_router.sock
//        --nodes 2 --ingest-prefix /tmp/mn_in
//
// The demo stands the whole topology up in one process — N shard nodes,
// a router, a merge node, and real client connections over Unix sockets
// — and checks the merged release stream bit for bit against the
// single-process DrainPolicy::kGlobalMerge oracle over the same
// workload. The failover demo replicates the merge tier (primary + hot
// standby + MergeSubscriber), kills the primary mid-schedule, and checks
// that the subscriber's spliced stream still matches the oracle bit for
// bit. `shard` + `merge` are the two halves of
// scripts/bench_multinode.sh (N shard processes streaming uplinks into
// one merge process, which reports MN_MergeIngest throughput;
// --wait-subscribers / --standbys measure the cost of a standby replica
// on the same uplinks).
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dist/merge_node.hpp"
#include "dist/merge_subscriber.hpp"
#include "dist/shard_node.hpp"
#include "dist/topology.hpp"
#include "net/acceptor.hpp"
#include "stats/gaussian.hpp"
#include "stats/summary.hpp"

namespace {

using namespace tommy;

constexpr Duration kWireDelay = Duration(0.5e-3);

stats::DistributionSummary summary_for(std::uint32_t client) {
  return stats::DistributionSummary(
      stats::GaussianParams{1e-4 * client, 1e-3});
}

core::ClientRegistry make_registry(std::uint32_t clients) {
  core::ClientRegistry registry;
  for (std::uint32_t c = 0; c < clients; ++c) {
    registry.announce(ClientId(c), summary_for(c));
  }
  return registry;
}

std::vector<ClientId> ids(std::uint32_t clients) {
  std::vector<ClientId> out;
  for (std::uint32_t c = 0; c < clients; ++c) out.push_back(ClientId(c));
  return out;
}

/// Deterministic arrival clock (stamp + fixed delay): every process in
/// the deployment derives the same arrival for the same frame, which is
/// what makes the distributed run comparable to the oracle.
net::FrontendConfig modeled_frontend() {
  net::FrontendConfig config;
  config.arrival_clock = [](const net::WireMessage& m) {
    if (const auto* msg = std::get_if<net::TimestampedMessage>(&m)) {
      return msg->local_stamp + kWireDelay;
    }
    return std::get<net::Heartbeat>(m).local_stamp + kWireDelay;
  };
  return config;
}

struct WorkloadEvent {
  bool is_heartbeat;
  std::uint64_t id;
  double stamp;
};

/// Pure function of (clients, per_client, seed): every process that
/// computes the workload computes the same one.
std::vector<std::vector<WorkloadEvent>> make_workload(std::uint32_t clients,
                                                      int per_client,
                                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<WorkloadEvent>> events(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    Rng client_rng = rng.split();
    double stamp = 1.0 + 1e-4 * c;
    for (int k = 0; k < per_client; ++k) {
      stamp += client_rng.uniform(0.5e-3, 3e-3);
      events[c].push_back(WorkloadEvent{
          false, 1000000ULL * c + static_cast<std::uint64_t>(k), stamp});
      if (k % 5 == 4) {
        events[c].push_back(WorkloadEvent{true, 0, stamp + 0.1e-3});
      }
    }
    events[c].push_back(WorkloadEvent{true, 0, stamp + 50e-3});
  }
  return events;
}

/// Drives one client's workload straight into its session (the shard
/// bench path: ingest without the wire, so the uplink+merge tier is what
/// gets measured).
void drive_session(core::FairOrderingService& service, std::uint32_t client,
                   const std::vector<WorkloadEvent>& events) {
  auto session = service.open_session(ClientId(client));
  std::vector<core::Submission> batch;
  for (const WorkloadEvent& event : events) {
    if (event.is_heartbeat) {
      session.submit_batch(std::span<const core::Submission>(batch));
      batch.clear();
      session.heartbeat(TimePoint(event.stamp),
                        TimePoint(event.stamp) + kWireDelay);
    } else {
      batch.push_back(core::Submission{TimePoint(event.stamp),
                                       MessageId(event.id),
                                       TimePoint(event.stamp) + kWireDelay});
    }
  }
  session.submit_batch(std::span<const core::Submission>(batch));
}

/// Flat digest of one ordered record — shard/node tag, rank, gate times,
/// and every message field. Two streams are bit-identical iff their
/// digests are equal.
void digest_batch(std::vector<double>& digest, std::uint32_t node,
                  std::uint64_t rank, double safe_time, double emitted_at) {
  digest.push_back(static_cast<double>(node));
  digest.push_back(static_cast<double>(rank));
  digest.push_back(safe_time);
  digest.push_back(emitted_at);
}

void digest_message(std::vector<double>& digest, std::uint64_t id,
                    std::uint32_t client, double stamp, double arrival) {
  digest.push_back(static_cast<double>(id));
  digest.push_back(static_cast<double>(client));
  digest.push_back(stamp);
  digest.push_back(arrival);
}

std::vector<TimePoint> poll_schedule() {
  return {TimePoint(1.05), TimePoint(1.2), TimePoint(1.5), TimePoint(2.5)};
}

// The failover demo pumps a denser schedule so the first frontier
// releases only part of the workload — the primary dies with work still
// held back, and the standby serves genuinely new batches after the
// watermark splice (not just the replayed prefix).
std::vector<TimePoint> failover_schedule() {
  return {TimePoint(1.01), TimePoint(1.03), TimePoint(1.05),
          TimePoint(1.2), TimePoint(2.5)};
}

// ── flag helpers ────────────────────────────────────────────────────────

struct Args {
  std::uint32_t nodes{2};
  std::uint32_t node{0};
  std::uint32_t clients{6};
  int messages{12};
  std::uint64_t seed{42};
  std::uint32_t wait_subscribers{1};
  std::uint32_t standbys{0};
  std::string uplink_prefix;
  std::string ingest_prefix;
  std::string listen;
  std::string json;
  std::string downlink;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = ++i < argc ? argv[i] : nullptr;
    if (value == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    if (flag == "--nodes") args.nodes = static_cast<std::uint32_t>(std::atoi(value));
    else if (flag == "--node") args.node = static_cast<std::uint32_t>(std::atoi(value));
    else if (flag == "--clients") args.clients = static_cast<std::uint32_t>(std::atoi(value));
    else if (flag == "--messages") args.messages = std::atoi(value);
    else if (flag == "--seed") args.seed = static_cast<std::uint64_t>(std::atoll(value));
    else if (flag == "--wait-subscribers") args.wait_subscribers = static_cast<std::uint32_t>(std::atoi(value));
    else if (flag == "--standbys") args.standbys = static_cast<std::uint32_t>(std::atoi(value));
    else if (flag == "--uplink-prefix") args.uplink_prefix = value;
    else if (flag == "--ingest-prefix") args.ingest_prefix = value;
    else if (flag == "--listen") args.listen = value;
    else if (flag == "--json") args.json = value;
    else if (flag == "--downlink") args.downlink = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

std::string indexed_path(const std::string& prefix, std::uint32_t index) {
  return prefix + "_" + std::to_string(index) + ".sock";
}

// ── shard: one node of the bench deployment ─────────────────────────────

int run_shard(const Args& args) {
  if (args.uplink_prefix.empty() || args.node >= args.nodes) {
    std::fprintf(stderr,
                 "usage: multinode shard --node I --nodes N --uplink-prefix P "
                 "[--clients C --messages M --seed S]\n");
    return 2;
  }
  auto registry = make_registry(args.clients);
  dist::Topology topology(std::vector<dist::NodeEndpoints>(args.nodes),
                          ids(args.clients));
  dist::ShardNodeConfig config;
  config.node = args.node;
  config.frontend = modeled_frontend();
  dist::ShardNode node(registry, topology.partition(args.node), config);
  if (!node.listen_uplink(net::Endpoint{
          .unix_path = indexed_path(args.uplink_prefix, args.node),
          .tcp_port = 0})) {
    std::fprintf(stderr, "shard %u: uplink listen failed\n", args.node);
    return 1;
  }

  // Wait for every merge subscriber (primary + standbys) before
  // streaming, so the bench clock over on the merge side covers the
  // whole uplink volume.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (node.subscriber_count() < args.wait_subscribers) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "shard %u: %zu/%u merge subscribers\n",
                   args.node, node.subscriber_count(),
                   args.wait_subscribers);
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto workload =
      make_workload(args.clients, args.messages, args.seed);
  for (ClientId c : topology.partition(args.node)) {
    drive_session(node.service(), c.value(), workload[c.value()]);
  }
  node.pump_flush(TimePoint(1e9));
  std::fprintf(stderr, "shard %u: published %zu frames\n", args.node,
               node.frames_retained());
  node.stop();
  return 0;
}

// ── merge: the global tier, reporting ingest throughput ─────────────────

int run_merge(const Args& args) {
  if (args.uplink_prefix.empty()) {
    std::fprintf(stderr,
                 "usage: multinode merge --nodes N --uplink-prefix P "
                 "[--clients C --messages M --json OUT]\n");
    return 2;
  }
  dist::MergeConfig config;
  config.retry.attempts = 5000;  // shard processes may still be binding
  dist::MergeNode merge(args.nodes, config);
  if (!args.downlink.empty()
      && !merge.listen_downlink_unix(args.downlink)) {
    std::fprintf(stderr, "merge: downlink listen failed on %s\n",
                 args.downlink.c_str());
    return 1;
  }
  for (std::uint32_t n = 0; n < args.nodes; ++n) {
    if (!merge.connect(
            n, net::Endpoint{.unix_path = indexed_path(args.uplink_prefix, n),
                             .tcp_port = 0})) {
      std::fprintf(stderr, "merge: cannot reach shard %u uplink\n", n);
      return 1;
    }
  }
  const auto t0 = std::chrono::steady_clock::now();

  // Drain until every shard's uplink closed (the shard processes exit
  // once they have flushed), then open the gate fully.
  auto any_connected = [&] {
    for (std::uint32_t n = 0; n < args.nodes; ++n) {
      if (merge.peer(n).connected) return true;
    }
    return false;
  };
  while (any_connected()) {
    merge.release();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  merge.release();
  merge.flush();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t messages = 0;
  const auto released = merge.released();
  for (const net::OrderedBatch& batch : released) {
    messages += batch.messages.size();
  }
  for (std::uint32_t n = 0; n < args.nodes; ++n) {
    const auto stats = merge.peer(n);
    if (stats.error != dist::MergeError::kNone) {
      std::fprintf(stderr, "merge: shard %u uplink error: %s\n", n,
                   dist::to_string(stats.error));
      return 1;
    }
  }
  const std::uint64_t expected = static_cast<std::uint64_t>(args.messages)
                                 * args.clients;
  if (messages != expected) {
    std::fprintf(stderr,
                 "merge: released %llu messages, expected %llu\n",
                 static_cast<unsigned long long>(messages),
                 static_cast<unsigned long long>(expected));
    return 1;
  }
  const double items_per_second =
      static_cast<double>(messages) / wall_seconds;
  std::printf(
      "merged %zu batches / %llu messages from %u shard uplinks "
      "(%u standby replicas attached) in %.3f s = %.0f msg/s\n",
      released.size(), static_cast<unsigned long long>(messages), args.nodes,
      args.standbys, wall_seconds, items_per_second);

  if (!args.json.empty()) {
    std::FILE* out = std::fopen(args.json.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json.c_str());
      return 1;
    }
    // google-benchmark-shaped entry so bench_multinode.sh can merge it
    // into BENCH_throughput.json and CI can track the family. The
    // standby-attached variant gets its own name so the baseline row's
    // history stays comparable.
    std::string name = "MN_MergeIngest/nodes:" + std::to_string(args.nodes);
    if (args.standbys > 0) {
      name += "/standbys:" + std::to_string(args.standbys);
    }
    name += "/messages:" + std::to_string(expected);
    std::fprintf(
        out,
        "{\n"
        "  \"context\": {\"hardware_threads\": %u, \"nodes\": %u},\n"
        "  \"benchmarks\": [\n"
        "    {\"name\": \"%s\",\n"
        "     \"run_name\": \"%s\","
        " \"run_type\": \"iteration\", \"repetitions\": 1,"
        " \"repetition_index\": 0, \"threads\": 1, \"iterations\": 1,\n"
        "     \"real_time\": %.6f, \"cpu_time\": %.6f,"
        " \"time_unit\": \"ms\", \"items_per_second\": %.1f}\n"
        "  ]\n"
        "}\n",
        std::thread::hardware_concurrency(), args.nodes, name.c_str(),
        name.c_str(), wall_seconds * 1e3, wall_seconds * 1e3,
        items_per_second);
    std::fclose(out);
  }
  merge.stop();
  return 0;
}

// ── router: the thin relay tier as its own process ──────────────────────

volatile std::sig_atomic_t g_stop = 0;

int run_router(const Args& args) {
  if (args.listen.empty() || args.ingest_prefix.empty()) {
    std::fprintf(stderr,
                 "usage: multinode router --listen PATH --nodes N "
                 "--ingest-prefix P [--clients C]\n");
    return 2;
  }
  std::vector<dist::NodeEndpoints> endpoints(args.nodes);
  for (std::uint32_t n = 0; n < args.nodes; ++n) {
    endpoints[n].ingest.unix_path = indexed_path(args.ingest_prefix, n);
  }
  dist::RouterNode router(
      dist::Topology(std::move(endpoints), ids(args.clients)));
  if (!router.listen(net::Endpoint{.unix_path = args.listen, .tcp_port = 0})) {
    std::fprintf(stderr, "router: listen failed on %s\n",
                 args.listen.c_str());
    return 1;
  }
  std::printf("routing %s -> %u shard ingest endpoints\n",
              args.listen.c_str(), args.nodes);
  std::fflush(stdout);
  std::signal(SIGINT, [](int) { g_stop = 1; });
  std::signal(SIGTERM, [](int) { g_stop = 1; });
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  router.stop();
  return 0;
}

// ── demo: the full topology in one process, checked against the oracle ──

int run_demo(const Args& args) {
  std::printf("=== multi-node demo: %u shard nodes + router + merge ===\n\n",
              args.nodes);
  const auto workload =
      make_workload(args.clients, args.messages, args.seed);

  // The oracle: one process, N shards, globally merged drain.
  std::vector<double> oracle;
  {
    auto registry = make_registry(args.clients);
    core::FairOrderingService service(
        registry, ids(args.clients),
        core::ServiceConfig{}
            .with_shards(args.nodes)
            .with_drain_policy(core::DrainPolicy::kGlobalMerge));
    for (std::uint32_t c = 0; c < args.clients; ++c) {
      drive_session(service, c, workload[c]);
    }
    auto sink = [&oracle](core::EmissionRecord&& record,
                          std::uint32_t shard) {
      digest_batch(oracle, shard, record.batch.rank,
                   record.safe_time.seconds(), record.emitted_at.seconds());
      for (const core::Message& m : record.batch.messages) {
        digest_message(oracle, m.id.value(), m.client.value(),
                       m.stamp.seconds(), m.arrival.seconds());
      }
    };
    for (TimePoint t : poll_schedule()) service.poll(t, sink);
    service.flush(TimePoint(3.0), sink);
  }

  // The deployment: shard nodes, router, merge, real sockets.
  const std::string prefix =
      "/tmp/tommy_mn_demo_" + std::to_string(::getpid());
  std::vector<dist::NodeEndpoints> endpoints(args.nodes);
  for (std::uint32_t n = 0; n < args.nodes; ++n) {
    endpoints[n].ingest.unix_path = indexed_path(prefix + "_in", n);
    endpoints[n].uplink.unix_path = indexed_path(prefix + "_up", n);
  }
  dist::Topology topology(endpoints, ids(args.clients));

  std::vector<core::ClientRegistry> registries(args.nodes);
  std::vector<std::unique_ptr<dist::ShardNode>> nodes(args.nodes);
  for (std::uint32_t n = 0; n < args.nodes; ++n) {
    registries[n] = make_registry(args.clients);
    dist::ShardNodeConfig config;
    config.node = n;
    config.frontend = modeled_frontend();
    nodes[n] = std::make_unique<dist::ShardNode>(
        registries[n], topology.partition(n), config);
    if (!nodes[n]->listen_ingest(endpoints[n].ingest)
        || !nodes[n]->listen_uplink(endpoints[n].uplink)) {
      std::fprintf(stderr, "shard %u: listen failed\n", n);
      return 1;
    }
  }
  dist::RouterNode router(topology);
  const std::string router_path = prefix + "_router.sock";
  if (!router.listen(net::Endpoint{.unix_path = router_path, .tcp_port = 0})) {
    return 1;
  }
  dist::MergeNode merge(args.nodes);
  for (std::uint32_t n = 0; n < args.nodes; ++n) {
    if (!merge.connect(n, endpoints[n].uplink)) {
      std::fprintf(stderr, "merge: uplink %u unreachable\n", n);
      return 1;
    }
  }

  // Real clients through the router: announce, handshake, stream, EOF.
  std::vector<std::shared_ptr<net::ByteStream>> held_open(args.clients);
  std::vector<std::thread> clients;
  std::atomic<int> client_failures{0};
  for (std::uint32_t c = 0; c < args.clients; ++c) {
    clients.emplace_back([&, c] {
      auto stream = net::dial(
          net::Endpoint{.unix_path = router_path, .tcp_port = 0},
          net::RetryPolicy{});
      if (stream == nullptr
          || net::perform_handshake(
                 *stream,
                 net::DistributionAnnouncement{ClientId(c), summary_for(c)})
                 != net::HandshakeResult::kAccepted) {
        client_failures.fetch_add(1);
        return;
      }
      std::vector<std::uint8_t> bytes;
      for (const WorkloadEvent& event : workload[c]) {
        std::vector<std::uint8_t> frame;
        if (event.is_heartbeat) {
          frame = net::encode_frame(net::WireMessage(
              net::Heartbeat{ClientId(c), TimePoint(event.stamp)}));
        } else {
          frame = net::encode_frame(net::WireMessage(net::TimestampedMessage{
              ClientId(c), MessageId(event.id), TimePoint(event.stamp)}));
        }
        bytes.insert(bytes.end(), frame.begin(), frame.end());
      }
      if (!stream->write_all(bytes)) {
        client_failures.fetch_add(1);
        return;
      }
      stream->close_write();
      held_open[c] = std::move(stream);
    });
  }
  for (std::thread& t : clients) t.join();
  if (client_failures.load() != 0) {
    std::fprintf(stderr, "client connections failed\n");
    return 1;
  }

  // Barrier: every node ingested its whole partition (the oracle sees
  // all ingest before its first poll; so must the deployment).
  for (std::uint32_t n = 0; n < args.nodes; ++n) {
    std::uint64_t submits = 0;
    std::uint64_t heartbeats = 0;
    for (ClientId c : topology.partition(n)) {
      for (const WorkloadEvent& e : workload[c.value()]) {
        (e.is_heartbeat ? heartbeats : submits)++;
      }
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (true) {
      const auto totals = nodes[n]->server().frontend().totals();
      if (totals.submits_in == submits
          && totals.heartbeats_in == heartbeats) {
        break;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "shard %u: ingest incomplete\n", n);
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Pump the shared schedule; gossip gates each round's release.
  std::uint64_t announces = 0;
  auto schedule = poll_schedule();
  schedule.push_back(TimePoint(3.0));
  for (std::size_t round = 0; round < schedule.size(); ++round) {
    const bool last = round + 1 == schedule.size();
    for (std::uint32_t n = 0; n < args.nodes; ++n) {
      if (last) {
        nodes[n]->pump_flush(schedule[round]);
      } else {
        nodes[n]->pump(schedule[round]);
      }
    }
    ++announces;
    for (std::uint32_t n = 0; n < args.nodes; ++n) {
      if (!merge.wait_for_announces(n, announces, 10000)) {
        std::fprintf(stderr, "shard %u: gossip missing\n", n);
        return 1;
      }
    }
    merge.release();
  }
  merge.flush();

  std::vector<double> distributed;
  for (const net::OrderedBatch& batch : merge.released()) {
    digest_batch(distributed, batch.node, batch.rank,
                 batch.safe_time.seconds(), batch.emitted_at.seconds());
    for (const net::OrderedBatch::Entry& entry : batch.messages) {
      digest_message(distributed, entry.id.value(), entry.client.value(),
                     entry.stamp.seconds(), entry.arrival.seconds());
    }
  }

  const bool identical = distributed == oracle;
  std::printf(
      "%u clients -> router -> %u shard nodes -> merge: released %zu "
      "batches, %s the single-process global-merge oracle\n",
      args.clients, args.nodes, merge.released().size(),
      identical ? "BIT-IDENTICAL to" : "DIVERGED from");

  merge.stop();
  router.stop();
  for (auto& node : nodes) node->stop();
  return identical ? 0 : 1;
}

// ── failover: replicated merge tier, primary killed mid-schedule ────────

int run_failover_demo(const Args& args) {
  std::printf(
      "=== merge failover demo: %u shards -> primary + standby merge, "
      "primary killed mid-run ===\n\n",
      args.nodes);
  const auto workload =
      make_workload(args.clients, args.messages, args.seed);

  // The oracle: one process, N shards, globally merged drain.
  std::vector<double> oracle;
  std::size_t oracle_batches = 0;
  {
    auto registry = make_registry(args.clients);
    core::FairOrderingService service(
        registry, ids(args.clients),
        core::ServiceConfig{}
            .with_shards(args.nodes)
            .with_drain_policy(core::DrainPolicy::kGlobalMerge));
    for (std::uint32_t c = 0; c < args.clients; ++c) {
      drive_session(service, c, workload[c]);
    }
    auto sink = [&](core::EmissionRecord&& record, std::uint32_t shard) {
      ++oracle_batches;
      digest_batch(oracle, shard, record.batch.rank,
                   record.safe_time.seconds(), record.emitted_at.seconds());
      for (const core::Message& m : record.batch.messages) {
        digest_message(oracle, m.id.value(), m.client.value(),
                       m.stamp.seconds(), m.arrival.seconds());
      }
    };
    for (TimePoint t : failover_schedule()) service.poll(t, sink);
    service.flush(TimePoint(3.0), sink);
  }

  // Shard tier, ingest driven in-process (the wire ingest path is the
  // plain demo's subject; here the merge tier is what fails over).
  const std::string prefix =
      "/tmp/tommy_mn_failover_" + std::to_string(::getpid());
  std::vector<dist::NodeEndpoints> endpoints(args.nodes);
  for (std::uint32_t n = 0; n < args.nodes; ++n) {
    endpoints[n].uplink.unix_path = indexed_path(prefix + "_up", n);
  }
  dist::Topology topology(endpoints, ids(args.clients));
  std::vector<core::ClientRegistry> registries(args.nodes);
  std::vector<std::unique_ptr<dist::ShardNode>> nodes(args.nodes);
  for (std::uint32_t n = 0; n < args.nodes; ++n) {
    registries[n] = make_registry(args.clients);
    dist::ShardNodeConfig config;
    config.node = n;
    config.frontend = modeled_frontend();
    nodes[n] = std::make_unique<dist::ShardNode>(
        registries[n], topology.partition(n), config);
    if (!nodes[n]->listen_uplink(endpoints[n].uplink)) {
      std::fprintf(stderr, "shard %u: uplink listen failed\n", n);
      return 1;
    }
    for (ClientId c : topology.partition(n)) {
      drive_session(nodes[n]->service(), c.value(), workload[c.value()]);
    }
  }

  // Primary + hot standby over the same uplinks, each with a downlink.
  const std::string primary_downlink = prefix + "_primary.sock";
  const std::string standby_downlink = prefix + "_standby.sock";
  auto start_merge = [&](const std::string& downlink)
      -> std::unique_ptr<dist::MergeNode> {
    auto merge = std::make_unique<dist::MergeNode>(args.nodes);
    if (!merge->listen_downlink_unix(downlink)) return nullptr;
    for (std::uint32_t n = 0; n < args.nodes; ++n) {
      if (!merge->connect(n, endpoints[n].uplink)) {
        return nullptr;
      }
    }
    return merge;
  };
  auto primary = start_merge(primary_downlink);
  auto standby = start_merge(standby_downlink);
  if (primary == nullptr || standby == nullptr) {
    std::fprintf(stderr, "merge replica startup failed\n");
    return 1;
  }

  dist::MergeSubscriberConfig subscriber_config;
  subscriber_config.endpoints = {
      dist::NodeAddress{primary_downlink, 0},
      dist::NodeAddress{standby_downlink, 0}};
  dist::MergeSubscriber subscriber(subscriber_config);
  subscriber.start();

  // Pump the shared schedule; kill the primary after the first round.
  auto schedule = failover_schedule();
  schedule.push_back(TimePoint(3.0));
  std::uint64_t announces = 0;
  for (std::size_t round = 0; round < schedule.size(); ++round) {
    const bool last = round + 1 == schedule.size();
    for (std::uint32_t n = 0; n < args.nodes; ++n) {
      if (last) {
        nodes[n]->pump_flush(schedule[round]);
      } else {
        nodes[n]->pump(schedule[round]);
      }
    }
    ++announces;
    for (dist::MergeNode* merge :
         {primary.get(), standby.get()}) {
      if (merge == nullptr) continue;
      for (std::uint32_t n = 0; n < args.nodes; ++n) {
        if (!merge->wait_for_announces(n, announces, 10000)) {
          std::fprintf(stderr, "shard %u: gossip missing\n", n);
          return 1;
        }
      }
      merge->release();
    }
    if (round == 0) {
      const auto watermark = primary->watermark();
      std::printf(
          "round %zu: killing the primary at watermark %llu "
          "(safe_time %.6f)\n",
          round, static_cast<unsigned long long>(watermark.released),
          watermark.safe_time.seconds());
      primary.reset();  // downlink dies mid-stream; the subscriber cuts over
    }
  }
  standby->flush();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (subscriber.released_count() < oracle_batches) {
    if (std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<double> spliced;
  for (const net::OrderedBatch& batch : subscriber.released()) {
    digest_batch(spliced, batch.node, batch.rank,
                 batch.safe_time.seconds(), batch.emitted_at.seconds());
    for (const net::OrderedBatch::Entry& entry : batch.messages) {
      digest_message(spliced, entry.id.value(), entry.client.value(),
                     entry.stamp.seconds(), entry.arrival.seconds());
    }
  }
  const auto stats = subscriber.stats();
  const bool identical = spliced == oracle
                         && stats.error == dist::SubscriberError::kNone;
  std::printf(
      "subscriber: %zu batches across %llu cutover(s), %llu replayed "
      "duplicates dropped at the watermark, %s the global-merge oracle\n",
      subscriber.released_count(),
      static_cast<unsigned long long>(stats.cutovers),
      static_cast<unsigned long long>(stats.duplicates),
      identical ? "BIT-IDENTICAL to" : "DIVERGED from");

  subscriber.stop();
  standby->stop();
  for (auto& node : nodes) node->stop();
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const std::string mode = argc > 1 ? argv[1] : "demo";
  if (!parse_args(argc, argv, args)) return 2;
  if (mode == "demo") return run_demo(args);
  if (mode == "failover") return run_failover_demo(args);
  if (mode == "shard") return run_shard(args);
  if (mode == "merge") return run_merge(args);
  if (mode == "router") return run_router(args);
  std::fprintf(stderr,
               "unknown mode '%s' (demo|failover|shard|merge|router)\n",
               mode.c_str());
  return 2;
}
