// Wire-trace record & replay against a real listening server — the
// deployment-shaped workflow on top of the frame protocol:
//
//   ./build/example_wire_replay                       # self-contained demo
//   ./build/example_wire_replay record t.trace --clients 3 --messages 12
//   ./build/example_wire_replay serve --unix /tmp/s.sock --clients 3
//        --expect-submits 36 [--shards 2] [--json out.json]
//        [--pollers M]
//   ./build/example_wire_replay replay t.trace --unix /tmp/s.sock --speed 2
//   ./build/example_wire_replay blast --unix /tmp/s.sock --client 0
//        --messages 10000 [--connections N]
//
// The demo records a randomized multi-client workload (reconnecting
// segments included) to a trace file, replays it through a live
// Unix-domain FrameServer, and checks the served emission stream against
// a direct in-process drive of the same workload — the replay round-trip
// equivalence, at example scale. `serve` + `blast` are the two halves of
// scripts/bench_multiproc.sh (N client processes vs one server).
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/acceptor.hpp"
#include "sim/wire_replay.hpp"
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

/// Deterministic arrival clock (stamp + fixed delay): what makes a
/// replayed run bit-identical to the recorded one at any speed.
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
          false, 1000ULL * c + static_cast<std::uint64_t>(k), stamp});
      if (k % 5 == 4) {
        events[c].push_back(WorkloadEvent{true, 0, stamp + 0.1e-3});
      }
    }
    events[c].push_back(WorkloadEvent{true, 0, stamp + 50e-3});
  }
  return events;
}

std::vector<std::uint8_t> event_frame(std::uint32_t client,
                                      const WorkloadEvent& event) {
  if (event.is_heartbeat) {
    return net::encode_frame(net::WireMessage(
        net::Heartbeat{ClientId(client), TimePoint(event.stamp)}));
  }
  return net::encode_frame(net::WireMessage(net::TimestampedMessage{
      ClientId(client), MessageId(event.id), TimePoint(event.stamp)}));
}

sim::WireTrace record_trace(
    const std::vector<std::vector<WorkloadEvent>>& workload, int segments) {
  sim::WireTraceRecorder recorder;
  for (std::uint32_t c = 0; c < workload.size(); ++c) {
    const auto& events = workload[c];
    const std::size_t per_segment =
        (events.size() + static_cast<std::size_t>(segments) - 1)
        / static_cast<std::size_t>(segments);
    std::size_t next = 0;
    for (int s = 0; s < segments && next < events.size(); ++s) {
      recorder.connect(c, events[next].stamp - 1e-6);
      recorder.send(
          c, events[next].stamp - 1e-6,
          net::encode_frame(net::WireMessage(net::DistributionAnnouncement{
              ClientId(c), summary_for(c)})));
      const std::size_t end = std::min(events.size(), next + per_segment);
      for (; next < end; ++next) {
        recorder.send(c, events[next].stamp, event_frame(c, events[next]));
      }
      recorder.disconnect(c, events[next - 1].stamp + 1e-6);
    }
  }
  return recorder.take();
}

/// Ordered digest of a service's full drain (flush far in the future).
std::vector<std::uint64_t> drain_digest(core::FairOrderingService& service) {
  std::vector<std::uint64_t> digest;
  service.flush(TimePoint(1e9),
                [&digest](core::EmissionRecord&& record, std::uint32_t shard) {
                  digest.push_back(record.batch.rank);
                  digest.push_back(shard);
                  for (const core::Message& m : record.batch.messages) {
                    digest.push_back(m.id.value());
                  }
                });
  return digest;
}

// ── flag helpers ────────────────────────────────────────────────────────

struct Args {
  std::vector<std::string> positional;
  std::string unix_path;
  int tcp_port{0};
  bool tcp_set{false};
  std::uint32_t clients{3};
  int messages{12};
  int segments{2};
  std::uint64_t seed{42};
  double speed{0.0};
  std::uint64_t expect_submits{0};
  std::uint32_t client{0};
  std::uint32_t shards{1};
  std::string json;
  /// serve: poller threads of the front-end's event loop.
  std::uint32_t pollers{2};
  /// blast: sockets driven round-robin by ONE process (--client is the
  /// base id; connection i announces client base+i). Multiplying
  /// connections per process is what makes C=1000 benchable without a
  /// thousand forks.
  std::uint32_t connections{1};
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (flag[0] != '-') {
      args.positional.push_back(flag);
    } else {
      const char* value = next();
      if (value == nullptr) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        return false;
      }
      if (flag == "--unix") args.unix_path = value;
      else if (flag == "--tcp") {
        args.tcp_port = std::atoi(value);
        args.tcp_set = true;
      }
      else if (flag == "--clients") args.clients = static_cast<std::uint32_t>(std::atoi(value));
      else if (flag == "--messages") args.messages = std::atoi(value);
      else if (flag == "--segments") args.segments = std::atoi(value);
      else if (flag == "--seed") args.seed = static_cast<std::uint64_t>(std::atoll(value));
      else if (flag == "--speed") args.speed = std::atof(value);
      else if (flag == "--expect-submits") args.expect_submits = static_cast<std::uint64_t>(std::atoll(value));
      else if (flag == "--client") args.client = static_cast<std::uint32_t>(std::atoi(value));
      else if (flag == "--shards") args.shards = static_cast<std::uint32_t>(std::atoi(value));
      else if (flag == "--json") args.json = value;
      else if (flag == "--pollers") args.pollers = static_cast<std::uint32_t>(std::atoi(value));
      else if (flag == "--connections") args.connections = static_cast<std::uint32_t>(std::atoi(value));
      else {
        std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
        return false;
      }
    }
  }
  return true;
}

int run_record(const Args& args, const std::string& path) {
  const auto workload =
      make_workload(args.clients, args.messages, args.seed);
  const auto trace = record_trace(workload, args.segments);
  if (!trace.save(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("recorded %zu events (%llu bytes over %u connections) to %s\n",
              trace.events.size(),
              static_cast<unsigned long long>(trace.total_bytes()),
              trace.connection_count(), path.c_str());
  return 0;
}

int run_replay(const Args& args, const std::string& path) {
  const auto trace = sim::WireTrace::load(path);
  if (!trace) {
    std::fprintf(stderr, "cannot load %s\n", path.c_str());
    return 1;
  }
  sim::ReplayTarget target;
  target.unix_path = args.unix_path;
  target.tcp_port = static_cast<std::uint16_t>(args.tcp_port);
  sim::ReplayOptions options;
  options.speed = args.speed;
  const auto stats = sim::replay(*trace, target, options);
  if (!stats) {
    std::fprintf(stderr, "replay failed (server down mid-run?)\n");
    return 1;
  }
  std::printf(
      "replayed %llu frames / %llu bytes over %llu connections in %.3f s\n",
      static_cast<unsigned long long>(stats->frames),
      static_cast<unsigned long long>(stats->bytes),
      static_cast<unsigned long long>(stats->connections),
      stats->wall_seconds);
  return 0;
}

int run_serve(const Args& args) {
  auto registry = make_registry(args.clients);
  core::ServiceConfig config;
  config.with_p_safe(0.99).with_shards(args.shards);
  core::FairOrderingService service(registry, ids(args.clients), config);
  // Real wall-clock arrivals: serve mode is the load-bench half, not the
  // equivalence half (replay against a modeled clock is the demo's job).
  net::ServerConfig server_config;
  server_config.frontend.poller_threads = args.pollers;
  net::FrameServer server(registry, service, server_config);
  // A Unix path, when given, takes precedence over the TCP port.
  const net::Endpoint endpoint{
      .unix_path = args.unix_path,
      .tcp_port = static_cast<std::uint16_t>(args.tcp_port)};
  if (!server.listen(endpoint)) {
    std::fprintf(stderr, "listen failed\n");
    return 1;
  }
  if (args.unix_path.empty()) {
    std::printf("listening on 127.0.0.1:%u\n", server.port());
  } else {
    std::printf("listening on %s\n", args.unix_path.c_str());
  }
  std::fflush(stdout);

  // Serve until the expected submit volume arrived (then flush), timing
  // from the first accepted connection.
  if (!server.wait_for_accepted(1, 60 * 1000)) {
    std::fprintf(stderr, "no client connected within 60 s\n");
    return 1;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::seconds(120);
  std::uint64_t submits = 0;
  while ((submits = server.frontend().totals().submits_in)
         < args.expect_submits) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr,
                   "timed out at %llu/%llu submits (client died?)\n",
                   static_cast<unsigned long long>(submits),
                   static_cast<unsigned long long>(args.expect_submits));
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double ingest_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  server.frontend().join_readers();
  std::size_t batches = 0;
  std::uint64_t messages = 0;
  service.flush(TimePoint(1e9), [&](core::EmissionRecord&& record,
                                    std::uint32_t) {
    batches++;
    messages += record.batch.messages.size();
  });
  const auto totals = server.frontend().totals();
  const double items_per_second =
      static_cast<double>(submits) / ingest_seconds;
  std::printf(
      "ingested %llu submits (%llu bytes, %llu connections) in %.3f s "
      "= %.0f msg/s; flushed %zu batches / %llu messages\n",
      static_cast<unsigned long long>(submits),
      static_cast<unsigned long long>(totals.bytes_in),
      static_cast<unsigned long long>(totals.accepted), ingest_seconds,
      items_per_second, batches, static_cast<unsigned long long>(messages));
  if (!args.json.empty()) {
    std::FILE* out = std::fopen(args.json.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json.c_str());
      return 1;
    }
    // google-benchmark-shaped entry so bench_multiproc.sh can merge it
    // into BENCH_throughput.json and CI can track the family. The script
    // names each row's family when it merges (one process per client vs
    // one process holding every connection).
    const char* family = "MP_ServerIngest";
    std::fprintf(
        out,
        "{\n"
        "  \"context\": {\"hardware_threads\": %u,"
        " \"shards\": %u, \"pollers\": %u},\n"
        "  \"benchmarks\": [\n"
        "    {\"name\": \"%s/clients:%u/messages:%llu\",\n"
        "     \"run_name\": \"%s/clients:%u/messages:%llu\","
        " \"run_type\": \"iteration\", \"repetitions\": 1,"
        " \"repetition_index\": 0, \"threads\": 1, \"iterations\": 1,\n"
        "     \"real_time\": %.6f, \"cpu_time\": %.6f,"
        " \"time_unit\": \"ms\", \"items_per_second\": %.1f,"
        " \"bytes_per_second\": %.1f}\n"
        "  ]\n"
        "}\n",
        std::thread::hardware_concurrency(), args.shards, args.pollers,
        family, args.clients,
        static_cast<unsigned long long>(args.expect_submits), family,
        args.clients, static_cast<unsigned long long>(args.expect_submits),
        ingest_seconds * 1e3, ingest_seconds * 1e3, items_per_second,
        static_cast<double>(totals.bytes_in) / ingest_seconds);
    std::fclose(out);
  }
  server.stop();
  return 0;
}

int run_blast(const Args& args) {
  // One process, N sockets, driven round-robin (N = --connections;
  // connection i announces client --client + i). The per-connection
  // protocol is unchanged — N=1 is the historical single-client blast —
  // but one driver can now model C=1000 concurrent clients without a
  // thousand processes.
  const std::uint32_t n = std::max<std::uint32_t>(1, args.connections);
  net::Endpoint endpoint;
  endpoint.unix_path = args.unix_path;
  endpoint.tcp_port = static_cast<std::uint16_t>(args.tcp_port);
  // The server may still be binding: retry with a generous budget under
  // the shared backoff policy (flat 2 ms, same schedule every client
  // driver uses).
  net::RetryPolicy retry;
  retry.attempts = 2500;

  std::vector<std::shared_ptr<net::ByteStream>> wires(n);
  std::vector<std::vector<std::uint8_t>> buffers(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t client = args.client + i;
    wires[i] = net::dial(endpoint, retry);
    if (wires[i] == nullptr) {
      std::fprintf(stderr, "client %u: cannot connect\n", client);
      return 1;
    }
    if (!wires[i]->write_all(
            net::encode_frame(net::WireMessage(net::DistributionAnnouncement{
                ClientId(client), summary_for(client)})))) {
      std::fprintf(stderr, "client %u: handshake failed\n", client);
      return 1;
    }
  }

  // Frames are batched into chunky writes: a blast client measures the
  // server, not per-write syscall overhead. Round-robin across the
  // sockets so the server sees all connections concurrently hot.
  bool ok = true;
  double stamp = 1.0;
  for (int k = 0; ok && k < args.messages; ++k) {
    stamp += 1e-6;
    for (std::uint32_t i = 0; ok && i < n; ++i) {
      const std::uint32_t client = args.client + i;
      const auto frame = event_frame(
          client,
          WorkloadEvent{false,
                        1000000ULL * client + static_cast<std::uint64_t>(k),
                        stamp});
      buffers[i].insert(buffers[i].end(), frame.begin(), frame.end());
      if (buffers[i].size() >= 32 * 1024 || k + 1 == args.messages) {
        ok = wires[i]->write_all(buffers[i]);
        buffers[i].clear();
      }
    }
  }
  for (std::uint32_t i = 0; ok && i < n; ++i) {
    ok = wires[i]->write_all(net::encode_frame(net::WireMessage(
        net::Heartbeat{ClientId(args.client + i), TimePoint(stamp + 1.0)})));
    wires[i]->close_write();
  }
  if (!ok) {
    std::fprintf(stderr, "blast (base client %u, %u connections): write "
                 "failed\n",
                 args.client, n);
    return 1;
  }
  return 0;
}

int run_demo(const Args& args) {
  std::printf("=== wire replay demo: record -> serve -> replay ===\n\n");
  const std::string trace_path =
      "/tmp/tommy_replay_demo_" + std::to_string(::getpid()) + ".trace";
  const std::string socket_path =
      "/tmp/tommy_replay_demo_" + std::to_string(::getpid()) + ".sock";

  // 1. Record: 3 clients, reconnecting once mid-stream.
  const auto workload = make_workload(args.clients, args.messages, args.seed);
  const auto trace = record_trace(workload, args.segments);
  if (!trace.save(trace_path)) return 1;
  std::printf("recorded %zu events (%u logical connections, %d segments "
              "each) to %s\n",
              trace.events.size(), trace.connection_count(), args.segments,
              trace_path.c_str());

  // 2. The reference: the same workload driven straight into sessions.
  core::ServiceConfig config;
  config.with_p_safe(0.99);
  std::vector<std::uint64_t> direct_digest;
  {
    auto registry = make_registry(args.clients);
    core::FairOrderingService service(registry, ids(args.clients), config);
    for (std::uint32_t c = 0; c < args.clients; ++c) {
      auto session = service.open_session(ClientId(c));
      // The relaxed batch path: per-client sequences interleave across
      // sessions by construction (exactly like per-connection readers).
      std::vector<core::Submission> batch;
      for (const WorkloadEvent& event : workload[c]) {
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
    direct_digest = drain_digest(service);
  }

  // 3. Serve + replay (twice: wire speed, then paced 100x trace time).
  for (const double speed : {0.0, 100.0}) {
    auto registry = make_registry(args.clients);
    core::FairOrderingService service(registry, ids(args.clients), config);
    net::ServerConfig server_config;
    server_config.frontend = modeled_frontend();
    net::FrameServer server(registry, service, server_config);
    if (!server.listen(
            net::Endpoint{.unix_path = socket_path, .tcp_port = 0})) {
      return 1;
    }

    sim::ReplayOptions options;
    options.speed = speed;
    const auto loaded = sim::WireTrace::load(trace_path);
    if (!loaded) return 1;
    const auto stats =
        sim::replay(*loaded, sim::ReplayTarget{socket_path, 0}, options);
    if (!stats) return 1;
    if (!server.wait_for_accepted(stats->connections, 10000)) return 1;
    server.frontend().join_readers();
    const auto replay_digest = drain_digest(service);
    std::printf(
        "replay at speed %5.1f: %llu frames in %.3f s over %llu "
        "connections -> emissions %s the direct drive\n",
        speed, static_cast<unsigned long long>(stats->frames),
        stats->wall_seconds,
        static_cast<unsigned long long>(stats->connections),
        replay_digest == direct_digest ? "BIT-IDENTICAL to"
                                       : "DIVERGED from");
    server.stop();
    if (replay_digest != direct_digest) return 1;
  }
  std::remove(trace_path.c_str());
  std::printf(
      "\nthe same trace file can drive scripts/bench_multiproc.sh-style "
      "load: serve + N blast processes.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const std::string mode = argc > 1 ? argv[1] : "demo";
  if (!parse_args(argc, argv, args)) return 2;

  if (mode == "demo") return run_demo(args);
  if (mode == "record") {
    if (args.positional.empty()) {
      std::fprintf(stderr, "usage: %s record <trace-file> [flags]\n",
                   argv[0]);
      return 2;
    }
    return run_record(args, args.positional[0]);
  }
  if (mode == "replay") {
    if (args.positional.empty()
        || (args.unix_path.empty() && args.tcp_port == 0)) {
      std::fprintf(stderr,
                   "usage: %s replay <trace-file> (--unix P|--tcp PORT) "
                   "[--speed S]\n",
                   argv[0]);
      return 2;
    }
    return run_replay(args, args.positional[0]);
  }
  if (mode == "serve") {
    // --tcp 0 is valid here (ephemeral port, printed after bind).
    if (args.unix_path.empty() && !args.tcp_set) {
      std::fprintf(stderr, "usage: %s serve (--unix P|--tcp PORT) [flags]\n",
                   argv[0]);
      return 2;
    }
    return run_serve(args);
  }
  if (mode == "blast") {
    if (args.unix_path.empty() && args.tcp_port == 0) {
      std::fprintf(stderr,
                   "usage: %s blast (--unix P|--tcp PORT) --client I "
                   "--messages M\n",
                   argv[0]);
      return 2;
    }
    return run_blast(args);
  }
  std::fprintf(stderr,
               "unknown mode '%s' (demo|record|replay|serve|blast)\n",
               mode.c_str());
  return 2;
}
