// Wire front-end demo: Figure 1 as processes would run it. Three "client"
// threads speak the wire protocol over real kernel sockets (socketpairs
// standing in for TCP connections): each announces its clock-offset
// distribution, streams timestamped messages and heartbeats as
// length-prefixed frames, and reads the fair order back as BatchEmission
// frames — while the sequencer side is nothing but a FairOrderingService
// behind a FrameFrontend.
//
// Build & run:  ./build/example_wire_frontend
#include <cstdio>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/frontend.hpp"
#include "stats/summary.hpp"

int main() {
  using namespace tommy;

  // The deployment's client population: per-client clock offset
  // distributions, announced to the registry out of band (in production:
  // a control plane; here: directly). Client 2's clock is mis-set by
  // +2 ms — the whole point of the paper is that its messages still land
  // where they probably belong.
  struct ClientSpec {
    std::uint32_t id;
    double mu;
    double sigma;
  };
  const std::vector<ClientSpec> specs = {
      {0, 0.0, 100e-6}, {1, -500e-6, 200e-6}, {2, 2e-3, 1.5e-3}};

  core::ClientRegistry registry;
  std::vector<ClientId> expected;
  for (const ClientSpec& spec : specs) {
    registry.announce(ClientId(spec.id),
                      stats::DistributionSummary(
                          stats::GaussianParams{spec.mu, spec.sigma}));
    expected.push_back(ClientId(spec.id));
  }

  core::ServiceConfig service_config;
  service_config.with_p_safe(0.99);
  core::FairOrderingService service(registry, expected, service_config);

  // The demo models the network as a fixed 0.5 ms delivery delay, so the
  // arrival clock is a pure function of each message — a replayable run.
  // Production would leave arrival_clock unset: net::system_clock_now(),
  // epoch seconds, the clock wire clients stamp in.
  constexpr Duration kDelay = Duration(0.5e-3);
  net::FrontendConfig frontend_config;
  frontend_config.arrival_clock = [kDelay](const net::WireMessage& m) {
    if (const auto* msg = std::get_if<net::TimestampedMessage>(&m)) {
      return msg->local_stamp + kDelay;
    }
    return std::get<net::Heartbeat>(m).local_stamp + kDelay;
  };
  net::FrameFrontend frontend(registry, service, frontend_config);

  // One socketpair per client: the frontend adopts the server end, a
  // client thread drives the peer end exactly like a remote process.
  constexpr int kMessagesPerClient = 6;
  std::vector<std::shared_ptr<net::ByteStream>> peers;
  for (const ClientSpec& spec : specs) {
    auto [server_end, client_end] = net::make_socketpair_streams();
    frontend.add_connection(server_end);
    peers.push_back(client_end);
    (void)spec;
  }

  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    clients.emplace_back([&specs, &peers, i] {
      const ClientSpec& spec = specs[i];
      net::ByteStream& wire = *peers[i];
      Rng rng(1000 + spec.id);

      // Handshake: announce (or re-announce) the learned distribution.
      bool ok = wire.write_all(net::encode_frame(
          net::WireMessage(net::DistributionAnnouncement{
              ClientId(spec.id), stats::DistributionSummary(stats::GaussianParams{
                                     spec.mu, spec.sigma})})));

      // Stream: local-clock-stamped messages plus heartbeats.
      double stamp = 1.0;
      for (int k = 0; ok && k < kMessagesPerClient; ++k) {
        stamp += rng.uniform(1e-3, 4e-3);
        ok = wire.write_all(net::encode_frame(
            net::WireMessage(net::TimestampedMessage{
                ClientId(spec.id),
                MessageId(100 * spec.id + static_cast<std::uint64_t>(k)),
                TimePoint(stamp)})));
      }
      // Final heartbeat: "everything I will ever stamp below this has
      // been sent" — lets the completeness gate release the tail.
      if (ok) {
        ok = wire.write_all(net::encode_frame(net::WireMessage(
            net::Heartbeat{ClientId(spec.id), TimePoint(stamp + 0.05)})));
      }
      wire.close_write();
      if (!ok) std::fprintf(stderr, "client %u: write failed\n", spec.id);
    });
  }
  for (std::thread& client : clients) client.join();
  frontend.join_readers();

  // Sequencer side: one poll far past the horizon drains everything; the
  // emissions are broadcast back over every socket as frames.
  const std::size_t emitted = frontend.pump(TimePoint(2.0));
  std::printf("sequencer emitted %zu batches; clients read them back:\n\n",
              emitted);

  // Client 0 decodes the broadcast exactly like a remote consumer would.
  net::FrameDecoder decoder;
  std::vector<net::BatchEmission> batches;
  std::uint8_t buf[512];
  while (batches.size() < emitted) {
    const auto n = peers[0]->read_some(std::span<std::uint8_t>(buf, sizeof(buf)));
    if (!n || *n == 0) break;
    decoder.append(std::span<const std::uint8_t>(buf, *n));
    while (auto payload = decoder.next()) {
      if (auto message = net::decode(*payload)) {
        batches.push_back(std::get<net::BatchEmission>(*message));
      }
    }
  }
  for (const net::BatchEmission& batch : batches) {
    std::printf("  rank %llu:", static_cast<unsigned long long>(batch.rank));
    for (MessageId id : batch.messages) {
      std::printf(" msg %llu (client %llu)",
                  static_cast<unsigned long long>(id.value()),
                  static_cast<unsigned long long>(id.value() / 100));
    }
    std::printf("\n");
  }

  std::printf(
      "\n%zu messages total; client 2's +2 ms mean offset was corrected "
      "before ranking.\n",
      static_cast<std::size_t>(specs.size()) * kMessagesPerClient);
  return 0;
}
