// Failure injection on the full online pipeline (§3.5's liveness
// trade-off, end to end): a client that stops sending messages AND
// heartbeats mid-run. Without a silence timeout the sequencer must stall
// (strict fairness); with one, it must recover and drain the stream.
#include <gtest/gtest.h>

#include <set>

#include "sim/online_runner.hpp"
#include "sim/population.hpp"
#include "sim/workload.hpp"

namespace tommy::sim {
namespace {

using namespace tommy::literals;

/// Workload where client 0 goes silent after `fail_at`: its later events
/// are dropped (the process crashed).
std::vector<GenEvent> workload_with_failure(const Population& pop,
                                            TimePoint fail_at, Rng& rng) {
  const auto all = poisson_workload(pop.ids(), 600, 100_us, rng);
  std::vector<GenEvent> events;
  for (const GenEvent& e : all) {
    if (e.client == ClientId(0) && e.true_time > fail_at) continue;
    events.push_back(e);
  }
  return events;
}

TEST(FailureInjection, SilentClientStallsStrictSequencer) {
  Rng rng(3);
  const Population pop = gaussian_population(8, 30e-6, rng);
  const auto events = workload_with_failure(pop, TimePoint(0.01), rng);

  // Strict config: no silence timeout. Heartbeats are only generated
  // while a client is alive, which run_online models for messages but
  // not heartbeats — so emulate the crash by a finite horizon and verify
  // the tail stays buffered… the cleanest check: the OnlineSequencer
  // cannot emit anything once client 0's frontier stops advancing.
  //
  // Here we use the runner with heartbeats enabled for all clients; to
  // model the crash at the heartbeat level we set the timeout to infinity
  // and expect full emission (control), then repeat with client 0 truly
  // silent at the sequencer level (unit-style) in the next test.
  OnlineRunConfig config;
  config.sequencer.client_silence_timeout = Duration::infinity();
  config.drain = 100_ms;
  Rng run_rng(4);
  const OnlineRunResult control = run_online(pop, events, config, run_rng);
  EXPECT_EQ(control.unemitted_messages, 0u);  // heartbeats keep it live
}

TEST(FailureInjection, TimeoutRestoresLivenessAndDrainsBacklog) {
  // Crash modeled directly against the sequencer: client 0 never speaks
  // at all, every other client streams messages + heartbeats.
  Rng rng(5);
  const Population pop = gaussian_population(6, 30e-6, rng);

  core::ClientRegistry registry;
  pop.seed_registry(registry);

  core::OnlineConfig strict;
  strict.p_safe = 0.99;
  strict.client_silence_timeout = Duration::infinity();
  core::OnlineSequencer stalled(registry, pop.ids(), strict);

  core::OnlineConfig lenient = strict;
  lenient.client_silence_timeout = 5_ms;
  core::OnlineSequencer recovering(registry, pop.ids(), lenient);
  std::vector<core::OnlineSequencer::Session> stalled_sessions;
  std::vector<core::OnlineSequencer::Session> recovering_sessions;
  for (ClientId c : pop.ids()) {
    stalled_sessions.push_back(stalled.open_session(c));
    recovering_sessions.push_back(recovering.open_session(c));
  }

  std::uint64_t next_id = 0;
  TimePoint now = TimePoint::epoch();
  for (int round = 0; round < 50; ++round) {
    now += 200_us;
    for (std::uint32_t c = 1; c < 6; ++c) {  // client 0 is dead
      const MessageId id(next_id++);
      stalled_sessions[c].submit(now - Duration(20e-6), id, now);
      recovering_sessions[c].submit(now - Duration(20e-6), id, now);
      stalled_sessions[c].heartbeat(now, now);
      recovering_sessions[c].heartbeat(now, now);
    }
  }

  // Strict: nothing can be emitted — client 0's completeness frontier
  // never advances.
  EXPECT_TRUE(stalled.poll(now + 1_s).empty());
  EXPECT_EQ(stalled.pending_count(), next_id);

  // One final far-stamped heartbeat round so the live clients' frontiers
  // clear every T_b, then poll before THEIR timeout but after client 0's
  // (never heard => excluded as soon as a finite timeout is configured).
  now += 1_ms;
  for (std::uint32_t c = 1; c < 6; ++c) {
    recovering_sessions[c].heartbeat(now + 1_s, now);
  }
  const TimePoint poll_at = now + 3_ms;  // < 5 ms silence timeout
  const auto emissions = recovering.poll(poll_at);
  EXPECT_FALSE(emissions.empty());
  std::size_t emitted = 0;
  for (const auto& e : emissions) emitted += e.batch.messages.size();
  EXPECT_EQ(emitted, next_id);
  EXPECT_EQ(recovering.pending_count(), 0u);
  EXPECT_EQ(recovering.timed_out_clients(poll_at).size(), 1u);
}

TEST(FailureInjection, RecoveredClientRejoinsTheGate) {
  Rng rng(7);
  const Population pop = gaussian_population(3, 10e-6, rng);
  core::ClientRegistry registry;
  pop.seed_registry(registry);

  core::OnlineConfig config;
  config.p_safe = 0.99;
  config.client_silence_timeout = 50_ms;
  core::OnlineSequencer seq(registry, pop.ids(), config);

  core::OnlineSequencer::Session c0 = seq.open_session(ClientId(0));
  core::OnlineSequencer::Session c1 = seq.open_session(ClientId(1));
  core::OnlineSequencer::Session c2 = seq.open_session(ClientId(2));

  // Client 2 silent; others speak. After the timeout the gate ignores it.
  c0.submit(TimePoint(1.0), MessageId(1), TimePoint(1.0001));
  c0.heartbeat(TimePoint(1.01), TimePoint(1.01));
  c1.heartbeat(TimePoint(1.01), TimePoint(1.01));
  ASSERT_EQ(seq.poll(TimePoint(1.01)).size(), 1u);
  EXPECT_EQ(seq.timed_out_clients(TimePoint(1.01)).size(), 1u);

  // Client 2 comes back: it immediately re-gates emission.
  c2.heartbeat(TimePoint(1.02), TimePoint(1.02));
  EXPECT_TRUE(seq.timed_out_clients(TimePoint(1.02)).empty());

  c0.submit(TimePoint(1.05), MessageId(2), TimePoint(1.0501));
  // Client 2's high-water (1.02) is far behind the new message's T_b, so
  // emission must wait for its next heartbeat.
  c0.heartbeat(TimePoint(1.06), TimePoint(1.051));
  c1.heartbeat(TimePoint(1.06), TimePoint(1.051));
  EXPECT_TRUE(seq.poll(TimePoint(1.0511)).empty());
  c2.heartbeat(TimePoint(1.06), TimePoint(1.0512));
  EXPECT_EQ(seq.poll(TimePoint(1.0512)).size(), 1u);
}

TEST(FailureInjection, OnlineRunnerEndToEndWithDrop) {
  // Full-stack version: client 0's generation events stop at 10 ms; its
  // heartbeats keep flowing (process alive, application quiet), so the
  // run must still drain completely with zero unemitted messages.
  Rng rng(9);
  const Population pop = gaussian_population(10, 40e-6, rng);
  const auto events = workload_with_failure(pop, TimePoint(0.01), rng);

  OnlineRunConfig config;
  config.sequencer.p_safe = 0.999;
  config.heartbeat_interval = 300_us;
  config.poll_interval = 100_us;
  config.drain = 100_ms;
  Rng run_rng(10);
  const OnlineRunResult result = run_online(pop, events, config, run_rng);
  EXPECT_EQ(result.emitted_messages, events.size());
  EXPECT_EQ(result.unemitted_messages, 0u);
  EXPECT_GT(result.ras.normalized(), 0.5);
}

}  // namespace
}  // namespace tommy::sim
