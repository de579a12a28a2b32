// Appendix C worked example: online sequencing where one high-uncertainty
// message (client C2) forces two temporally-distinct messages from a
// well-synchronized client (C1's 1a, 1b) into the same batch, and the
// batch is only emitted after its safe-emission time T_b with completeness
// confirmed by heartbeats.
#include <gtest/gtest.h>

#include "core/online_sequencer.hpp"
#include "stats/gaussian.hpp"

namespace tommy::core {
namespace {

constexpr double kSigmaTight = 0.05;  // C1's clock
constexpr double kSigmaWide = 1.0;    // C2's clock (high uncertainty)

class AppendixC : public ::testing::Test {
 protected:
  AppendixC() {
    registry_.announce(ClientId(1),
                       std::make_unique<stats::Gaussian>(0.0, kSigmaTight));
    registry_.announce(ClientId(2),
                       std::make_unique<stats::Gaussian>(0.0, kSigmaWide));
    config_.threshold = 0.75;
    config_.p_safe = 0.999;
  }

  static Message msg_1a() {
    // True time 100.0, θ drew 0 -> stamp 100.0; arrives first.
    return Message{MessageId(10), ClientId(1), TimePoint(100.0),
                   TimePoint(100.10)};
  }
  static Message msg_2() {
    // True time 100.2 but θ drew −0.4 -> stamp 100.6 (the paper's t2).
    return Message{MessageId(20), ClientId(2), TimePoint(100.6),
                   TimePoint(100.70)};
  }
  static Message msg_1b() {
    // True time 100.3, stamp 100.3; arrives last.
    return Message{MessageId(11), ClientId(1), TimePoint(100.3),
                   TimePoint(100.80)};
  }

  /// Ingests `m` through a session for its client.
  static void submit(OnlineSequencer& seq, const Message& m) {
    seq.open_session(m.client).submit(m.stamp, m.id, m.arrival);
  }

  ClientRegistry registry_;
  OnlineConfig config_;
};

TEST_F(AppendixC, AllThreeMessagesShareOneBatch) {
  OnlineSequencer seq(registry_, {ClientId(1), ClientId(2)}, config_);

  // Step 1-3 of the appendix: messages arrive in the order 1a, 2, 1b.
  submit(seq, msg_1a());
  submit(seq, msg_2());
  submit(seq, msg_1b());
  EXPECT_EQ(seq.pending_count(), 3u);

  // The head batch must span all three: C2's uncertainty blocks every cut.
  // T_b is dominated by message 2: 100.6 + Q_{N(0,1)}(0.999) ≈ 103.69.
  const TimePoint t_b = seq.next_safe_time();
  EXPECT_NEAR(t_b.seconds(), 100.6 + 3.0902, 1e-3);

  // Step 4: before T_b nothing may be emitted even with completeness.
  seq.open_session(ClientId(1)).heartbeat(TimePoint(108.0), TimePoint(101.0));
  seq.open_session(ClientId(2)).heartbeat(TimePoint(108.0), TimePoint(101.0));
  EXPECT_TRUE(seq.poll(TimePoint(101.0)).empty());
  EXPECT_TRUE(seq.poll(TimePoint(103.5)).empty());

  // Past T_b with fresh-enough heartbeats: the batch emits, whole.
  const auto emissions = seq.poll(TimePoint(103.75));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].batch.rank, 0u);
  ASSERT_EQ(emissions[0].batch.messages.size(), 3u);
  EXPECT_EQ(seq.pending_count(), 0u);
  EXPECT_NEAR(emissions[0].safe_time.seconds(), t_b.seconds(), 1e-9);
}

TEST_F(AppendixC, WithoutC2TheC1MessagesSeparateCleanly) {
  // Control: drop the high-uncertainty message; 1a and 1b are confidently
  // ordered (gap 0.3 ≫ σ√2 ≈ 0.07) and land in two batches.
  OnlineSequencer seq(registry_, {ClientId(1), ClientId(2)}, config_);
  submit(seq, msg_1a());
  submit(seq, msg_1b());

  seq.open_session(ClientId(1)).heartbeat(TimePoint(108.0), TimePoint(101.0));
  seq.open_session(ClientId(2)).heartbeat(TimePoint(108.0), TimePoint(101.0));
  const auto emissions = seq.poll(TimePoint(105.0));
  ASSERT_EQ(emissions.size(), 2u);
  EXPECT_EQ(emissions[0].batch.messages.size(), 1u);
  EXPECT_EQ(emissions[0].batch.messages[0].id, MessageId(10));
  EXPECT_EQ(emissions[1].batch.messages.size(), 1u);
  EXPECT_EQ(emissions[1].batch.messages[0].id, MessageId(11));
}

TEST_F(AppendixC, CompletenessBlocksUntilBothClientsPassTb) {
  OnlineSequencer seq(registry_, {ClientId(1), ClientId(2)}, config_);
  submit(seq, msg_1a());
  submit(seq, msg_2());
  submit(seq, msg_1b());

  // Heartbeats whose stamps do NOT clear T_b ≈ 103.69 for C2: its
  // completeness frontier is stamp − 3.09, so stamp 105 gives 101.9 < T_b.
  seq.open_session(ClientId(1)).heartbeat(TimePoint(105.0), TimePoint(104.0));
  seq.open_session(ClientId(2)).heartbeat(TimePoint(105.0), TimePoint(104.0));
  EXPECT_TRUE(seq.poll(TimePoint(104.0)).empty());

  // A later C2 heartbeat clears the gate (107 − 3.09 = 103.91 > T_b).
  seq.open_session(ClientId(2)).heartbeat(TimePoint(107.0), TimePoint(104.5));
  const auto emissions = seq.poll(TimePoint(104.5));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].batch.messages.size(), 3u);
}

TEST_F(AppendixC, TbExtendsWhenAMergingMessageArrives) {
  OnlineSequencer seq(registry_, {ClientId(1), ClientId(2)}, config_);
  submit(seq, msg_1a());
  const TimePoint tb_before = seq.next_safe_time();
  // 1a alone: T_b = 100.0 + 0.05·3.09 ≈ 100.15.
  EXPECT_NEAR(tb_before.seconds(), 100.0 + kSigmaTight * 3.0902, 1e-3);

  // Message 2 merges into the open batch and drags T_b out by seconds.
  submit(seq, msg_2());
  const TimePoint tb_after = seq.next_safe_time();
  EXPECT_GT(tb_after, tb_before + Duration(3.0));
}

}  // namespace
}  // namespace tommy::core
