// The fault injector must be trustworthy before the soak tests lean on
// it: every plan is proven to deliver exactly the bytes it promises —
// short reads honour the chunk schedule, write splitting never changes
// content, cuts land at the exact byte offset in both directions (every
// split point of a 3-frame stream), and injected retries are
// content-neutral.
#include "net/faulty_stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "net/framing.hpp"

namespace tommy::net {
namespace {

std::vector<std::uint8_t> bytes_iota(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i);
  return out;
}

/// Reads until EOF/error through `stream`, recording each read's size.
std::pair<std::vector<std::uint8_t>, std::vector<std::size_t>> drain(
    ByteStream& stream, std::size_t request = 4096) {
  std::vector<std::uint8_t> got;
  std::vector<std::size_t> sizes;
  std::vector<std::uint8_t> buf(request);
  while (true) {
    const auto n = stream.read_some(buf);
    if (!n || *n == 0) break;
    sizes.push_back(*n);
    got.insert(got.end(), buf.begin(), buf.begin() + static_cast<long>(*n));
  }
  return {got, sizes};
}

/// Three distinct frames and their concatenated wire image.
struct ThreeFrames {
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::uint8_t> wire;
  /// Byte offset where frame k ends (exclusive) on the wire.
  std::vector<std::size_t> ends;
};

ThreeFrames three_frames() {
  ThreeFrames f;
  f.payloads = {{0xAA}, {1, 2, 3, 4, 5, 6, 7}, {0x10, 0x20, 0x30}};
  for (const auto& payload : f.payloads) {
    const auto frame =
        encode_frame(std::span<const std::uint8_t>(payload));
    f.wire.insert(f.wire.end(), frame.begin(), frame.end());
    f.ends.push_back(f.wire.size());
  }
  return f;
}

TEST(FaultyByteStream, DefaultPlanIsTransparent) {
  auto [a, b] = make_socketpair_streams();
  FaultyByteStream faulty(b, FaultPlan{});
  const auto payload = bytes_iota(100);
  ASSERT_TRUE(a->write_all(payload));
  a->close_write();
  const auto [got, sizes] = drain(faulty);
  EXPECT_EQ(got, payload);
  EXPECT_FALSE(faulty.stats().read_cut);
}

TEST(FaultyByteStream, ReadChunkScheduleIsHonouredExactly) {
  auto [a, b] = make_socketpair_streams();
  FaultPlan plan;
  plan.read_chunks = {1, 2, 3};
  plan.read_chunks_cycle = true;
  FaultyByteStream faulty(b, plan);
  const auto payload = bytes_iota(12);
  ASSERT_TRUE(a->write_all(payload));
  a->close_write();
  const auto [got, sizes] = drain(faulty);
  EXPECT_EQ(got, payload);
  // The socket has all 12 bytes buffered, so each read returns its full
  // cap: 1,2,3 cycling.
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 2, 3, 1, 2, 3}));
}

TEST(FaultyByteStream, ExhaustedNonCyclingScheduleUncaps) {
  auto [a, b] = make_socketpair_streams();
  FaultPlan plan;
  plan.read_chunks = {2};
  FaultyByteStream faulty(b, plan);
  const auto payload = bytes_iota(10);
  ASSERT_TRUE(a->write_all(payload));
  a->close_write();
  const auto [got, sizes] = drain(faulty);
  EXPECT_EQ(got, payload);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[1], 8u);
}

TEST(FaultyByteStream, ZeroChunkIsTreatedAsOne) {
  auto [a, b] = make_socketpair_streams();
  FaultPlan plan;
  plan.read_chunks = {0};
  plan.read_chunks_cycle = true;
  FaultyByteStream faulty(b, plan);
  ASSERT_TRUE(a->write_all(bytes_iota(3)));
  a->close_write();
  const auto [got, sizes] = drain(faulty);
  EXPECT_EQ(got, bytes_iota(3));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 1, 1}));
}

TEST(FaultyByteStream, EverySplitPointOnAThreeFrameStreamDecodes) {
  const ThreeFrames f = three_frames();
  for (std::size_t split = 0; split <= f.wire.size(); ++split) {
    auto [a, b] = make_socketpair_streams();
    FaultPlan plan;
    if (split > 0) plan.read_chunks = {split};  // then uncapped
    FaultyByteStream faulty(b, plan);
    ASSERT_TRUE(a->write_all(f.wire));
    a->close_write();

    FrameDecoder decoder;
    std::vector<std::vector<std::uint8_t>> decoded;
    std::vector<std::uint8_t> buf(f.wire.size());
    while (true) {
      const auto n = faulty.read_some(buf);
      ASSERT_TRUE(n.has_value());
      if (*n == 0) break;
      decoder.append(std::span<const std::uint8_t>(buf.data(), *n));
      while (auto payload = decoder.next()) decoded.push_back(*payload);
    }
    ASSERT_EQ(decoded.size(), 3u) << "split " << split;
    EXPECT_EQ(decoded, f.payloads) << "split " << split;
  }
}

TEST(FaultyByteStream, WriteSplitAtEverySplitPointIsContentNeutral) {
  const ThreeFrames f = three_frames();
  for (std::size_t split = 1; split <= f.wire.size(); ++split) {
    auto [a, b] = make_socketpair_streams();
    FaultPlan plan;
    plan.write_chunks = {split};  // first inner write `split` bytes, rest
    FaultyByteStream faulty(a, plan);
    ASSERT_TRUE(faulty.write_all(f.wire));
    faulty.close_write();
    const auto [got, sizes] = drain(*b);
    EXPECT_EQ(got, f.wire) << "split " << split;
    const auto stats = faulty.stats();
    EXPECT_EQ(stats.bytes_written, f.wire.size());
    EXPECT_EQ(stats.inner_writes, split < f.wire.size() ? 2u : 1u);
  }
}

TEST(FaultyByteStream, ReadCutAtEveryOffsetDeliversExactlyThePrefix) {
  const ThreeFrames f = three_frames();
  for (std::size_t cut = 0; cut <= f.wire.size(); ++cut) {
    auto [a, b] = make_socketpair_streams();
    FaultPlan plan;
    plan.cut_read_after = cut;
    plan.shutdown_inner_on_cut = false;  // socket teardown not under test
    FaultyByteStream faulty(b, plan);
    ASSERT_TRUE(a->write_all(f.wire));
    a->close_write();

    std::vector<std::uint8_t> got;
    std::vector<std::uint8_t> buf(f.wire.size());
    while (true) {
      const auto n = faulty.read_some(buf);
      if (!n) break;  // the cut error
      if (*n == 0) break;
      got.insert(got.end(), buf.begin(),
                 buf.begin() + static_cast<long>(*n));
    }
    EXPECT_EQ(got.size(), cut) << "cut " << cut;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), f.wire.begin()));
    // The number of COMPLETE frames in the prefix is what a server
    // applies from a torn stream.
    std::size_t complete = 0;
    while (complete < f.ends.size() && f.ends[complete] <= cut) ++complete;
    FrameDecoder decoder;
    decoder.append(std::span<const std::uint8_t>(got));
    std::size_t decoded = 0;
    while (decoder.next()) ++decoded;
    EXPECT_EQ(decoded, complete) << "cut " << cut;
    if (cut < f.wire.size()) {
      EXPECT_TRUE(faulty.stats().read_cut);
    }
  }
}

TEST(FaultyByteStream, ReadCutAsCleanEofSignalsZero) {
  auto [a, b] = make_socketpair_streams();
  FaultPlan plan;
  plan.cut_read_after = 4;
  plan.cut_is_error = false;
  plan.shutdown_inner_on_cut = false;
  FaultyByteStream faulty(b, plan);
  ASSERT_TRUE(a->write_all(bytes_iota(10)));
  std::vector<std::uint8_t> buf(10);
  auto n = faulty.read_some(buf);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 4u);
  n = faulty.read_some(buf);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 0u);  // clean EOF, repeatable
  n = faulty.read_some(buf);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 0u);
}

TEST(FaultyByteStream, WriteCutAtEveryOffsetTearsTheFrameExactlyThere) {
  const ThreeFrames f = three_frames();
  for (std::size_t cut = 0; cut <= f.wire.size(); ++cut) {
    auto [a, b] = make_socketpair_streams();
    FaultPlan plan;
    plan.cut_write_after = cut;
    plan.shutdown_inner_on_cut = false;
    FaultyByteStream faulty(a, plan);
    const bool ok = faulty.write_all(f.wire);
    EXPECT_EQ(ok, cut > f.wire.size());  // cut == size still reports the cut
    faulty.close_write();
    const auto [got, sizes] = drain(*b);
    EXPECT_EQ(got.size(), std::min(cut, f.wire.size())) << "cut " << cut;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), f.wire.begin()));
    if (cut <= f.wire.size()) {
      EXPECT_TRUE(faulty.stats().write_cut);
      EXPECT_FALSE(faulty.write_all(bytes_iota(1)));  // stays cut
    }
  }
}

TEST(FaultyByteStream, InjectedRetriesAreContentNeutralAndCounted) {
  auto [a, b] = make_socketpair_streams();
  FaultPlan plan;
  plan.retry_every_reads = 2;
  plan.read_chunks = {3};
  plan.read_chunks_cycle = true;
  FaultyByteStream faulty(b, plan);
  const auto payload = bytes_iota(30);
  ASSERT_TRUE(a->write_all(payload));
  a->close_write();
  const auto [got, sizes] = drain(faulty);
  EXPECT_EQ(got, payload);
  EXPECT_GE(faulty.stats().injected_retries, 5u);
}

TEST(FaultyByteStream, ChunkedHelperCapsEveryRead) {
  auto [a, b] = make_socketpair_streams();
  auto chunked = make_chunked_stream(b, 2);
  ASSERT_TRUE(a->write_all(bytes_iota(9)));
  a->close_write();
  const auto [got, sizes] = drain(*chunked);
  EXPECT_EQ(got, bytes_iota(9));
  for (std::size_t n : sizes) EXPECT_LE(n, 2u);
}

}  // namespace
}  // namespace tommy::net
