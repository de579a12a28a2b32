// Length-prefixed framing over a byte stream: every protocol message
// travels as [u32 length][payload], where the payload is one encoded
// WireMessage (net/messages.hpp). The decoder is incremental — it accepts
// bytes in whatever chunks the transport delivers (partial frames,
// several frames coalesced into one read, single-byte trickles) and
// yields complete payloads as they materialize, so a reader can hand it
// raw recv() buffers directly.
//
// Malformedness is typed, not crashy: a length prefix above the
// configured cap poisons the decoder (`error()`), because after a bogus
// length there is no way to resynchronize on a byte stream. Payloads
// that frame correctly but fail WireMessage decode are the next layer's
// problem (net/frontend.hpp reports them as kMalformedMessage).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/messages.hpp"

namespace tommy::net {

/// Default cap on one frame's payload size. Generous — the largest
/// legitimate frame is a histogram DistributionAnnouncement, well under a
/// megabyte — while still bounding what a broken or hostile peer can make
/// the decoder buffer.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;

enum class FrameError : std::uint8_t {
  kNone,
  /// Length prefix exceeded the decoder's cap. Unrecoverable on a byte
  /// stream (no resync point); the decoder stays poisoned.
  kOversized,
};

[[nodiscard]] const char* to_string(FrameError error);

/// Wraps `payload` in a length-prefixed frame.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    std::span<const std::uint8_t> payload);

/// Encodes `message` and wraps it in one frame.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    const WireMessage& message);

/// Incremental frame decoder; see the file header. Typical use:
///
///   decoder.append(chunk);
///   while (auto payload = decoder.next()) handle(*payload);
///   if (decoder.error() != FrameError::kNone) die(decoder.error());
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Buffers `bytes` (any chunking). No-op once poisoned.
  void append(std::span<const std::uint8_t> bytes);

  /// Returns the next complete frame payload, or nullopt when more bytes
  /// are needed — or when the decoder hit an error (check `error()`).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> next();

  [[nodiscard]] FrameError error() const { return error_; }

  /// Bytes buffered but not yet returned (a partial trailing frame, or
  /// frames not yet pulled via next()).
  [[nodiscard]] std::size_t buffered_bytes() const {
    return buffer_.size() - pos_;
  }

 private:
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_{0};  // consumed prefix of buffer_
  FrameError error_{FrameError::kNone};
};

}  // namespace tommy::net
