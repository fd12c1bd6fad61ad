#include "net/wire.hpp"

#include <array>
#include <cstring>

namespace asnap::net::wire {

namespace {

std::nullopt_t fail(DecodeError* error, DecodeError why) {
  if (error != nullptr) *error = why;
  return std::nullopt;
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

Bytes encode(const Frame& frame) {
  const std::uint32_t body_len =
      static_cast<std::uint32_t>(kHeaderBytes + frame.value.size());
  Bytes out;
  out.reserve(4 + body_len);
  put_u32(out, body_len);
  put_u32(out, kMagic);
  out.push_back(frame.version);
  out.push_back(frame.type);
  // v1 frames have no flags field — those two bytes are reserved-zero.
  put_u16(out, frame.version >= 2 ? frame.flags : 0);
  put_u64(out, frame.from);
  put_u64(out, frame.rid);
  put_u64(out, frame.epoch);
  put_u64(out, frame.reg);
  put_u64(out, frame.ts);
  put_u32(out, static_cast<std::uint32_t>(frame.value.size()));
  out.insert(out.end(), frame.value.begin(), frame.value.end());
  return out;
}

const char* decode_error_name(DecodeError error) {
  switch (error) {
    case DecodeError::kNone: return "ok";
    case DecodeError::kShortHeader: return "frame shorter than the fixed header";
    case DecodeError::kOversized: return "frame exceeds kMaxBody";
    case DecodeError::kBadMagic: return "bad magic";
    case DecodeError::kBadVersion: return "unknown wire version";
    case DecodeError::kLengthMismatch:
      return "value length disagrees with frame length";
  }
  return "unknown decode error";
}

std::optional<Frame> decode(const std::uint8_t* body, std::size_t len,
                            DecodeError* error) {
  if (error != nullptr) *error = DecodeError::kNone;
  if (len < kHeaderBytes) return fail(error, DecodeError::kShortHeader);
  if (len > kMaxBody) return fail(error, DecodeError::kOversized);
  if (get_u32(body) != kMagic) return fail(error, DecodeError::kBadMagic);
  Frame f;
  f.version = body[4];
  if (f.version < kMinWireVersion || f.version > kWireVersion) {
    return fail(error, DecodeError::kBadVersion);
  }
  f.type = body[5];
  // body[6..7]: flags since v2; reserved (and required-zero by nobody) in
  // v1, where they decode as 0 = no flags — the conservative meaning.
  f.flags = f.version >= 2 ? get_u16(body + 6) : 0;
  f.from = get_u64(body + 8);
  f.rid = get_u64(body + 16);
  f.epoch = get_u64(body + 24);
  f.reg = get_u64(body + 32);
  f.ts = get_u64(body + 40);
  const std::uint32_t value_len = get_u32(body + 48);
  if (kHeaderBytes + static_cast<std::size_t>(value_len) != len) {
    return fail(error, DecodeError::kLengthMismatch);
  }
  f.value.assign(body + kHeaderBytes, body + kHeaderBytes + value_len);
  return f;
}

std::optional<Frame> decode(const std::uint8_t* body, std::size_t len,
                            std::string* error) {
  DecodeError why = DecodeError::kNone;
  auto frame = decode(body, len, &why);
  if (!frame.has_value() && error != nullptr) {
    *error = decode_error_name(why);
  }
  return frame;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed) {
  const auto& table = crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Bytes encode_tag(const lin::Tag& tag) {
  Bytes out;
  out.reserve(12);
  put_u32(out, tag.writer);
  put_u64(out, tag.seq);
  return out;
}

std::optional<lin::Tag> decode_tag(const Bytes& bytes) {
  if (bytes.size() != 12) return std::nullopt;
  lin::Tag tag;
  tag.writer = static_cast<ProcessId>(get_u32(bytes.data()));
  tag.seq = get_u64(bytes.data() + 4);
  return tag;
}

Bytes encode_u64(std::uint64_t v) {
  Bytes out;
  out.reserve(8);
  put_u64(out, v);
  return out;
}

std::optional<std::uint64_t> decode_u64(const Bytes& bytes) {
  if (bytes.size() != 8) return std::nullopt;
  return get_u64(bytes.data());
}

}  // namespace asnap::net::wire
