// Versioned, length-prefixed wire format for the ABD replica protocol over
// real sockets.
//
// The ABD protocol messages (BasicFrame below) are shared by both
// transports: the in-process cluster exchanges them over net::SimNetwork,
// typed by its register value, and over sockets they have a fixed binary
// encoding, so independent OS processes — the tools/abd_replicad replica
// daemons and any client built on abd::RemoteRegisterClient — interoperate
// across restarts and versions:
//
//   frame  := u32 body_len | body                  (body_len <= kMaxBody)
//   body   := u32 magic 'SNAP' | u8 version | u8 type | u16 flags
//           | u64 from | u64 rid | u64 epoch | u64 reg | u64 ts
//           | u32 value_len | value bytes
//
// All integers little-endian. `from` is the sender's node id (replica) or
// client id (requests); `rid` matches replies to in-flight quorum rounds
// (retransmissions reuse the rid — replica handlers are idempotent);
// `epoch` is the replying replica's incarnation, bumped durably on every
// daemon (re)start so clients can discard replies stamped by a pre-crash
// incarnation (abd::QuorumRound's epoch filter); `ts`/`reg`
// carry the ABD timestamp and register index. Values are opaque byte
// strings — the daemon replicates them without interpretation; typed
// clients encode through the codecs at the bottom (lin::Tag, u64).
//
// Versioning: a decoder rejects frames whose magic or version it does not
// know, and a reader must treat a malformed frame as a broken peer (close
// the connection) — never resynchronize mid-stream. v2 spent the u16
// reserved field on `flags` (bit 0 = kFlagTsConfirmed on kReadReply: the
// replica knows `ts` is majority-acked, enabling one-round fast reads) and
// added the fire-and-forget kConfirm type. A v2 decoder still accepts v1
// frames — their zero reserved bytes read back as "no flags", which is the
// safe, conservative meaning — so mixed-version clusters only lose fast
// reads, never correctness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lin/history.hpp"

namespace asnap::net::wire {

inline constexpr std::uint32_t kMagic = 0x50414E53;  // "SNAP" little-endian
inline constexpr std::uint8_t kWireVersion = 2;
/// Oldest version this decoder still accepts (v1 = pre-flags; decoded with
/// flags = 0, i.e. nothing confirmed).
inline constexpr std::uint8_t kMinWireVersion = 1;
/// Header bytes after the length prefix, excluding the value payload.
inline constexpr std::size_t kHeaderBytes = 4 + 1 + 1 + 2 + 8 * 5 + 4;
/// Upper bound on one frame body: rejects corrupt length prefixes before
/// they become allocation bombs.
inline constexpr std::uint32_t kMaxBody = 1u << 20;

/// Protocol message discriminators, shared by both ABD transports. 1..4 are
/// the read/write requests and replies; 5/6 are the socket transport's
/// liveness probes (the real-network stand-in for Port::kDetector
/// heartbeats); 7 is v2's fire-and-forget stability notice (no reply — a
/// replica folds it into its per-register confirmed ts, and a v1 peer
/// ignores the unknown type).
enum Type : std::uint8_t {
  kReadReq = 1,
  kReadReply = 2,
  kWriteReq = 3,
  kWriteAck = 4,
  kPing = 5,
  kPong = 6,
  kConfirm = 7,
};

/// Frame::flags bit 0, meaningful on kReadReply: the replying replica knows
/// the reported `ts` is majority-acked (its confirmed ts >= its stored ts),
/// so a reader adopting this (ts, value) may skip the write-back round.
inline constexpr std::uint16_t kFlagTsConfirmed = 1u << 0;

using Bytes = std::vector<std::uint8_t>;

/// One protocol message. The value type is a template parameter so the
/// in-process cluster can carry typed register values; only Frame (opaque
/// bytes) has a wire encoding.
template <typename V>
struct BasicFrame {
  std::uint8_t version = kWireVersion;
  std::uint8_t type = 0;
  std::uint16_t flags = 0;  ///< kFlag* bits; always 0 when decoded from v1
  std::uint64_t from = 0;   ///< sender node/client id
  std::uint64_t rid = 0;    ///< request id for RPC matching
  std::uint64_t epoch = 0;  ///< responder incarnation (replies)
  std::uint64_t reg = 0;    ///< register index
  std::uint64_t ts = 0;     ///< ABD timestamp
  V value{};
};
using Frame = BasicFrame<Bytes>;

/// A frame as a client's transport hands it over: with the index of the
/// replica (the link) it arrived from.
template <typename V>
struct Received {
  std::size_t from = 0;
  BasicFrame<V> frame;
};

/// Serialize including the u32 length prefix, ready for send().
Bytes encode(const Frame& frame);

/// Every way a frame body can fail to parse. Typed so fuzzers and peers can
/// assert on the exact failure mode instead of matching message strings;
/// every rejection reason is one of these — the decoder never throws and
/// never reads past `len`.
enum class DecodeError : std::uint8_t {
  kNone = 0,
  kShortHeader,     ///< body shorter than the fixed header
  kOversized,       ///< body longer than kMaxBody
  kBadMagic,        ///< first four bytes are not 'SNAP'
  kBadVersion,      ///< version byte this decoder does not know
  kLengthMismatch,  ///< declared value_len disagrees with the body length
};

/// Stable human-readable reason ("bad magic", ...) for a DecodeError.
const char* decode_error_name(DecodeError error);

/// Parse one frame BODY (the bytes after the length prefix). On failure
/// returns nullopt and, when `error` is non-null, the typed reason.
std::optional<Frame> decode(const std::uint8_t* body, std::size_t len,
                            DecodeError* error);

/// Same, reporting the reason as decode_error_name() text instead.
std::optional<Frame> decode(const std::uint8_t* body, std::size_t len,
                            std::string* error = nullptr);

/// CRC-32 (IEEE, reflected) — used by the replica write-ahead log to detect
/// torn tail records after a kill -9. Software table implementation: no
/// external dependency.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed = 0);

// --- value codecs -----------------------------------------------------------

/// lin::Tag <-> 12 bytes (u32 writer | u64 seq), the value type every
/// checked workload writes (unique tags make the reads-from relation of a
/// history unambiguous).
Bytes encode_tag(const lin::Tag& tag);
std::optional<lin::Tag> decode_tag(const Bytes& bytes);

Bytes encode_u64(std::uint64_t v);
std::optional<std::uint64_t> decode_u64(const Bytes& bytes);

}  // namespace asnap::net::wire
