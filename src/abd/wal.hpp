// Replica write-ahead log: the durability half of the crash-recovery story.
//
// A tools/abd_replicad daemon appends one record per accepted WRITE and one
// per incarnation bump, fsync()ing BEFORE the network ack leaves the
// process. Combined with majority quorums this yields the durability
// argument of DESIGN.md §11: an acknowledged write is fsynced on a majority
// of replicas, every read quorum intersects that majority, so the write
// survives kill -9 of any subset of replicas — including, unlike the
// in-memory simulation, all of them at once.
//
// Record format (little-endian, after wire.hpp's conventions):
//   record := u32 magic 'WAL1' | u16 type | u16 reserved
//           | u64 reg | u64 ts | u32 value_len | value bytes | u32 crc32
// type 1 = register write (reg, ts, value), type 2 = epoch bump (the new
// incarnation in `reg`, ts/value unused). The CRC covers everything from
// magic through the last value byte. Replay stops at the first torn or
// corrupt record and truncates the file there: a record torn by kill -9
// mid-append was by construction never acked (the fsync hadn't returned),
// so dropping it loses nothing acknowledged.
//
// File layout: the records, then zeroed room. The room is preallocated
// with fallocate() and counted in the file size, in chunks of 1 MiB, so an
// append is one pwrite() at the logical end, bytes(), into space the file
// already owns: its fsync flushes a data block and leaves the file's size
// and allocation alone, except for the append that starts a new chunk.
// The room reads as zeros, which fail the magic check, so replay still ends
// at the last intact record; open() cuts the file there, room included,
// and the next append preallocates again. The room is a hint: when
// fallocate() fails, appends grow the file as they did before the room,
// and only the write and the fsync decide whether an append is durable.
// bytes() is the logical size; the file's size is not.
//
// The log is compacted (one write record per register + the epoch, written
// to a temp file that already has one chunk of room, and atomically
// rename()d) at daemon startup and whenever it outgrows a size threshold,
// so repeated crash/restart cycles don't grow it without bound.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "abd/core.hpp"
#include "net/wire.hpp"

namespace asnap::abd {

/// Everything a replica must remember across kill -9: the daemon's
/// ReplicaCore state, which replay fills and compaction reads.
using WalState = ReplicaState<net::wire::Bytes>;

/// Why the last append failed. A full disk (kNoSpace) is operator-actionable
/// and retryable once space frees; anything else (kIo) means the device or
/// file is suspect and the replica should scream louder. Either way the
/// append returns false BEFORE any ack leaves the daemon — the log never
/// acks-then-loses.
enum class WalError : std::uint8_t {
  kNone = 0,
  kNoSpace,  ///< ENOSPC / EDQUOT: the volume (or quota) is full
  kIo,       ///< any other write/fsync failure (EIO, bad fd, ...)
};

/// Stable name for a WalError ("none", "no_space", "io").
const char* wal_error_name(WalError error);

class ReplicaWal {
 public:
  /// Open (creating if needed) `path` and replay it into *state. Torn or
  /// corrupt tail records are truncated away. nullptr + error message on
  /// I/O failure.
  static std::unique_ptr<ReplicaWal> open(const std::string& path,
                                          WalState* state, std::string* error);
  ~ReplicaWal();

  ReplicaWal(const ReplicaWal&) = delete;
  ReplicaWal& operator=(const ReplicaWal&) = delete;

  /// Durably record a write. Must return true before the WRITE is acked.
  bool append_write(std::uint64_t reg, std::uint64_t ts,
                    const net::wire::Bytes& value);

  /// Durably record a new incarnation. Must return true before the daemon
  /// starts serving under that epoch.
  bool append_epoch(std::uint64_t epoch);

  /// Rewrite the log as `state` (epoch record + one write per register),
  /// via temp file + atomic rename + directory fsync. Caller must pass a
  /// state consistent with everything appended so far (hold its store
  /// lock). False when it failed: before the rename the old log stays in
  /// use and last_error() is left as it was; after it (the directory fsync
  /// failed) last_error() reads kIo and so does every later append until a
  /// restart, since a power loss could bring the old log back without them.
  bool compact(const WalState& state);

  /// Logical log size, the end of the last record (the file is larger by
  /// its preallocated room); callers compact when this outgrows their
  /// threshold.
  std::uint64_t bytes() const;

  /// Classification of the most recent append failure (kNone after a
  /// successful append). Lets the daemon log "disk full" vs "I/O error"
  /// while still refusing the ack in both cases.
  WalError last_error() const;

  /// Fault injection (tests/chaos only): fail the next `count` appends with
  /// errno `error_no`. When `partial_bytes` > 0, that many bytes of the
  /// encoded record are written at bytes() before failing — a realistic
  /// ENOSPC leaves a torn record there, and the rollback path must erase it
  /// so the log stays at a record boundary.
  void inject_append_failure(int error_no, int count,
                             std::size_t partial_bytes = 0);

 private:
  ReplicaWal(std::string path, int fd, std::uint64_t bytes);

  bool append_record(std::uint16_t type, std::uint64_t reg, std::uint64_t ts,
                     const net::wire::Bytes& value);
  bool fail_append_locked(int error_no);

  const std::string path_;
  mutable std::mutex mu_;
  int fd_ = -1;              ///< under mu_; -1 refuses appends (kIo)
  std::uint64_t bytes_ = 0;  ///< under mu_; the logical end
  std::uint64_t size_ = 0;   ///< under mu_; file size, [bytes_, size_) room
  WalError last_error_ = WalError::kNone;  ///< under mu_
  int inject_errno_ = 0;                   ///< under mu_
  int inject_count_ = 0;                   ///< under mu_
  std::size_t inject_partial_ = 0;         ///< under mu_
};

}  // namespace asnap::abd
