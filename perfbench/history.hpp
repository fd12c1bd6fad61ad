// Recording and checking the histories of benchmark runs.
//
// Each client thread appends its completed operations to its own
// ClientLog: plain stores into mmap'd chunks, with no lock, no shared
// counter and no reallocation copy inside the timed window. Timestamps are
// CLOCK_MONOTONIC nanoseconds (steady_clock), which order operations across
// threads in real time.
//
// A run is cut into segments at quiescent points: the clients flush their
// pending updates and park, so every operation of one segment ends before
// any operation of the next begins. Any linearization of the whole history
// then orders all of a segment's operations before the next segment's, and
// the state between segments is fixed: each word holds its last written
// value. The whole history is linearizable iff every segment is
// linearizable from that state. SegmentChecker relabels a segment so the
// state at the cut becomes the initial value — tag (j, s) becomes
// (j, s - base_j), and a read of (j, base_j) becomes Tag{} — feeds it to
// lin::check_single_writer, and rejects itself any read of a value older
// than the cut. A client pipelines its updates, so its updates may overlap
// in real time; the segment also requires them to take effect in the order
// they were submitted. Segments keep the checker's memory bounded by one
// segment, and the check runs outside the timed window.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

#include "common/config.hpp"
#include "lin/history.hpp"
#include "lin/snapshot_checker.hpp"

namespace perfbench {

/// Append-only log of trivially copyable records in 1 MiB anonymous
/// mappings, populated when mapped so appends take no page faults. An
/// append is one compare and one store. clear() keeps the mappings for the
/// next segment; the destructor unmaps them.
template <typename T>
class ChunkLog {
  static_assert(std::is_trivially_copyable_v<T>);
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
  static constexpr std::size_t kPerChunk = kChunkBytes / sizeof(T);

 public:
  ChunkLog() = default;
  ~ChunkLog() {
    for (T* c : chunks_) ::munmap(c, kChunkBytes);
  }
  ChunkLog(const ChunkLog&) = delete;
  ChunkLog& operator=(const ChunkLog&) = delete;

  void push(const T& v) {
    if (cur_ == end_) next_chunk();
    *cur_++ = v;
  }

  std::size_t size() const {
    if (cur_ == nullptr) return 0;
    return active_ * kPerChunk + static_cast<std::size_t>(cur_ - chunks_[active_]);
  }
  const T& operator[](std::size_t i) const {
    return chunks_[i / kPerChunk][i % kPerChunk];
  }

  /// Bytes of memory the log holds resident.
  std::size_t resident_bytes() const { return chunks_.size() * kChunkBytes; }

  void clear() {
    cur_ = end_ = nullptr;
    active_ = 0;
  }

  /// Map chunks until `n` records fit.
  void reserve(std::size_t n) {
    while (chunks_.size() * kPerChunk < n) map_chunk();
  }

 private:
  void next_chunk() {
    const std::size_t next = cur_ == nullptr ? 0 : active_ + 1;
    if (next == chunks_.size()) map_chunk();
    active_ = next;
    cur_ = chunks_[next];
    end_ = cur_ + kPerChunk;
  }

  void map_chunk() {
    void* p = ::mmap(nullptr, kChunkBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    chunks_.push_back(static_cast<T*>(p));
  }

  std::vector<T*> chunks_;
  std::size_t active_ = 0;  ///< chunk cur_ points into
  T* cur_ = nullptr;        ///< next free record; null when empty
  T* end_ = nullptr;
};

/// An acknowledged update of the client's slot: value (slot, seq), invoked
/// at submit, responded at the call whose flushed_through covered it.
struct UpdateRec {
  std::uint64_t seq;
  std::uint64_t inv;
  std::uint64_t res;
};

/// A completed scan; its view is the next `words` tags of the view log.
struct ScanRec {
  std::uint64_t inv;
  std::uint64_t res;
};

/// One client's operations in the current segment. Written only by the
/// client thread while it runs; read by the checker while it is parked.
struct ClientLog {
  asnap::ProcessId slot = 0;
  std::size_t words = 0;
  bool malformed = false;  ///< a scan returned a view of the wrong width
  ChunkLog<UpdateRec> updates;
  ChunkLog<ScanRec> scans;
  ChunkLog<asnap::lin::Tag> views;

  void add_scan(std::uint64_t inv, std::uint64_t res,
                const std::vector<asnap::lin::Tag>& view) {
    if (view.size() != words) {
      malformed = true;
      return;
    }
    scans.push({inv, res});
    for (const auto& t : view) views.push(t);
  }
  void clear() {
    updates.clear();
    scans.clear();
    views.clear();
  }
  /// Room for `ops` operations of which a `scan_ratio` share are scans.
  void reserve(double ops, double scan_ratio) {
    const auto n_scans = static_cast<std::size_t>(ops * scan_ratio);
    updates.reserve(static_cast<std::size_t>(ops) - n_scans);
    scans.reserve(n_scans);
    views.reserve(n_scans * words);
  }
  std::size_t resident_bytes() const {
    return updates.resident_bytes() + scans.resident_bytes() +
           views.resident_bytes();
  }
};

/// Checks a run's history segment by segment (see the header comment).
class SegmentChecker {
 public:
  explicit SegmentChecker(std::size_t words) : base_(words, 0) {}

  /// Check one segment; on success the cut state advances past it.
  asnap::lin::CheckResult check(const std::vector<const ClientLog*>& logs);

  std::uint64_t ops_checked() const { return ops_checked_; }

 private:
  std::vector<std::uint64_t> base_;  ///< last seq of each word at the cut
  std::uint64_t ops_checked_ = 0;
};

}  // namespace perfbench
