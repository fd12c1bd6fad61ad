#include "abd/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

namespace asnap::abd {

namespace {

constexpr std::uint32_t kWalMagic = 0x314C4157;  // "WAL1" little-endian
constexpr std::uint16_t kRecWrite = 1;
constexpr std::uint16_t kRecEpoch = 2;
constexpr std::size_t kRecHeader = 4 + 2 + 2 + 8 + 8 + 4;  // before value
constexpr std::size_t kRecTrailer = 4;                     // crc32
// Room is preallocated this much at a time: about 23,800 of the 44-byte
// records a 12-byte value makes, so one append in that many grows the file.
constexpr std::uint64_t kRoomChunk = 1 << 20;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::vector<std::uint8_t> encode_record(std::uint16_t type, std::uint64_t reg,
                                        std::uint64_t ts,
                                        const net::wire::Bytes& value) {
  std::vector<std::uint8_t> rec;
  rec.reserve(kRecHeader + value.size() + kRecTrailer);
  put_u32(rec, kWalMagic);
  put_u16(rec, type);
  put_u16(rec, 0);  // reserved
  put_u64(rec, reg);
  put_u64(rec, ts);
  put_u32(rec, static_cast<std::uint32_t>(value.size()));
  rec.insert(rec.end(), value.begin(), value.end());
  const std::uint32_t crc = net::wire::crc32(rec.data(), rec.size());
  put_u32(rec, crc);
  return rec;
}

/// pwrite() all of `data` at `offset`. Never through an O_APPEND
/// descriptor: Linux would put the bytes at EOF, the end of the room, where
/// replay never looks.
bool write_all_at(int fd, const std::uint8_t* data, std::size_t len,
                  std::uint64_t offset) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd, data + done, len - done,
                               static_cast<off_t>(offset + done));
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Preallocate [from, from + len) and count it in the file size (mode 0:
/// with FALLOC_FL_KEEP_SIZE every write would still change the size, and
/// committing that change is the cost the room exists to avoid). Returns
/// the file's new end, or `from` when it failed. The room is a hint only:
/// whatever the failure (a filesystem that cannot preallocate, a volume
/// with less than `len` free), the writes grow the file as appends always
/// did, and their pwrite/fsync report the errors that decide durability.
/// Room a failed call allocated in part is zeros that open() or a rollback
/// cuts like any other room.
std::uint64_t preallocate(int fd, std::uint64_t from, std::uint64_t len) {
  return ::fallocate(fd, 0, static_cast<off_t>(from),
                     static_cast<off_t>(len)) == 0
             ? from + len
             : from;
}

/// fsync the directory that holds `path`, which makes a rename into it
/// durable.
bool sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return false;
  const bool synced = ::fsync(dfd) == 0;
  ::close(dfd);
  return synced;
}

/// Replay `buf` into *state; returns the byte offset just past the last
/// intact record. What follows it is room (zeros, whose magic never
/// matches) or a torn/corrupt tail.
std::uint64_t replay(const std::vector<std::uint8_t>& buf, WalState* state) {
  std::size_t off = 0;
  while (buf.size() - off >= kRecHeader + kRecTrailer) {
    const std::uint8_t* p = buf.data() + off;
    if (get_u32(p) != kWalMagic) break;
    const std::uint16_t type = get_u16(p + 4);
    const std::uint64_t reg = get_u64(p + 8);
    const std::uint64_t ts = get_u64(p + 16);
    const std::uint32_t vlen = get_u32(p + 24);
    const std::size_t total = kRecHeader + vlen + kRecTrailer;
    if (vlen > net::wire::kMaxBody || buf.size() - off < total) break;
    const std::uint32_t want_crc = get_u32(p + kRecHeader + vlen);
    if (net::wire::crc32(p, kRecHeader + vlen) != want_crc) break;
    if (type == kRecEpoch) {
      state->epoch = std::max(state->epoch, reg);
    } else if (type == kRecWrite) {
      auto& slot = state->regs[reg];
      // Records are appended in accept order, but replay defensively keeps
      // the max timestamp (compaction + appends make order non-obvious).
      if (ts >= slot.first) {
        slot.first = ts;
        slot.second.assign(p + kRecHeader, p + kRecHeader + vlen);
      }
    }
    // Unknown record types still advance (forward compatibility) — the CRC
    // already proved the record intact.
    off += total;
  }
  return off;
}

}  // namespace

ReplicaWal::ReplicaWal(std::string path, int fd, std::uint64_t bytes)
    : path_(std::move(path)), fd_(fd), bytes_(bytes), size_(bytes) {}

ReplicaWal::~ReplicaWal() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<ReplicaWal> ReplicaWal::open(const std::string& path,
                                             WalState* state,
                                             std::string* error) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "open " + path + ": " + std::strerror(errno);
    }
    return nullptr;
  }
  std::vector<std::uint8_t> buf;
  {
    std::uint8_t chunk[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n > 0) {
        buf.insert(buf.end(), chunk, chunk + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        if (error != nullptr) {
          *error = "read " + path + ": " + std::strerror(errno);
        }
        ::close(fd);
        return nullptr;
      }
      break;
    }
  }
  const std::uint64_t good = replay(buf, state);
  if (good < buf.size()) {
    // The room, and maybe a torn record from a crash mid-append (never
    // acked). Cut both: bytes of a torn record left in the room could
    // follow a later, shorter record and replay as one of their own.
    if (::ftruncate(fd, static_cast<off_t>(good)) != 0) {
      if (error != nullptr) {
        *error = "ftruncate " + path + ": " + std::strerror(errno);
      }
      ::close(fd);
      return nullptr;
    }
  }
  return std::unique_ptr<ReplicaWal>(new ReplicaWal(path, fd, good));
}

const char* wal_error_name(WalError error) {
  switch (error) {
    case WalError::kNone: return "none";
    case WalError::kNoSpace: return "no_space";
    case WalError::kIo: return "io";
  }
  return "unknown";
}

/// Classify errno, remember it, and roll the file back to the last record
/// boundary: a failed append may have written a partial record (short
/// write before ENOSPC), and a later, shorter record would leave its tail
/// behind, which replay could take for a record. The cut takes the room
/// with it; the next append preallocates again.
bool ReplicaWal::fail_append_locked(int error_no) {
  last_error_ = (error_no == ENOSPC || error_no == EDQUOT)
                    ? WalError::kNoSpace
                    : WalError::kIo;
  if (fd_ >= 0 && ::ftruncate(fd_, static_cast<off_t>(bytes_)) == 0) {
    size_ = bytes_;
  }
  return false;
}

bool ReplicaWal::append_record(std::uint16_t type, std::uint64_t reg,
                               std::uint64_t ts,
                               const net::wire::Bytes& value) {
  const auto rec = encode_record(type, reg, ts, value);
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return fail_append_locked(EBADF);
  // A record that does not fit the room starts a new chunk. Whatever still
  // does not fit (no room could be had, or a record longer than a chunk)
  // grows the file as the write lands.
  if (bytes_ + rec.size() > size_) size_ = preallocate(fd_, size_, kRoomChunk);
  if (inject_count_ > 0) {
    --inject_count_;
    const std::size_t partial = std::min(inject_partial_, rec.size());
    if (partial > 0) write_all_at(fd_, rec.data(), partial, bytes_);
    return fail_append_locked(inject_errno_);
  }
  if (!write_all_at(fd_, rec.data(), rec.size(), bytes_)) {
    return fail_append_locked(errno);
  }
  if (::fsync(fd_) != 0) return fail_append_locked(errno);
  bytes_ += rec.size();
  size_ = std::max(size_, bytes_);
  last_error_ = WalError::kNone;
  return true;
}

WalError ReplicaWal::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

void ReplicaWal::inject_append_failure(int error_no, int count,
                                       std::size_t partial_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  inject_errno_ = error_no;
  inject_count_ = count;
  inject_partial_ = partial_bytes;
}

bool ReplicaWal::append_write(std::uint64_t reg, std::uint64_t ts,
                              const net::wire::Bytes& value) {
  return append_record(kRecWrite, reg, ts, value);
}

bool ReplicaWal::append_epoch(std::uint64_t epoch) {
  return append_record(kRecEpoch, epoch, 0, {});
}

bool ReplicaWal::compact(const WalState& state) {
  const std::string tmp = path_ + ".tmp";
  // O_RDWR, not O_APPEND: this descriptor becomes the log's, and appends
  // pwrite() at the logical end.
  const int fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::vector<std::uint8_t> img;
  {
    const auto rec = encode_record(kRecEpoch, state.epoch, 0, {});
    img.insert(img.end(), rec.begin(), rec.end());
  }
  for (const auto& [reg, pair] : state.regs) {
    const auto rec = encode_record(kRecWrite, reg, pair.first, pair.second);
    img.insert(img.end(), rec.begin(), rec.end());
  }
  // The image, then one chunk of room for the appends that follow it.
  const std::uint64_t size = preallocate(fd, 0, img.size() + kRoomChunk);
  if (!write_all_at(fd, img.data(), img.size(), 0) || ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  // The rename unlinked the old log: appends go through the image's
  // descriptor from here on, never through a reopen that could fail.
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  bytes_ = img.size();
  size_ = std::max(size, bytes_);
  if (!sync_parent_dir(path_)) {
    // The rename may not survive a power loss, which would bring the old
    // log back without anything appended from now on, acked or not.
    // Refuse appends (kIo) until a restart compacts again.
    ::close(fd_);
    fd_ = -1;
    last_error_ = WalError::kIo;
    return false;
  }
  return true;
}

std::uint64_t ReplicaWal::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace asnap::abd
