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

bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Replay `buf` into *state; returns the byte offset just past the last
/// intact record (everything after it is a torn/corrupt tail).
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
    : path_(std::move(path)), fd_(fd), bytes_(bytes) {}

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
    // Torn tail from a crash mid-append: the partial record was never
    // acked, drop it so the next append starts at a record boundary.
    if (::ftruncate(fd, static_cast<off_t>(good)) != 0) {
      if (error != nullptr) {
        *error = "ftruncate " + path + ": " + std::strerror(errno);
      }
      ::close(fd);
      return nullptr;
    }
  }
  if (::lseek(fd, static_cast<off_t>(good), SEEK_SET) < 0) {
    if (error != nullptr) {
      *error = "lseek " + path + ": " + std::strerror(errno);
    }
    ::close(fd);
    return nullptr;
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
/// write before ENOSPC), and leaving it would make the NEXT successful
/// append land after garbage — replay would then truncate acked records.
bool ReplicaWal::fail_append_locked(int error_no) {
  last_error_ = (error_no == ENOSPC || error_no == EDQUOT)
                    ? WalError::kNoSpace
                    : WalError::kIo;
  if (fd_ >= 0 && ::ftruncate(fd_, static_cast<off_t>(bytes_)) == 0) {
    ::lseek(fd_, static_cast<off_t>(bytes_), SEEK_SET);
  }
  return false;
}

bool ReplicaWal::append_record(std::uint16_t type, std::uint64_t reg,
                               std::uint64_t ts,
                               const net::wire::Bytes& value) {
  const auto rec = encode_record(type, reg, ts, value);
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return fail_append_locked(EBADF);
  if (inject_count_ > 0) {
    --inject_count_;
    const std::size_t partial = std::min(inject_partial_, rec.size());
    if (partial > 0) write_all(fd_, rec.data(), partial);
    return fail_append_locked(inject_errno_);
  }
  if (!write_all(fd_, rec.data(), rec.size())) {
    return fail_append_locked(errno);
  }
  if (::fsync(fd_) != 0) return fail_append_locked(errno);
  bytes_ += rec.size();
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
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
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
  if (!write_all(fd, img.data(), img.size()) || ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);

  std::lock_guard<std::mutex> lock(mu_);
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  // Re-open so subsequent appends extend the compacted image.
  const int nfd = ::open(path_.c_str(), O_RDWR | O_APPEND, 0644);
  if (nfd < 0) return false;
  if (fd_ >= 0) ::close(fd_);
  fd_ = nfd;
  bytes_ = img.size();
  // Persist the rename itself: fsync the containing directory.
  const std::size_t slash = path_.rfind('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path_.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

std::uint64_t ReplicaWal::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace asnap::abd
