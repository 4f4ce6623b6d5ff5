#include "io/file_device.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#ifdef __linux__
#include <linux/falloc.h>
#endif

#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>

#include "common/clock.h"

namespace mlkv {

namespace {
std::atomic<uint64_t> g_sim_read_latency_us{0};
std::atomic<double> g_sim_read_gbps{0};
std::atomic<double> g_sim_write_gbps{0};
}  // namespace

void FileDevice::SetGlobalSimulatedCosts(uint64_t read_latency_us,
                                         double read_gbps,
                                         double write_gbps) {
  g_sim_read_latency_us.store(read_latency_us, std::memory_order_relaxed);
  g_sim_read_gbps.store(read_gbps, std::memory_order_relaxed);
  g_sim_write_gbps.store(write_gbps, std::memory_order_relaxed);
}

FileDevice::~FileDevice() { Close(); }

Status FileDevice::Open(const std::string& path, bool truncate) {
  Close();
  sim_read_latency_us_ = g_sim_read_latency_us.load(std::memory_order_relaxed);
  sim_read_gbps_ = g_sim_read_gbps.load(std::memory_order_relaxed);
  sim_write_gbps_ = g_sim_write_gbps.load(std::memory_order_relaxed);
  int flags = O_RDWR | O_CREAT;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    return Status::IOError("open " + path, errno);
  }
  path_ = path;
  return Status::OK();
}

Status FileDevice::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return Status::OK();
}

Status FileDevice::WriteAt(uint64_t offset, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  size_t left = n;
  uint64_t off = offset;
  while (left > 0) {
    ssize_t w = ::pwrite(fd_, p, left, static_cast<off_t>(off));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite " + path_, errno);
    }
    p += w;
    off += static_cast<uint64_t>(w);
    left -= static_cast<size_t>(w);
  }
  bytes_written_.fetch_add(n, std::memory_order_relaxed);
  ChargeWrite(n);
  return Status::OK();
}

namespace {
// A thread waiting on a device completion yields the CPU — crucial for
// fidelity: overlapping I/O with compute (the whole point of look-ahead
// prefetching and async training) requires the core back while "the disk"
// works, especially on small machines.
void SleepNanos(uint64_t delay_ns) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(delay_ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(delay_ns % 1000000000ull);
  nanosleep(&ts, nullptr);
}
}  // namespace

void FileDevice::ChargeRead(size_t n) const {
  if (sim_read_latency_us_ == 0 && sim_read_gbps_ <= 0) return;
  uint64_t delay_ns = sim_read_latency_us_ * 1000;
  if (sim_read_gbps_ > 0) {
    delay_ns += static_cast<uint64_t>(static_cast<double>(n) /
                                      (sim_read_gbps_ * 1e9) * 1e9);
  }
  SleepNanos(delay_ns);
}

void FileDevice::ChargeWrite(size_t n) const {
  if (sim_write_gbps_ <= 0) return;
  SleepNanos(static_cast<uint64_t>(static_cast<double>(n) /
                                   (sim_write_gbps_ * 1e9) * 1e9));
}

Status FileDevice::PreadFully(uint64_t offset, char* p, size_t n) const {
  size_t left = n;
  uint64_t off = offset;
  while (left > 0) {
    ssize_t r = ::pread(fd_, p, left, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread " + path_, errno);
    }
    if (r == 0) {
      // Reading past EOF: zero-fill. The hybrid log pre-extends lazily, so a
      // read of a never-flushed region is a logic error upstream; zero bytes
      // surface as an invalid record there.
      std::memset(p, 0, left);
      break;
    }
    p += r;
    off += static_cast<uint64_t>(r);
    left -= static_cast<size_t>(r);
  }
  return Status::OK();
}

Status FileDevice::ReadAt(uint64_t offset, void* data, size_t n) const {
  MLKV_RETURN_NOT_OK(PreadFully(offset, static_cast<char*>(data), n));
  reads_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(n, std::memory_order_relaxed);
  ChargeRead(n);
  return Status::OK();
}

Status FileDevice::ReadAt(uint64_t offset, const struct iovec* iov,
                          int iovcnt) const {
  size_t n = 0;
  for (int i = 0; i < iovcnt; ++i) n += iov[i].iov_len;
  uint64_t off = offset;
  int i = 0;
  while (i < iovcnt) {
    ssize_t r = ::preadv(fd_, iov + i, iovcnt - i, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("preadv " + path_, errno);
    }
    if (r == 0) {
      // Past EOF: zero-fill the rest, as the scalar form does.
      for (; i < iovcnt; ++i) std::memset(iov[i].iov_base, 0, iov[i].iov_len);
      break;
    }
    off += static_cast<uint64_t>(r);
    size_t got = static_cast<size_t>(r);
    while (i < iovcnt && got >= iov[i].iov_len) got -= iov[i++].iov_len;
    if (got > 0) {
      // Short transfer ending inside iov[i]: finish that one, then resume.
      const size_t rest = iov[i].iov_len - got;
      MLKV_RETURN_NOT_OK(
          PreadFully(off, static_cast<char*>(iov[i].iov_base) + got, rest));
      off += rest;
      ++i;
    }
  }
  reads_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(n, std::memory_order_relaxed);
  ChargeRead(n);
  return Status::OK();
}

Status FileDevice::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IOError("fdatasync " + path_, errno);
  }
  return Status::OK();
}

Status FileDevice::PunchHole(uint64_t offset, uint64_t len) {
  if (len == 0) return Status::OK();
#if defined(FALLOC_FL_PUNCH_HOLE) && defined(FALLOC_FL_KEEP_SIZE)
  if (::fallocate(fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                  static_cast<off_t>(offset), static_cast<off_t>(len)) != 0) {
    if (errno == EOPNOTSUPP || errno == ENOSYS || errno == EINVAL) {
      return Status::OK();  // best-effort space reclamation
    }
    return Status::IOError("fallocate(PUNCH_HOLE) " + path_, errno);
  }
#else
  (void)offset;
#endif
  return Status::OK();
}

Status FileDevice::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Status::IOError("ftruncate " + path_, errno);
  }
  return Status::OK();
}

uint64_t FileDevice::FileSize() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

uint64_t FileDevice::bytes_written() const {
  return bytes_written_.load(std::memory_order_relaxed);
}
uint64_t FileDevice::bytes_read() const {
  return bytes_read_.load(std::memory_order_relaxed);
}

}  // namespace mlkv
