// FileDevice: positional-I/O wrapper over a single file, the persistence
// substrate for the hybrid log, SSTables, and B+tree pages. All methods are
// thread-safe (pread/pwrite carry their own offsets).
//
// ReadAt, WriteAt and Sync are virtual: they are the seams decorators
// intercept — fault injection (io/faulty_file_device.h) and any I/O-path
// instrumentation — and the calls the AsyncIoEngine's worker threads issue.
#pragma once

#include <sys/uio.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace mlkv {

class FileDevice {
 public:
  FileDevice() = default;
  virtual ~FileDevice();

  FileDevice(const FileDevice&) = delete;
  FileDevice& operator=(const FileDevice&) = delete;

  // Creates (truncating) or opens the file at `path`.
  Status Open(const std::string& path, bool truncate = true);
  Status Close();

  // Full read/write at absolute offset; loops on short transfers.
  virtual Status WriteAt(uint64_t offset, const void* data, size_t n);
  virtual Status ReadAt(uint64_t offset, void* data, size_t n) const;
  // Vectored read of the contiguous range starting at `offset` into
  // `iov`[0, iovcnt) in order (one preadv; same looping and EOF rules).
  // The simulated cost model charges it as one device read of the whole
  // range.
  virtual Status ReadAt(uint64_t offset, const struct iovec* iov,
                        int iovcnt) const;

  virtual Status Sync();
  Status Truncate(uint64_t size);

  // Releases the blocks backing [offset, offset+len) while keeping the file
  // size unchanged (log garbage collection reclaims the dead prefix this
  // way). Filesystems without hole-punch support make this a no-op: the
  // bytes stay allocated, which costs space but never correctness — callers
  // must not read punched ranges either way.
  Status PunchHole(uint64_t offset, uint64_t len);

  uint64_t FileSize() const;
  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  // Cumulative transfer counters (drive the energy model's SSD term).
  uint64_t bytes_written() const;
  uint64_t bytes_read() const;
  // Device reads issued: ReadAt calls of either form. A vectored read
  // counts once however many records it carries.
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }

  // Simulated NVMe cost model (README, "Substitutions and deviations").
  // Benchmarks run against files that land in the OS page cache, which
  // would make the out-of-core experiments free; enabling this charges
  // every read a fixed random-access latency plus a bandwidth term, and
  // every write a bandwidth term — calibrated to the paper's "SSDs with
  // 1024 MB/s bandwidth". Zero latency and bandwidth (the default) disables it.
  void SetSimulatedCosts(uint64_t read_latency_us, double read_gbps,
                         double write_gbps) {
    sim_read_latency_us_ = read_latency_us;
    sim_read_gbps_ = read_gbps;
    sim_write_gbps_ = write_gbps;
  }

  // The longest gap worth reading through to merge two reads: the bytes
  // the simulated device transfers in one read's fixed latency (L·B). Past
  // it, reading the gap costs more device time than a separate read. At
  // most `cap`, and `cap` when no cost model is set.
  uint64_t MergeGapBytes(uint64_t cap) const {
    if (sim_read_latency_us_ == 0 || sim_read_gbps_ <= 0) return cap;
    const double lb = static_cast<double>(sim_read_latency_us_) * 1e3 *
                      sim_read_gbps_;  // us * 1e-6 s * (gbps * 1e9 B/s)
    return std::min(cap, static_cast<uint64_t>(lb));
  }

  // Process-wide default applied to every FileDevice at Open (engines open
  // devices internally, so benchmarks set the model once up front). A
  // 30 us / 1 GB/s setting approximates the paper's NVMe.
  static void SetGlobalSimulatedCosts(uint64_t read_latency_us,
                                      double read_gbps, double write_gbps);

 private:
  // pread loop behind both ReadAt forms: no accounting, no charge.
  Status PreadFully(uint64_t offset, char* p, size_t n) const;
  void ChargeRead(size_t n) const;
  void ChargeWrite(size_t n) const;

  int fd_ = -1;
  std::string path_;
  mutable std::atomic<uint64_t> bytes_written_{0};
  mutable std::atomic<uint64_t> bytes_read_{0};
  mutable std::atomic<uint64_t> reads_{0};
  uint64_t sim_read_latency_us_ = 0;
  double sim_read_gbps_ = 0;
  double sim_write_gbps_ = 0;
};

}  // namespace mlkv
