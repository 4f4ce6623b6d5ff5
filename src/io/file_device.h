// FileDevice: positional-I/O wrapper over a single file, the persistence
// substrate for the hybrid log, SSTables, and B+tree pages. All methods are
// thread-safe (pread/pwrite carry their own offsets).
//
// ReadAt, WriteAt and Sync are virtual: they are the seams decorators
// intercept — fault injection (io/faulty_file_device.h) and any I/O-path
// instrumentation — and the calls the AsyncIoEngine's worker threads issue
// for devices that do not admit raw-fd transfers.
#pragma once

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
  int fd() const { return fd_; }
  const std::string& path() const { return path_; }

  // True when reads may bypass the virtual ReadAt and go straight to the
  // fd (the AsyncIoEngine's io_uring path). False whenever ReadAt carries
  // semantics a raw read would skip: the simulated cost model here, or a
  // decorator's interception (FaultyFileDevice overrides this to false).
  virtual bool AllowsRawReads() const {
    return fd_ >= 0 && sim_read_latency_us_ == 0 && sim_read_gbps_ <= 0;
  }
  // Accounts bytes transferred by a raw-fd read that bypassed ReadAt.
  void NoteRawRead(size_t n) const {
    bytes_read_.fetch_add(n, std::memory_order_relaxed);
  }

  // Write-side twin of AllowsRawReads: true when writes may bypass the
  // virtual WriteAt (the AsyncIoEngine's io_uring WRITEV path). False
  // whenever WriteAt carries semantics a raw write would skip — the
  // simulated bandwidth model, or a decorator's interception.
  virtual bool AllowsRawWrites() const {
    return fd_ >= 0 && sim_write_gbps_ <= 0;
  }
  // Accounts bytes transferred by a raw-fd write that bypassed WriteAt.
  void NoteRawWrite(size_t n) const {
    bytes_written_.fetch_add(n, std::memory_order_relaxed);
  }

  // Cumulative transfer counters (drive the energy model's SSD term).
  uint64_t bytes_written() const;
  uint64_t bytes_read() const;

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

  // Process-wide default applied to every FileDevice at Open (engines open
  // devices internally, so benchmarks set the model once up front). A
  // 30 us / 1 GB/s setting approximates the paper's NVMe.
  static void SetGlobalSimulatedCosts(uint64_t read_latency_us,
                                      double read_gbps, double write_gbps);

 private:
  void ChargeRead(size_t n) const;
  void ChargeWrite(size_t n) const;

  int fd_ = -1;
  std::string path_;
  mutable std::atomic<uint64_t> bytes_written_{0};
  mutable std::atomic<uint64_t> bytes_read_{0};
  uint64_t sim_read_latency_us_ = 0;
  double sim_read_gbps_ = 0;
  double sim_write_gbps_ = 0;
};

}  // namespace mlkv
