// FaultyFileDevice: a FileDevice decorator for failure-injection tests.
// Reads, writes and fsyncs are counted, and a scripted window of each can
// be made to fail with an injected errno; reads can additionally tear
// (first half of the buffer served, the rest zero-filled — the shape a
// crash-interrupted flush or a torn sector leaves behind), and writes can
// tear symmetrically (first half reaches the file, reported as success —
// what a crash mid-pwrite leaves on disk).
//
// The Script is shared and atomic so a test can arm faults while the
// store under test owns the device (inject via FasterOptions::
// device_factory → HybridLogOptions::device_factory), including from
// other threads mid-run.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>

#include "io/file_device.h"

namespace mlkv {

class FaultyFileDevice : public FileDevice {
 public:
  struct Script {
    std::atomic<uint64_t> reads{0};      // reads observed so far
    // 1-based index of the first faulted read; 0 disarms the script.
    std::atomic<uint64_t> fail_from{0};
    // How many consecutive reads starting at fail_from fault.
    std::atomic<uint64_t> fail_count{1};
    std::atomic<int> fault_errno{EIO};
    // Tear (short read + zero fill, reported as success) instead of
    // failing with fault_errno.
    std::atomic<bool> short_read{false};

    // Write-side script, same shape: a 1-based window of WriteAt calls
    // faults (0 disarms); short_write tears instead (the first half of the
    // buffer lands, success reported).
    std::atomic<uint64_t> writes{0};
    std::atomic<uint64_t> write_fail_from{0};
    std::atomic<uint64_t> write_fail_count{1};
    std::atomic<bool> short_write{false};

    // Sync-side script: a 1-based window of Sync calls faults (0 disarms).
    // Models an fsync that reports failure after the kernel dropped dirty
    // pages — the checkpoint must surface it, never swallow it.
    std::atomic<uint64_t> syncs{0};
    std::atomic<uint64_t> sync_fail_from{0};
    std::atomic<uint64_t> sync_fail_count{1};
  };

  explicit FaultyFileDevice(std::shared_ptr<Script> script)
      : script_(std::move(script)) {}

  Status ReadAt(uint64_t offset, void* data, size_t n) const override {
    switch (NextReadFault()) {
      case ReadFault::kNone:
        return FileDevice::ReadAt(offset, data, n);
      case ReadFault::kFail:
        return Status::IOError("injected read fault",
                               script_->fault_errno.load());
      case ReadFault::kTear:
        break;
    }
    const size_t half = n / 2;
    if (half > 0) {
      MLKV_RETURN_NOT_OK(FileDevice::ReadAt(offset, data, half));
    }
    std::memset(static_cast<char*>(data) + half, 0, n - half);
    return Status::OK();
  }

  // A vectored read is one read of the script: it faults, or tears at half
  // its whole range, as a unit.
  Status ReadAt(uint64_t offset, const struct iovec* iov,
                int iovcnt) const override {
    const ReadFault fault = NextReadFault();
    if (fault == ReadFault::kFail) {
      return Status::IOError("injected read fault",
                             script_->fault_errno.load());
    }
    MLKV_RETURN_NOT_OK(FileDevice::ReadAt(offset, iov, iovcnt));
    if (fault == ReadFault::kTear) {
      size_t n = 0;
      for (int i = 0; i < iovcnt; ++i) n += iov[i].iov_len;
      size_t skip = n / 2;
      for (int i = 0; i < iovcnt; ++i) {
        const size_t from = skip < iov[i].iov_len ? skip : iov[i].iov_len;
        std::memset(static_cast<char*>(iov[i].iov_base) + from, 0,
                    iov[i].iov_len - from);
        skip -= from;
      }
    }
    return Status::OK();
  }

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    const uint64_t index =
        script_->writes.fetch_add(1, std::memory_order_acq_rel) + 1;
    const uint64_t from =
        script_->write_fail_from.load(std::memory_order_acquire);
    const uint64_t count =
        script_->write_fail_count.load(std::memory_order_acquire);
    const uint64_t until = from + count < from ? UINT64_MAX : from + count;
    if (from != 0 && index >= from && index < until) {
      if (script_->short_write.load(std::memory_order_acquire)) {
        const size_t half = n / 2;
        if (half > 0) {
          MLKV_RETURN_NOT_OK(FileDevice::WriteAt(offset, data, half));
        }
        return Status::OK();
      }
      return Status::IOError("injected write fault",
                             script_->fault_errno.load());
    }
    return FileDevice::WriteAt(offset, data, n);
  }

  Status Sync() override {
    const uint64_t index =
        script_->syncs.fetch_add(1, std::memory_order_acq_rel) + 1;
    const uint64_t from =
        script_->sync_fail_from.load(std::memory_order_acquire);
    const uint64_t count =
        script_->sync_fail_count.load(std::memory_order_acquire);
    const uint64_t until = from + count < from ? UINT64_MAX : from + count;
    if (from != 0 && index >= from && index < until) {
      return Status::IOError("injected fsync fault",
                             script_->fault_errno.load());
    }
    return FileDevice::Sync();
  }

 private:
  enum class ReadFault { kNone, kFail, kTear };

  // Counts one read and decides its fault from the script.
  ReadFault NextReadFault() const {
    const uint64_t index =
        script_->reads.fetch_add(1, std::memory_order_acq_rel) + 1;
    const uint64_t from = script_->fail_from.load(std::memory_order_acquire);
    const uint64_t count =
        script_->fail_count.load(std::memory_order_acquire);
    // Saturating window: fail_count = UINT64_MAX means "from here on".
    const uint64_t until = from + count < from ? UINT64_MAX : from + count;
    if (from == 0 || index < from || index >= until) return ReadFault::kNone;
    return script_->short_read.load(std::memory_order_acquire)
               ? ReadFault::kTear
               : ReadFault::kFail;
  }

  std::shared_ptr<Script> script_;
};

}  // namespace mlkv
