// Status: lightweight error propagation for storage-layer code, modeled on
// the Status idiom used by RocksDB/Arrow. Functions that can fail return a
// Status (or StatusOr<T>); success is the common fast path and carries no
// allocation.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

namespace mlkv {

class Status {
 public:
  enum class Code : uint8_t {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kInvalidArgument = 3,
    kIOError = 4,
    kBusy = 5,          // transient: retry (e.g. staleness bound not met)
    kTimedOut = 6,
    kAborted = 7,
    kNotSupported = 8,
    kOutOfMemory = 9,
    kWrongPartition = 10,  // cluster: key not owned by this server; refetch map
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg = "") {
    return Status(Code::kIOError, std::move(msg));
  }
  // errno-carrying variant for OS call sites: appends strerror so I/O
  // failures carry the OS reason ("open /x: No such file or directory").
  static Status IOError(std::string context, int sys_errno) {
    context += ": ";
    context += std::strerror(sys_errno);
    return Status(Code::kIOError, std::move(context));
  }
  static Status Busy(std::string msg = "") {
    return Status(Code::kBusy, std::move(msg));
  }
  static Status TimedOut(std::string msg = "") {
    return Status(Code::kTimedOut, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(Code::kAborted, std::move(msg));
  }
  static Status NotSupported(std::string msg = "") {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status OutOfMemory(std::string msg = "") {
    return Status(Code::kOutOfMemory, std::move(msg));
  }
  static Status WrongPartition(std::string msg = "") {
    return Status(Code::kWrongPartition, std::move(msg));
  }

  // Rebuilds a Status from a bare code (e.g. a BatchResult entry).
  static Status FromCode(Code code, std::string msg = "") {
    if (code == Code::kOk) return Status();
    return Status(code, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsTimedOut() const { return code_ == Code::kTimedOut; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsWrongPartition() const { return code_ == Code::kWrongPartition; }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  std::string ToString() const {
    if (ok()) return "OK";
    static const char* kNames[] = {"OK",           "NotFound",  "Corruption",
                                   "InvalidArgument", "IOError", "Busy",
                                   "TimedOut",     "Aborted",   "NotSupported",
                                   "OutOfMemory",  "WrongPartition"};
    std::string s = kNames[static_cast<int>(code_)];
    if (!msg_.empty()) {
      s += ": ";
      s += msg_;
    }
    return s;
  }

 private:
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  Code code_;
  std::string msg_;
};

// Minimal StatusOr: either an OK status with a value, or an error status.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status s) : status_(std::move(s)) {}  // NOLINT: implicit by design
  StatusOr(T v) : value_(std::move(v)) {}        // NOLINT: implicit by design

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  T& value() { return value_; }
  const T& value() const { return value_; }
  T& operator*() { return value_; }
  T* operator->() { return &value_; }

 private:
  Status status_;
  T value_{};
};

#define MLKV_RETURN_NOT_OK(expr)            \
  do {                                      \
    ::mlkv::Status _s = (expr);             \
    if (!_s.ok()) return _s;                \
  } while (0)

}  // namespace mlkv
