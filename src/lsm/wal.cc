#include "lsm/wal.h"

#include <cstring>
#include <filesystem>
#include <vector>

#include "common/hash.h"

namespace mlkv {

namespace {

constexpr uint8_t kOpPut = 1;
constexpr uint8_t kOpDelete = 2;
constexpr uint32_t kRecordHeader = 4 + 1 + 8 + 4;  // crc, op, key, vlen
// Caps a parsed value length so a corrupt length field cannot drive a
// gigantic allocation in replay.
constexpr uint32_t kMaxValueLen = 64u << 20;

uint32_t Checksum(const void* data, size_t n) {
  return static_cast<uint32_t>(HashBytes(data, n));
}

}  // namespace

Status WalWriter::Open(const std::string& path) {
  offset_ = 0;
  return file_.Open(path, /*truncate=*/true);
}

Status WalWriter::AppendRecord(uint8_t op, Key key, const void* value,
                               uint32_t size) {
  // size_t, not uint32_t: a header plus a value near 4 GiB must not wrap.
  std::vector<char> buf(size_t{kRecordHeader} + size);
  char* p = buf.data() + 4;  // checksum written last
  std::memcpy(p, &op, 1);
  std::memcpy(p + 1, &key, 8);
  std::memcpy(p + 9, &size, 4);
  if (size > 0) std::memcpy(p + 13, value, size);
  const uint32_t crc = Checksum(p, buf.size() - 4);
  std::memcpy(buf.data(), &crc, 4);
  MLKV_RETURN_NOT_OK(file_.WriteAt(offset_, buf.data(), buf.size()));
  offset_ += buf.size();
  return Status::OK();
}

Status WalWriter::AppendPut(Key key, const void* value, uint32_t size) {
  return AppendRecord(kOpPut, key, value, size);
}

Status WalWriter::AppendDelete(Key key) {
  return AppendRecord(kOpDelete, key, nullptr, 0);
}

Status WalWriter::Sync() { return file_.Sync(); }

Status WalWriter::Reset() {
  MLKV_RETURN_NOT_OK(file_.Truncate(0));
  offset_ = 0;
  return Status::OK();
}

Status ReplayWal(
    const std::string& path,
    const std::function<void(Key, const std::string&, bool)>& fn,
    uint64_t* replayed) {
  if (replayed != nullptr) *replayed = 0;
  if (!std::filesystem::exists(path)) return Status::OK();
  FileDevice file;
  MLKV_RETURN_NOT_OK(file.Open(path, /*truncate=*/false));
  const uint64_t size = file.FileSize();
  uint64_t offset = 0;
  std::vector<char> header(kRecordHeader);
  std::string value;
  while (offset + kRecordHeader <= size) {
    MLKV_RETURN_NOT_OK(file.ReadAt(offset, header.data(), kRecordHeader));
    uint32_t crc = 0;
    uint8_t op = 0;
    Key key = 0;
    uint32_t vlen = 0;
    std::memcpy(&crc, header.data(), 4);
    std::memcpy(&op, header.data() + 4, 1);
    std::memcpy(&key, header.data() + 5, 8);
    std::memcpy(&vlen, header.data() + 13, 4);
    if (vlen > kMaxValueLen || offset + kRecordHeader + vlen > size) {
      break;  // torn tail
    }
    // Re-read op..value contiguously for the checksum.
    std::vector<char> body(kRecordHeader - 4 + vlen);
    MLKV_RETURN_NOT_OK(file.ReadAt(offset + 4, body.data(), body.size()));
    if (Checksum(body.data(), body.size()) != crc) break;  // corrupt tail
    if (op == kOpPut) {
      value.assign(body.data() + 13, vlen);
      fn(key, value, false);
    } else if (op == kOpDelete) {
      fn(key, std::string(), true);
    } else {
      break;  // unknown op: treat as corruption boundary
    }
    offset += kRecordHeader + vlen;
    if (replayed != nullptr) ++(*replayed);
  }
  return Status::OK();
}

}  // namespace mlkv
