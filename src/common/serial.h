#ifndef TREESERVER_COMMON_SERIAL_H_
#define TREESERVER_COMMON_SERIAL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace treeserver {

/// Appends POD values, strings and vectors to a byte buffer.
///
/// The wire format is little-endian fixed-width (we only target
/// little-endian hosts, as the simulated cluster is a single process);
/// lengths are uint64. Used for task/data messages and model files.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Write<T> requires a trivially copyable type");
    const char* p = reinterpret_cast<const char*>(&value);
    buf_.append(p, sizeof(T));
  }

  void WriteString(const std::string& s) {
    Write<uint64_t>(s.size());
    buf_.append(s);
  }

  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    WriteArray(v.data(), v.size());
  }

  /// WriteVector's layout (uint64 count, then the elements) for `n`
  /// elements at `data`; ReadVector reads it back.
  template <typename T>
  void WriteArray(const T* data, size_t n) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "WriteArray<T> requires a trivially copyable type");
    Write<uint64_t>(n);
    if (n > 0) {
      buf_.append(reinterpret_cast<const char*>(data), n * sizeof(T));
    }
  }

  const std::string& buffer() const { return buf_; }
  std::string&& Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Reads values written by BinaryWriter, with bounds checking.
class BinaryReader {
 public:
  /// The reader borrows `data`; the caller keeps it alive.
  explicit BinaryReader(const std::string& data)
      : data_(data.data()), size_(data.size()) {}
  BinaryReader(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  Status Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Read<T> requires a trivially copyable type");
    if (pos_ + sizeof(T) > size_) {
      return Status::Corruption("BinaryReader: read past end");
    }
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  Status ReadString(std::string* out) {
    uint64_t len = 0;
    TS_RETURN_IF_ERROR(Read(&len));
    // `len > size_ - pos_` (not `pos_ + len > size_`): a hostile
    // length near 2^64 must not wrap the addition past the bound.
    if (len > size_ - pos_) {
      return Status::Corruption("BinaryReader: string past end");
    }
    out->assign(data_ + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  template <typename T>
  Status ReadVector(std::vector<T>* out) {
    uint64_t len = 0;
    TS_RETURN_IF_ERROR(Read(&len));
    // Division keeps hostile lengths from overflowing len * sizeof(T)
    // (and from reaching resize() with an absurd allocation size).
    if (len > (size_ - pos_) / sizeof(T)) {
      return Status::Corruption("BinaryReader: vector past end");
    }
    out->resize(len);
    if (len > 0) {
      std::memcpy(out->data(), data_ + pos_, len * sizeof(T));
      pos_ += len * sizeof(T);
    }
    return Status::OK();
  }

  /// Convenience for trusted in-process payloads: aborts on corruption
  /// instead of propagating (the simulated network cannot corrupt).
  template <typename T>
  T ReadOrDie() {
    T v{};
    TS_CHECK(Read(&v).ok());
    return v;
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// LEB128 varint append (compression of delta-encoded row ids).
inline void WriteVarint64(BinaryWriter* w, uint64_t v) {
  while (v >= 0x80) {
    w->Write<uint8_t>(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  w->Write<uint8_t>(static_cast<uint8_t>(v));
}

inline Status ReadVarint64(BinaryReader* r, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    uint8_t byte;
    TS_RETURN_IF_ERROR(r->Read(&byte));
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) return Status::Corruption("varint too long");
  }
  *out = v;
  return Status::OK();
}

}  // namespace treeserver

#endif  // TREESERVER_COMMON_SERIAL_H_
