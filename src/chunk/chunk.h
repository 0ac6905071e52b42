// Chunk: the basic unit of storage in ForkBase (Section 4.2).
//
// A chunk is a typed, immutable block of bytes, uniquely identified by its
// cid = H(type byte || payload). Chunk types correspond to the chunkable
// data types plus Meta (FObject) and the two index-node kinds.

#ifndef FORKBASE_CHUNK_CHUNK_H_
#define FORKBASE_CHUNK_CHUNK_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/sha256.h"
#include "util/slice.h"

namespace fb {

// Chunk types (Table 2 of the paper).
enum class ChunkType : uint8_t {
  kMeta = 0,    // metadata for an FObject
  kUIndex = 1,  // index entries for unsorted types (Blob, List)
  kSIndex = 2,  // index entries for sorted types (Set, Map)
  kBlob = 3,    // a sequence of raw bytes
  kList = 4,    // a sequence of elements
  kSet = 5,     // a sequence of sorted elements
  kMap = 6,     // a sequence of sorted key-value pairs
};

const char* ChunkTypeToString(ChunkType type);

// 32-byte content id. A cid commits to a chunk's exact bytes; a Meta
// chunk's cid doubles as the FObject's uid.
class Hash {
 public:
  static constexpr size_t kSize = Sha256::kDigestSize;

  Hash() { bytes_.fill(0); }
  explicit Hash(const Sha256::Digest& d) : bytes_(d) {}

  // Computes H(data) — the canonical chunk-id function.
  static Hash Of(Slice data) { return Hash(Sha256::Hash(data)); }

  // Parses a 64-char hex string; returns the null hash on malformed input.
  static Hash FromHex(std::string_view hex);

  // The all-zero hash, used as "no parent" / "empty" sentinel.
  static const Hash& Null();

  bool IsNull() const { return *this == Null(); }

  const uint8_t* data() const { return bytes_.data(); }
  size_t size() const { return bytes_.size(); }
  Slice slice() const { return Slice(bytes_.data(), bytes_.size()); }

  std::string ToHex() const { return HexEncode(slice()); }
  // Short prefix for logs.
  std::string ToShortHex() const { return ToHex().substr(0, 8); }

  // Low 64 bits as an integer; used by the index-node pattern P' and by
  // the cid-based chunk partitioner.
  uint64_t Low64() const {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(bytes_[i]) << (8 * i);
    return v;
  }

  // Bytes 8..15 as an integer. MemChunkStore stripes on this slice so
  // shard choice stays independent of the Low64-based pool partition.
  uint64_t Mid64() const {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(bytes_[8 + i]) << (8 * i);
    }
    return v;
  }

  bool operator==(const Hash& o) const { return bytes_ == o.bytes_; }
  bool operator!=(const Hash& o) const { return bytes_ != o.bytes_; }
  bool operator<(const Hash& o) const { return bytes_ < o.bytes_; }

 private:
  std::array<uint8_t, kSize> bytes_;
};

struct HashHasher {
  size_t operator()(const Hash& h) const {
    return static_cast<size_t>(h.Low64());
  }
};

// An immutable typed byte block. The serialized form is
//   [1-byte type][payload...]
// and cid = SHA-256 over exactly those bytes.
class Chunk {
 public:
  Chunk() : type_(ChunkType::kBlob) {}
  Chunk(ChunkType type, Bytes payload)
      : type_(type), payload_(std::move(payload)) {}

  ChunkType type() const { return type_; }
  Slice payload() const { return Slice(payload_); }
  size_t payload_size() const { return payload_.size(); }
  // Total serialized size including the type byte.
  size_t serialized_size() const { return payload_.size() + 1; }

  // Serializes to [type][payload].
  Bytes Serialize() const;

  // Parses a serialized chunk. Returns false on empty input.
  static bool Deserialize(Slice data, Chunk* out);

  // cid over the serialized bytes.
  Hash ComputeCid() const;

 private:
  ChunkType type_;
  Bytes payload_;
};

// A batch of (cid, chunk) pairs for the bulk write path.
using ChunkBatch = std::vector<std::pair<Hash, Chunk>>;

}  // namespace fb

namespace std {
template <>
struct hash<fb::Hash> {
  size_t operator()(const fb::Hash& h) const {
    return static_cast<size_t>(h.Low64());
  }
};
}  // namespace std

#endif  // FORKBASE_CHUNK_CHUNK_H_
