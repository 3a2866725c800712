// LZ4-style LZ77 byte compressor. Frame layout:
//   varint raw_size
//   sequences until raw_size bytes are produced:
//     token byte: (literal_len << 4) | match_len_minus_4
//       nibble value 15 means "extended": extra bytes of 255 follow, then a
//       terminator byte < 255, all summed.
//     literal bytes
//     [if match_len nibble > 0 or extended] 2-byte LE offset (1..65535),
//       then extended match length bytes if the nibble was 15.
// The frame ends exactly at raw_size, either on a literal-only sequence
// (match nibble 0, no offset) or on a match: only a match's start is kept
// out of the last kMinMatch bytes, its extension runs to the end of the
// input. 64 bytes of 'a' compress to 40 1f 61 01 00 2c — one literal and a
// 63-byte match.
//
// Both directions work on raw pointers into buffers sized up front. The
// decoder bounds-checks every read against the frame and every write
// against raw_size; it never copies past the end of its output.

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "compress/codec.h"
#include "compress/codec_internal.h"
#include "util/coding.h"
#include "util/macros.h"
#include "util/thread_annotations.h"

namespace dl::compress {
namespace {

constexpr int kHashBits = 15;
constexpr size_t kHashSize = 1 << kHashBits;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
// The decoder copies short literals and far matches in fixed blocks of this
// many bytes where the block stays inside the frame and the output.
constexpr size_t kBlock = 16;

/// The compressor's match tables, shared by every thread. A table is
/// 128 KiB, exactly glibc's default mmap threshold, so one allocated per
/// call, or per fresh thread (a commit's flush helpers live for one call),
/// was mapped and unmapped each time at a cost that followed glibc's
/// dynamic threshold rather than this code. The free list is filled on
/// first use with one table per hardware thread, the most one fan-out
/// compresses at once; a caller that finds it empty allocates a table,
/// which then joins the list.
class MatchTables {
 public:
  static MatchTables& Global() {
    static MatchTables* tables = new MatchTables();  // leaky singleton
    return *tables;
  }

  std::unique_ptr<uint32_t[]> Take() {
    {
      MutexLock lock(mu_);
      if (!filled_) {
        filled_ = true;
        size_t n = std::max(1u, std::thread::hardware_concurrency());
        for (size_t i = 0; i < n; ++i) free_.push_back(NewTable());
      }
      if (!free_.empty()) {
        std::unique_ptr<uint32_t[]> table = std::move(free_.back());
        free_.pop_back();
        return table;
      }
    }
    return NewTable();
  }

  void Give(std::unique_ptr<uint32_t[]> table) {
    MutexLock lock(mu_);
    free_.push_back(std::move(table));
  }

 private:
  // Uninitialized: Lz77CompressAppend fills the table before each use.
  static std::unique_ptr<uint32_t[]> NewTable() {
    return std::make_unique_for_overwrite<uint32_t[]>(kHashSize);
  }

  Mutex mu_{"compress.lz77.tables_mu"};  // leaf
  bool filled_ DL_GUARDED_BY(mu_) = false;
  std::vector<std::unique_ptr<uint32_t[]>> free_ DL_GUARDED_BY(mu_);
};

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint32_t Hash4(const uint8_t* p) {
  return (Load32(p) * 2654435761u) >> (32 - kHashBits);
}

// Number of leading bytes at `a` and `b` that agree, comparing no further
// than `b_end` (a < b, so `a` stays in bounds too). Eight bytes at a time:
// the lowest set bit of the XOR names the first byte that differs.
size_t MatchLength(const uint8_t* a, const uint8_t* b, const uint8_t* b_end) {
  const uint8_t* const b_start = b;
  while (b_end - b >= 8) {
    uint64_t diff = Load64(a) ^ Load64(b);
    if (diff != 0) {
      int bits = std::endian::native == std::endian::little
                     ? std::countr_zero(diff)
                     : std::countl_zero(diff);
      return static_cast<size_t>(b - b_start) + static_cast<size_t>(bits / 8);
    }
    a += 8;
    b += 8;
  }
  while (b < b_end && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<size_t>(b - b_start);
}

// Writes the extension bytes for a nibble that was 15.
uint8_t* PutLen(uint8_t* op, size_t extra) {
  while (extra >= 255) {
    *op++ = 255;
    extra -= 255;
  }
  *op++ = static_cast<uint8_t>(extra);
  return op;
}

uint8_t* EmitSequence(uint8_t* op, const uint8_t* lit_start, size_t lit_len,
                      size_t match_len, size_t offset) {
  uint8_t lit_nibble = lit_len >= 15 ? 15 : static_cast<uint8_t>(lit_len);
  uint8_t match_nibble = 0;
  bool has_match = match_len >= kMinMatch;
  if (has_match) {
    size_t ml = match_len - kMinMatch;
    match_nibble = ml >= 15 ? 15 : static_cast<uint8_t>(ml);
  }
  *op++ = static_cast<uint8_t>((lit_nibble << 4) | match_nibble);
  if (lit_nibble == 15) op = PutLen(op, lit_len - 15);
  std::memcpy(op, lit_start, lit_len);
  op += lit_len;
  if (has_match) {
    *op++ = static_cast<uint8_t>(offset);
    *op++ = static_cast<uint8_t>(offset >> 8);
    if (match_nibble == 15) op = PutLen(op, match_len - kMinMatch - 15);
  }
  return op;
}

// Adds a length extension (bytes of 255, then a terminator below 255) to
// `len`. False if the frame ends first.
bool AddExtension(const uint8_t*& ip, const uint8_t* ip_end, size_t& len) {
  uint8_t b = 255;
  while (b == 255) {
    if (ip == ip_end) return false;
    b = *ip++;
    len += b;
  }
  return true;
}

class Lz77Codec final : public Codec {
 public:
  Compression id() const override { return Compression::kLz77; }
  std::string_view name() const override { return "lz77"; }

  Result<ByteBuffer> Compress(ByteView raw,
                              const CodecContext& /*ctx*/) const override {
    ByteBuffer out;
    Lz77CompressAppend(raw, out);
    return out;
  }

  Result<uint64_t> DeclaredSize(ByteView frame) const override {
    size_t header_len = 0;
    return Lz77DeclaredSize(frame, &header_len);
  }

  Status DecompressExact(ByteView frame,
                         std::span<uint8_t> out) const override {
    return Lz77DecompressExact(frame, out);
  }
};

}  // namespace

void Lz77CompressAppend(ByteView raw, ByteBuffer& out) {
  PutVarint64(out, raw.size());
  const uint8_t* base = raw.data();
  const size_t n = raw.size();
  if (n == 0) return;

  // Worst case: a sequence with a match is no longer than the bytes it
  // covers plus one extension byte per 255 literals, and the final literal
  // run adds a token and one more extension byte.
  const size_t start = out.size();
  out.resize(start + n + n / 255 + 16);
  uint8_t* op = out.data() + start;

  std::unique_ptr<uint32_t[]> owned = MatchTables::Global().Take();
  uint32_t* const table = owned.get();
  std::fill_n(table, kHashSize, UINT32_MAX);
  size_t i = 0;
  size_t anchor = 0;  // start of pending literals
  // A match may start no later than n - kMinMatch - 1; it then extends to
  // the end of the input if the bytes agree.
  const size_t match_limit = n >= kMinMatch ? n - kMinMatch : 0;
  while (i < match_limit) {
    uint32_t h = Hash4(base + i);
    uint32_t cand = table[h];
    table[h] = static_cast<uint32_t>(i);
    if (cand != UINT32_MAX && i - cand <= kMaxOffset &&
        Load32(base + cand) == Load32(base + i)) {
      size_t match_len =
          kMinMatch + MatchLength(base + cand + kMinMatch,
                                  base + i + kMinMatch, base + n);
      op = EmitSequence(op, base + anchor, i - anchor, match_len, i - cand);
      // Index a couple of positions inside the match to keep the table
      // warm without hashing every byte.
      size_t end = i + match_len;
      for (size_t p = i + 1; p + kMinMatch <= end && p + kMinMatch <= n;
           p += match_len / 4 + 1) {
        table[Hash4(base + p)] = static_cast<uint32_t>(p);
      }
      i = end;
      anchor = i;
    } else {
      ++i;
    }
  }
  // Trailing literals.
  if (anchor < n) {
    op = EmitSequence(op, base + anchor, n - anchor, 0, 0);
  }
  out.resize(static_cast<size_t>(op - out.data()));
  MatchTables::Global().Give(std::move(owned));
}

Result<uint64_t> Lz77DeclaredSize(ByteView frame, size_t* header_len) {
  Decoder dec{frame};
  DL_ASSIGN_OR_RETURN(uint64_t raw_size, dec.GetVarint64());
  // raw_size comes off the wire: sanity-bound it before anyone allocates
  // it. Each frame byte can contribute at most 255 output bytes (a match
  // length extension byte of 255), so anything beyond that ratio is a
  // corrupt header.
  if (raw_size > static_cast<uint64_t>(frame.size()) * 255 + 255) {
    return Status::Corruption("lz77: raw size implausible for frame");
  }
  *header_len = dec.position();
  return raw_size;
}

Status Lz77DecompressExact(ByteView frame, std::span<uint8_t> out) {
  size_t header_len = 0;
  DL_ASSIGN_OR_RETURN(uint64_t raw_size, Lz77DeclaredSize(frame, &header_len));
  DL_RETURN_IF_ERROR(CheckDeclaredSize("lz77", raw_size, out.size()));
  uint8_t* const out_start = out.data();
  uint8_t* op = out_start;
  uint8_t* const out_end = out_start + raw_size;
  const uint8_t* ip = frame.data() + header_len;
  const uint8_t* const ip_end = frame.data() + frame.size();
  while (op < out_end) {
    if (ip == ip_end) {
      return Status::Corruption("lz77: frame shorter than raw size");
    }
    const uint8_t token = *ip++;
    size_t lit_len = token >> 4;
    if (lit_len == 15 && !AddExtension(ip, ip_end, lit_len)) {
      return Status::Corruption("lz77: truncated literal length");
    }
    if (lit_len > static_cast<size_t>(ip_end - ip)) {
      return Status::Corruption("lz77: literals run past the frame");
    }
    if (lit_len > static_cast<size_t>(out_end - op)) {
      return Status::Corruption("lz77: literals overrun raw size");
    }
    if (lit_len <= kBlock && static_cast<size_t>(ip_end - ip) >= kBlock &&
        static_cast<size_t>(out_end - op) >= kBlock) {
      std::memcpy(op, ip, kBlock);  // the tail is rewritten by what follows
    } else {
      std::memcpy(op, ip, lit_len);
    }
    op += lit_len;
    ip += lit_len;
    if (op == out_end) break;  // final literal-only sequence
    if (ip_end - ip < 2) {
      return Status::Corruption("lz77: truncated match offset");
    }
    size_t offset = static_cast<size_t>(ip[0]) |
                    (static_cast<size_t>(ip[1]) << 8);
    ip += 2;
    size_t match_len = token & 0x0f;
    if (match_len == 15 && !AddExtension(ip, ip_end, match_len)) {
      return Status::Corruption("lz77: truncated match length");
    }
    match_len += kMinMatch;
    if (offset == 0 || offset > static_cast<size_t>(op - out_start)) {
      return Status::Corruption("lz77: bad match offset");
    }
    if (match_len > static_cast<size_t>(out_end - op)) {
      return Status::Corruption("lz77: match overruns raw size");
    }
    const uint8_t* match = op - offset;
    if (offset >= kBlock &&
        static_cast<size_t>(out_end - op) >= match_len + kBlock) {
      // Whole blocks: a block's source ends at least kBlock bytes back, so
      // it is already final. The last block's tail stays inside raw_size
      // and is rewritten by what follows.
      for (size_t k = 0; k < match_len; k += kBlock) {
        std::memcpy(op + k, match + k, kBlock);
      }
    } else if (offset >= match_len) {
      std::memcpy(op, match, match_len);
    } else {
      // Overlapping match: each byte may be one this copy just wrote.
      for (size_t k = 0; k < match_len; ++k) op[k] = match[k];
    }
    op += match_len;
  }
  return Status::OK();
}

const Codec* GetLz77Codec() {
  static const Lz77Codec* kCodec = new Lz77Codec();
  return kCodec;
}

}  // namespace dl::compress
