#include "baselines/tar.h"

#include <cstdio>
#include <cstring>

namespace dl::baselines {

namespace {
constexpr size_t kBlock = 512;

/// Writes `value` as width - 1 zero-padded octal digits plus a NUL. False
/// when it needs more digits than that.
bool PutOctal(char* field, size_t width, uint64_t value) {
  field[width - 1] = '\0';
  for (size_t i = width - 1; i-- > 0; value >>= 3) {
    field[i] = static_cast<char>('0' + (value & 7));
  }
  return value == 0;
}
}  // namespace

Status TarBuilder::AddFile(const std::string& name, ByteView contents) {
  char header[kBlock];
  std::memset(header, 0, sizeof(header));
  if (!PutOctal(header + 124, 12, contents.size())) {  // size
    return Status::InvalidArgument(
        "tar: '" + name + "' (" + std::to_string(contents.size()) +
        " bytes) does not fit the 11 octal digits of a ustar size field");
  }
  std::snprintf(header + 0, 100, "%s", name.c_str());      // name
  PutOctal(header + 100, 8, 0644);                          // mode
  PutOctal(header + 108, 8, 0);                             // uid
  PutOctal(header + 116, 8, 0);                             // gid
  PutOctal(header + 136, 12, 0);                            // mtime
  std::memset(header + 148, ' ', 8);                        // checksum space
  header[156] = '0';                                        // typeflag file
  std::memcpy(header + 257, "ustar", 6);                    // magic
  std::memcpy(header + 263, "00", 2);                       // version
  unsigned checksum = 0;
  for (size_t i = 0; i < kBlock; ++i) {
    checksum += static_cast<unsigned char>(header[i]);
  }
  PutOctal(header + 148, 7, checksum);
  header[155] = ' ';

  buffer_.insert(buffer_.end(), header, header + kBlock);
  AppendBytes(buffer_, contents);
  size_t pad = (kBlock - contents.size() % kBlock) % kBlock;
  buffer_.insert(buffer_.end(), pad, 0);
  return Status::OK();
}

ByteBuffer TarBuilder::Finish() {
  buffer_.insert(buffer_.end(), 2 * kBlock, 0);
  ByteBuffer out;
  out.swap(buffer_);
  return out;
}

Result<std::vector<TarEntry>> ParseTar(ByteView archive) {
  std::vector<TarEntry> entries;
  size_t pos = 0;
  while (pos + kBlock <= archive.size()) {
    const uint8_t* header = archive.data() + pos;
    if (header[0] == 0) break;  // terminating zero block
    char name[101];
    std::memcpy(name, header, 100);
    name[100] = 0;
    char size_field[13];
    std::memcpy(size_field, header + 124, 12);
    size_field[12] = 0;
    uint64_t size = std::strtoull(size_field, nullptr, 8);
    // Verify the header checksum.
    unsigned stored = static_cast<unsigned>(
        std::strtoul(reinterpret_cast<const char*>(header) + 148, nullptr,
                     8));
    unsigned computed = 0;
    for (size_t i = 0; i < kBlock; ++i) {
      computed += (i >= 148 && i < 156)
                      ? ' '
                      : static_cast<unsigned char>(header[i]);
    }
    if (stored != computed) {
      return Status::Corruption("tar: header checksum mismatch at offset " +
                                std::to_string(pos));
    }
    pos += kBlock;
    if (pos + size > archive.size()) {
      return Status::Corruption("tar: truncated entry '" +
                                std::string(name) + "'");
    }
    TarEntry entry;
    entry.name = name;
    entry.contents = archive.subview(pos, size).ToBuffer();
    entries.push_back(std::move(entry));
    pos += size + (kBlock - size % kBlock) % kBlock;
  }
  return entries;
}

}  // namespace dl::baselines
