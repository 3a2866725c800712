#include <algorithm>

#include "storage/storage.h"

namespace dl::storage {

Result<Slice> MemoryStore::Get(std::string_view key) {
  MutexLock lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return Status::NotFound("memory: no object '" + std::string(key) + "'");
  }
  return Slice(it->second);  // refcount bump, no byte copy
}

Result<Slice> MemoryStore::GetRange(std::string_view key, uint64_t offset,
                                    uint64_t length) {
  MutexLock lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return Status::NotFound("memory: no object '" + std::string(key) + "'");
  }
  if (offset > it->second->size()) {
    return Status::OutOfRange("memory: range start past object end");
  }
  return Slice(it->second).subslice(offset, length);
}

Status MemoryStore::Put(std::string_view key, ByteView value) {
  MutexLock lock(mu_);
  // dllint-ok(hot-path-copy): fresh buffer per Put — replacing a key must
  // not mutate bytes
  // that outstanding slices of the old value still view, and the caller's
  // ByteView is not ours to keep.
  objects_[std::string(key)] = std::make_shared<Buffer>(value.ToBuffer());
  return Status::OK();
}

Status MemoryStore::Delete(std::string_view key) {
  MutexLock lock(mu_);
  auto it = objects_.find(key);
  if (it != objects_.end()) objects_.erase(it);
  return Status::OK();
}

Result<bool> MemoryStore::Exists(std::string_view key) {
  MutexLock lock(mu_);
  return objects_.find(key) != objects_.end();
}

Result<uint64_t> MemoryStore::SizeOf(std::string_view key) {
  MutexLock lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return Status::NotFound("memory: no object '" + std::string(key) + "'");
  }
  return static_cast<uint64_t>(it->second->size());
}

Result<std::vector<std::string>> MemoryStore::ListPrefix(
    std::string_view prefix) {
  MutexLock lock(mu_);
  std::vector<std::string> keys;
  for (auto it = objects_.lower_bound(prefix); it != objects_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    keys.push_back(it->first);
  }
  return keys;
}

uint64_t MemoryStore::TotalBytes() const {
  MutexLock lock(mu_);
  uint64_t total = 0;
  for (const auto& [k, v] : objects_) total += v->size();
  return total;
}

}  // namespace dl::storage
