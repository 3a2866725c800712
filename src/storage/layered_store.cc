// ForwardingStore and the decorators built on it here: PrefixStore,
// LruCacheStore and FaultInjectionStore (paper §3.6 "constructs memory
// caching by chaining various storage providers together").

#include <algorithm>

#include "storage/storage.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace dl::storage {

// ---------------------------------------------------------------------------
// ForwardingStore
// ---------------------------------------------------------------------------

Result<Slice> ForwardingStore::Get(std::string_view key) {
  DL_RETURN_IF_ERROR(Admit(kFaultGet));
  return base_->Get(key);
}

Result<Slice> ForwardingStore::GetRange(std::string_view key, uint64_t offset,
                                        uint64_t length) {
  DL_RETURN_IF_ERROR(Admit(kFaultGetRange));
  return base_->GetRange(key, offset, length);
}

Status ForwardingStore::Put(std::string_view key, ByteView value) {
  DL_RETURN_IF_ERROR(Admit(kFaultPut));
  return base_->Put(key, value);
}

Status ForwardingStore::PutDurable(std::string_view key, ByteView value) {
  DL_RETURN_IF_ERROR(Admit(kFaultPut));
  return base_->PutDurable(key, value);
}

Status ForwardingStore::Delete(std::string_view key) {
  DL_RETURN_IF_ERROR(Admit(kFaultDelete));
  return base_->Delete(key);
}

Result<bool> ForwardingStore::Exists(std::string_view key) {
  DL_RETURN_IF_ERROR(Admit(kFaultExists));
  return base_->Exists(key);
}

Result<uint64_t> ForwardingStore::SizeOf(std::string_view key) {
  DL_RETURN_IF_ERROR(Admit(kFaultSizeOf));
  return base_->SizeOf(key);
}

Result<std::vector<std::string>> ForwardingStore::ListPrefix(
    std::string_view prefix) {
  DL_RETURN_IF_ERROR(Admit(kFaultList));
  return base_->ListPrefix(prefix);
}

// ---------------------------------------------------------------------------
// PrefixStore
// ---------------------------------------------------------------------------

PrefixStore::PrefixStore(StoragePtr base, std::string prefix)
    : ForwardingStore(std::move(base)), prefix_(std::move(prefix)) {}

std::string PrefixStore::Full(std::string_view key) const {
  return PathJoin(prefix_, key);
}

Result<Slice> PrefixStore::Get(std::string_view key) {
  return base_->Get(Full(key));
}

Result<Slice> PrefixStore::GetRange(std::string_view key, uint64_t offset,
                                    uint64_t length) {
  return base_->GetRange(Full(key), offset, length);
}

Status PrefixStore::Put(std::string_view key, ByteView value) {
  return base_->Put(Full(key), value);
}

Status PrefixStore::PutDurable(std::string_view key, ByteView value) {
  return base_->PutDurable(Full(key), value);
}

void PrefixStore::Invalidate(std::string_view key) {
  base_->Invalidate(Full(key));
}

Status PrefixStore::Delete(std::string_view key) {
  return base_->Delete(Full(key));
}

Result<bool> PrefixStore::Exists(std::string_view key) {
  return base_->Exists(Full(key));
}

Result<uint64_t> PrefixStore::SizeOf(std::string_view key) {
  return base_->SizeOf(Full(key));
}

Result<std::vector<std::string>> PrefixStore::ListPrefix(
    std::string_view prefix) {
  DL_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                      base_->ListPrefix(Full(prefix)));
  // Strip our namespace so callers see keys relative to this store.
  std::string ns = prefix_;
  if (!ns.empty() && ns.back() != '/') ns += '/';
  std::vector<std::string> out;
  out.reserve(keys.size());
  for (auto& k : keys) {
    if (StartsWith(k, ns)) out.push_back(k.substr(ns.size()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// LruCacheStore
// ---------------------------------------------------------------------------

bool LruCacheStore::Shadow::Access(const std::string& key, uint64_t size) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ = bytes_ - it->second->second + size;  // a Put may have resized it
    it->second->second = size;
    order_.splice(order_.begin(), order_, it->second);
    Trim();
    return true;
  }
  if (size > capacity_bytes_ ||
      (free_room_only_ && bytes_ + size > capacity_bytes_)) {
    return false;
  }
  order_.emplace_front(key, size);
  index_.emplace(key, order_.begin());
  bytes_ += size;
  Trim();
  return false;
}

void LruCacheStore::Shadow::Erase(std::string_view key) {
  auto it = index_.find(key);
  if (it == index_.end()) return;
  bytes_ -= it->second->second;
  order_.erase(it->second);
  index_.erase(it);
}

void LruCacheStore::Shadow::Trim() {
  while (bytes_ > capacity_bytes_) {
    bytes_ -= order_.back().second;
    index_.erase(order_.back().first);
    order_.pop_back();
  }
}

LruCacheStore::LruCacheStore(StoragePtr base, uint64_t capacity_bytes)
    : ForwardingStore(std::move(base)),
      capacity_bytes_(capacity_bytes),
      lru_shadow_(capacity_bytes, /*free_room_only=*/false),
      free_room_shadow_(capacity_bytes, /*free_room_only=*/true) {
  // Per-instance label: counters are registry-global and live forever, so
  // sharing one label across caches (or across tests in one binary) would
  // silently aggregate counts the accessors promise are per-cache.
  static std::atomic<uint64_t> next_id{0};
  std::string id = "lru#" + std::to_string(next_id.fetch_add(1)) + "(" +
                   base_->name() + ")";
  auto& registry = obs::MetricsRegistry::Global();
  hits_ = registry.GetCounter("storage.lru.hits", {{"cache", id}});
  misses_ = registry.GetCounter("storage.lru.misses", {{"cache", id}});
  hit_bytes_ = registry.GetCounter("storage.lru.hit_bytes", {{"cache", id}});
  miss_bytes_ = registry.GetCounter("storage.lru.miss_bytes", {{"cache", id}});
  declined_fills_ =
      registry.GetCounter("storage.lru.declined_fills", {{"cache", id}});
  range_bypasses_ =
      registry.GetCounter("storage.lru.range_bypasses", {{"cache", id}});
  bytes_gauge_ =
      registry.GetGauge("storage.lru.cached_bytes", {{"cache", id}});
  fill_policy_ = registry.GetGauge("storage.lru.fill_policy", {{"cache", id}});
}

void LruCacheStore::Touch(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  lru_.erase(it->second.lru_it);
  lru_.push_front(key);
  it->second.lru_it = lru_.begin();
}

void LruCacheStore::Insert(const std::string& key, SharedBuffer value) {
  if (value == nullptr || value->size() > capacity_bytes_) {
    return;  // never cache oversize blobs
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    current_bytes_ -= it->second.value->size();
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
  }
  lru_.push_front(key);
  current_bytes_ += value->size();
  entries_[key] = Entry{std::move(value), lru_.begin()};
  EvictIfNeeded();
  bytes_gauge_->Set(static_cast<double>(current_bytes_));
}

void LruCacheStore::EvictIfNeeded() {
  while (current_bytes_ > capacity_bytes_ && !lru_.empty()) {
    const std::string& victim = lru_.back();
    auto it = entries_.find(victim);
    current_bytes_ -= it->second.value->size();
    entries_.erase(it);
    lru_.pop_back();
  }
}

void LruCacheStore::Duel(const std::string& key, uint64_t size) {
  bool lru_hit = lru_shadow_.Access(key, size);
  bool free_room_hit = free_room_shadow_.Access(key, size);
  if (lru_hit == free_room_hit) return;
  selector_ = std::clamp(selector_ + (free_room_hit ? 1 : -1), -kSelectorLimit,
                         kSelectorLimit);
  fill_policy_->Set(selector_ > 0 ? 1 : 0);
}

void LruCacheStore::NoteWrite(std::string_view key) {
  auto it = pending_.find(key);
  if (it != pending_.end()) ++it->second.writes;
}

void LruCacheStore::Fill(const std::string& key, SharedBuffer value) {
  // The shadows replay the read first, so the rule that decides this fill
  // has already counted it.
  Duel(key, value->size());
  if (selector_ > 0 && value->size() <= capacity_bytes_ &&
      current_bytes_ + value->size() > capacity_bytes_) {
    declined_fills_->Increment();
    return;
  }
  Insert(key, std::move(value));
}

Result<Slice> LruCacheStore::Get(std::string_view key) {
  uint64_t writes_seen = 0;
  {
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_->Increment();
      hit_bytes_->Add(it->second.value->size());
      Touch(it->first);
      Duel(it->first, it->second.value->size());
      // Zero-copy hit: the slice shares the entry's buffer, so eviction
      // while the caller still holds it only drops the cache's reference.
      return Slice(it->second.value);
    }
    PendingFill& pending = pending_.try_emplace(std::string(key)).first->second;
    ++pending.readers;
    writes_seen = pending.writes;
  }
  misses_->Increment();
  Result<Slice> got = base_->Get(key);
  SharedBuffer to_cache;
  if (got.ok()) {
    miss_bytes_->Add(got->size());
    // dllint-ok(hot-path-copy): only whole-buffer reads are safe to pin —
    // a window of a larger buffer (or a borrowed view) must be copied
    // before caching, else the cache pins the whole backing object, or
    // dangles. Whole-buffer reads (the common case) take the zero-copy arm.
    to_cache = (got->owner() != nullptr && got->size() == got->owner()->size())
                   ? got->owner()
                   : Buffer::CopyOf(*got);
  }
  MutexLock lock(mu_);
  auto pending = pending_.find(key);
  if (to_cache != nullptr && pending->second.writes == writes_seen) {
    Fill(pending->first, std::move(to_cache));
  }
  if (--pending->second.readers == 0) pending_.erase(pending);
  return got;
}

Result<Slice> LruCacheStore::GetRange(std::string_view key, uint64_t offset,
                                      uint64_t length) {
  {
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_->Increment();
      Touch(it->first);
      if (offset > it->second.value->size()) {
        return Status::OutOfRange("lru: range start past object end");
      }
      // Resident object: serve the range as a subslice of the cached
      // buffer — zero copies, zero backend I/O (the cached-range regression
      // test in tests/storage_test.cc pins this down).
      Slice range = Slice(it->second.value).subslice(offset, length);
      hit_bytes_->Add(range.size());
      return range;
    }
  }
  // Range requests bypass cache fill: caching partial objects under the full
  // key would corrupt later full reads. Not a miss — the cache never
  // intended to serve this; tracked separately so bench miss rates stay
  // honest.
  range_bypasses_->Increment();
  return base_->GetRange(key, offset, length);
}

Status LruCacheStore::Put(std::string_view key, ByteView value) {
  DL_RETURN_IF_ERROR(base_->Put(key, value));
  // dllint-ok(hot-path-copy): write path — the caller's ByteView is not
  // ours to keep, and
  // the cache entry must own its bytes to hand out slices later.
  SharedBuffer copy = Buffer::CopyOf(value);
  MutexLock lock(mu_);
  NoteWrite(key);
  Insert(std::string(key), std::move(copy));
  return Status::OK();
}

Status LruCacheStore::PutDurable(std::string_view key, ByteView value) {
  DL_RETURN_IF_ERROR(base_->PutDurable(key, value));
  // dllint-ok(hot-path-copy): write path, same ownership argument as Put
  // above.
  SharedBuffer copy = Buffer::CopyOf(value);
  MutexLock lock(mu_);
  NoteWrite(key);
  Insert(std::string(key), std::move(copy));
  return Status::OK();
}

void LruCacheStore::Erase(std::string_view key) {
  MutexLock lock(mu_);
  NoteWrite(key);
  lru_shadow_.Erase(key);
  free_room_shadow_.Erase(key);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  current_bytes_ -= it->second.value->size();
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  bytes_gauge_->Set(static_cast<double>(current_bytes_));
}

// Both forward first and erase after: a miss that read the old bytes while
// the base changed then finds its fill marked stale by the erase.
void LruCacheStore::Invalidate(std::string_view key) {
  base_->Invalidate(key);
  Erase(key);
}

Status LruCacheStore::Delete(std::string_view key) {
  Status status = base_->Delete(key);
  Erase(key);
  return status;
}

Result<bool> LruCacheStore::Exists(std::string_view key) {
  {
    MutexLock lock(mu_);
    if (entries_.find(key) != entries_.end()) return true;
  }
  return base_->Exists(key);
}

Result<uint64_t> LruCacheStore::SizeOf(std::string_view key) {
  {
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      return static_cast<uint64_t>(it->second.value->size());
    }
  }
  return base_->SizeOf(key);
}

uint64_t LruCacheStore::cached_bytes() const {
  MutexLock lock(mu_);
  return current_bytes_;
}

// ---------------------------------------------------------------------------
// FaultInjectionStore
// ---------------------------------------------------------------------------

FaultInjectionStore::FaultInjectionStore(StoragePtr base, uint64_t fail_every,
                                         uint32_t op_mask)
    : ForwardingStore(std::move(base)),
      fail_every_(fail_every == 0 ? 1 : fail_every),
      op_mask_(op_mask) {}

Status FaultInjectionStore::Admit(FaultOp op) {
  if ((op_mask_ & op) == 0) return Status::OK();
  uint64_t n = ++op_count_;
  if (n % fail_every_ == 0) {
    return Status::IOError("injected fault on operation " +
                           std::to_string(n));
  }
  return Status::OK();
}

}  // namespace dl::storage
