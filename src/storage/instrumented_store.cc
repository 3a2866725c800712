// InstrumentedStore: the observability decorator. Every operation is timed
// into a registry histogram, counted, and (when tracing is on) recorded as
// a `storage.<op>` span, so an epoch's storage behaviour is inspectable
// both statistically (percentiles) and on a timeline (chrome://tracing).

#include "obs/context.h"
#include "obs/trace.h"
#include "storage/storage.h"
#include "util/clock.h"

namespace dl::storage {

namespace {

// Per-job attribution (DESIGN.md §7): reads are charged to whichever job's
// context is installed on the calling thread. Unmetered threads (no
// ContextScope, or a context without a ResourceMeter) charge nothing.
void ChargeContextBytesRead(uint64_t n) {
  const obs::Context& context = obs::CurrentContext();
  if (context.meter != nullptr) context.meter->ChargeBytesRead(n);
}

}  // namespace

InstrumentedStore::InstrumentedStore(StoragePtr base, std::string layer)
    : ForwardingStore(std::move(base)), layer_(std::move(layer)) {
  if (layer_.empty()) layer_ = base_->name();
  get_ = MakeOp("get");
  get_range_ = MakeOp("get_range");
  put_ = MakeOp("put");
  delete_ = MakeOp("delete");
  exists_ = MakeOp("exists");
  size_of_ = MakeOp("size_of");
  list_ = MakeOp("list");
  auto& registry = obs::MetricsRegistry::Global();
  bytes_read_ = registry.GetCounter("storage.bytes_read", {{"store", layer_}});
  bytes_written_ =
      registry.GetCounter("storage.bytes_written", {{"store", layer_}});
}

InstrumentedStore::OpInstruments InstrumentedStore::MakeOp(
    const char* op) const {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Labels labels = {{"op", op}, {"store", layer_}};
  return OpInstruments{
      registry.GetHistogram("storage.op_us", labels),
      registry.GetCounter("storage.ops", labels),
      registry.GetCounter("storage.errors", labels),
  };
}

// Times `expr` into `ins`, spans it, and leaves its value in `result`.
// A macro (not a template) so Status- and Result<T>-returning operations
// share one definition without wrapping ops in lambdas at every site.
#define DL_INSTRUMENTED_OP(ins, span_name, expr)                       \
  obs::ScopedSpan span(span_name, "storage");                          \
  int64_t start_us = NowMicros();                                      \
  auto result = (expr);                                                \
  (ins).latency_us->ObserveSinceMicros(start_us);                      \
  (ins).ops->Increment();                                              \
  if (!StatusOf(result).ok()) (ins).errors->Increment();

Result<Slice> InstrumentedStore::Get(std::string_view key) {
  DL_INSTRUMENTED_OP(get_, "storage.get", base_->Get(key));
  if (result.ok()) {
    uint64_t n = result.value().size();
    bytes_read_->Add(n);
    ChargeContextBytesRead(n);
  }
  return result;
}

Result<Slice> InstrumentedStore::GetRange(std::string_view key,
                                               uint64_t offset,
                                               uint64_t length) {
  DL_INSTRUMENTED_OP(get_range_, "storage.get_range",
                     base_->GetRange(key, offset, length));
  if (result.ok()) {
    uint64_t n = result.value().size();
    bytes_read_->Add(n);
    ChargeContextBytesRead(n);
  }
  return result;
}

Status InstrumentedStore::Put(std::string_view key, ByteView value) {
  DL_INSTRUMENTED_OP(put_, "storage.put", base_->Put(key, value));
  if (result.ok()) bytes_written_->Add(value.size());
  return result;
}

Status InstrumentedStore::PutDurable(std::string_view key, ByteView value) {
  DL_INSTRUMENTED_OP(put_, "storage.put_durable",
                     base_->PutDurable(key, value));
  if (result.ok()) bytes_written_->Add(value.size());
  return result;
}

Status InstrumentedStore::Delete(std::string_view key) {
  DL_INSTRUMENTED_OP(delete_, "storage.delete", base_->Delete(key));
  return result;
}

Result<bool> InstrumentedStore::Exists(std::string_view key) {
  DL_INSTRUMENTED_OP(exists_, "storage.exists", base_->Exists(key));
  return result;
}

Result<uint64_t> InstrumentedStore::SizeOf(std::string_view key) {
  DL_INSTRUMENTED_OP(size_of_, "storage.size_of", base_->SizeOf(key));
  return result;
}

Result<std::vector<std::string>> InstrumentedStore::ListPrefix(
    std::string_view prefix) {
  DL_INSTRUMENTED_OP(list_, "storage.list", base_->ListPrefix(prefix));
  return result;
}

#undef DL_INSTRUMENTED_OP

}  // namespace dl::storage
