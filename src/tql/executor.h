#ifndef DEEPLAKE_TQL_EXECUTOR_H_
#define DEEPLAKE_TQL_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/context.h"
#include "tql/ast.h"
#include "tsf/dataset.h"
#include "util/json.h"

namespace dl::tql {

/// Per-row evaluation context: resolves column references against one row
/// of a dataset and caches loaded cells (a WHERE and an ORDER BY touching
/// the same tensor fetch it once).
class EvalContext {
 public:
  /// I/O accounting shared across the contexts of one execution stage —
  /// feeds the per-operator bytes_read / cache_hits of EXPLAIN ANALYZE.
  struct IoStats {
    uint64_t bytes_loaded = 0;  // sample bytes those reads returned
    uint64_t cache_hits = 0;    // column refs served from the row cache
  };

  EvalContext(tsf::Dataset* dataset, uint64_t row, IoStats* io = nullptr)
      : dataset_(dataset), row_(row), io_(io) {}

  uint64_t row() const { return row_; }

  /// Binds an additional (alias, dataset, row) for JOIN evaluation:
  /// column references "alias/tensor" resolve against it.
  void Bind(const std::string& alias, tsf::Dataset* dataset, uint64_t row) {
    bindings_[alias] = {dataset, row};
  }

  /// Value of tensor `name` at this row. Text htypes load as strings,
  /// everything else as numeric arrays; empty cells are null. Qualified
  /// names ("alias/tensor") resolve through JOIN bindings first, then
  /// fall back to grouped-tensor paths on the primary dataset.
  Result<Value> Column(const std::string& name);

  /// Shape of tensor `name` at this row, resolved like Column() but read
  /// from the shape encoder, without loading the sample.
  Result<tsf::TensorShape> ColumnShape(const std::string& name) const;

  /// True when Column(name) would find a tensor: the same resolution,
  /// without reading a row (query validation).
  bool HasColumn(const std::string& name) const;

 private:
  using Binding = std::pair<tsf::Dataset*, uint64_t>;

  /// The JOIN binding a qualified "alias/tensor" name reads from, with
  /// `*tensor` set to the unqualified name; null when `name` reads the
  /// primary dataset.
  const Binding* Bound(const std::string& name, std::string* tensor) const;
  Result<Value> Load(tsf::Dataset* dataset, uint64_t row,
                     const std::string& tensor);

  tsf::Dataset* dataset_;
  uint64_t row_;
  IoStats* io_ = nullptr;
  std::map<std::string, Binding> bindings_;
  std::map<std::string, Value> cache_;
};

/// One operator in an EXPLAIN / EXPLAIN ANALYZE pipeline, in execution
/// order (upstream first). Counters are zero for plain EXPLAIN (nothing
/// ran) and populated by EXPLAIN ANALYZE.
struct OperatorProfile {
  std::string op;      // "plan", "filter", "sort", "limit", ...
  std::string detail;  // rendered expression / parameters
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  int64_t wall_us = 0;
  uint64_t bytes_read = 0;   // sample bytes loaded from tensors
  uint64_t cache_hits = 0;   // column refs served from the row cache
};

/// Full profile of one query: the operator pipeline plus end-to-end
/// timings. Produced by EXPLAIN [ANALYZE] or by QueryOptions::profile;
/// attached to the returned DatasetView either way.
struct QueryProfile {
  std::string query;      // original text when it came through RunQuery
  bool analyzed = false;  // true = operators carry measured counters
  int64_t parse_us = 0;
  int64_t total_us = 0;   // ExecuteQuery wall time
  std::vector<OperatorProfile> operators;

  /// Human-readable pipeline, one "-> op (detail) [counters]" line per
  /// operator under a header line (DESIGN.md §7 shows the format).
  std::string ToTreeString() const;
  /// {"query","analyzed","parse_us","total_us","operators":[{...}]}
  Json ToJson() const;
  /// parse_us + sum of operator wall times — the accounted-for share of
  /// RunQuery's wall clock.
  int64_t OperatorWallSumUs() const;
};

/// Evaluates an expression for one row.
Result<Value> Evaluate(const Expr& expr, EvalContext& ctx);

/// The result of a query: an ordered selection of rows over a dataset plus
/// a projection (paper §4.4 "constructs views of datasets, which can be
/// visualized or directly streamed"). Views are lazy — projected cells are
/// computed on access. JOIN and GROUP BY queries produce a *computed* view
/// whose rows live in memory.
class DatasetView {
 public:
  /// Row-backed view.
  DatasetView(std::shared_ptr<tsf::Dataset> dataset,
              std::vector<uint64_t> indices, std::vector<SelectItem> select,
              bool selects_all);
  /// Computed (JOIN / GROUP BY) view.
  DatasetView(std::vector<std::string> columns,
              std::vector<std::vector<Value>> rows);

  bool computed() const { return computed_; }
  uint64_t size() const {
    return computed_ ? rows_.size() : indices_.size();
  }
  /// Output column names in declaration order.
  const std::vector<std::string>& columns() const { return columns_; }

  /// Underlying dataset row index of view row `i` (row-backed views only).
  uint64_t source_row(size_t i) const { return indices_[i]; }
  /// Projection items (empty for SELECT *).
  const std::vector<SelectItem>& select_items() const { return select_; }
  bool selects_all() const { return selects_all_; }
  const std::vector<uint64_t>& indices() const { return indices_; }
  std::shared_ptr<tsf::Dataset> dataset() const { return dataset_; }

  /// Evaluates the cell at (view row, column).
  Result<Value> Cell(size_t view_row, const std::string& column);

  /// Cell as a typed storage sample: passthrough columns keep the source
  /// tensor's bytes and dtype; computed columns convert from the value.
  Result<tsf::Sample> CellSample(size_t view_row, const std::string& column);

  /// True when this view selects a strict subset / reordering of rows —
  /// the "sparse view" whose streaming is less efficient (§4.4/§4.5).
  bool IsSparseOver(uint64_t dataset_rows) const;

  /// Execution profile, when the query was profiled (EXPLAIN [ANALYZE] or
  /// QueryOptions::profile); null otherwise.
  std::shared_ptr<const QueryProfile> profile() const { return profile_; }
  void AttachProfile(std::shared_ptr<const QueryProfile> profile) {
    profile_ = std::move(profile);
  }

  /// Snapshot isolation (DESIGN.md §12): the commit this view's dataset is
  /// pinned at, recorded by DeepLake::QueryAt / At. Empty for views over a
  /// live working dataset. A pinned view never observes concurrently
  /// published commits — its dataset reads through the immutable chain of
  /// the pinned commit.
  const std::string& pinned_commit() const { return pinned_commit_; }
  void PinAtCommit(std::string commit_id) {
    pinned_commit_ = std::move(commit_id);
  }

 private:
  const SelectItem* FindItem(const std::string& column) const;

  bool computed_ = false;
  std::shared_ptr<tsf::Dataset> dataset_;
  std::vector<uint64_t> indices_;
  std::vector<SelectItem> select_;
  bool selects_all_ = true;
  std::vector<std::string> columns_;
  std::vector<std::vector<Value>> rows_;  // computed views
  std::shared_ptr<const QueryProfile> profile_;
  std::string pinned_commit_;
};

struct QueryOptions {
  /// Resolves `FROM ds VERSION '<commit>'` to a dataset pinned at that
  /// version; unset => version queries fail with NotImplemented.
  std::function<Result<std::shared_ptr<tsf::Dataset>>(
      const std::string& version)>
      version_resolver;
  /// Named datasets for FROM/JOIN resolution (paper §7.3 join extension).
  /// The FROM name falls back to the dataset passed to RunQuery when not
  /// registered here; JOIN names must be registered.
  std::map<std::string, std::shared_ptr<tsf::Dataset>> datasets;
  /// When set, execution fills this with a per-operator profile even
  /// without an EXPLAIN prefix — the programmatic way to profile a query
  /// while still getting its result rows.
  QueryProfile* profile = nullptr;
  /// Trace context of the owning job (DESIGN.md §7): installed for the
  /// query's parse + execute, so tql.* spans and the storage spans beneath
  /// them share one trace id and carry the job's tenant label.
  obs::Context context;
};

/// Parses and executes a query against `dataset`.
Result<DatasetView> RunQuery(std::shared_ptr<tsf::Dataset> dataset,
                             const std::string& query_text,
                             const QueryOptions& options = {});

/// Executes an already-parsed query.
Result<DatasetView> ExecuteQuery(std::shared_ptr<tsf::Dataset> dataset,
                                 const Query& query,
                                 const QueryOptions& options = {});

/// Copies a view into a fresh dataset laid out in optimal chunk order —
/// the §4.5 materialization step that turns a sparse view into a dense,
/// streamable dataset.
Result<std::shared_ptr<tsf::Dataset>> MaterializeView(
    DatasetView& view, storage::StoragePtr target);

}  // namespace dl::tql

#endif  // DEEPLAKE_TQL_EXECUTOR_H_
