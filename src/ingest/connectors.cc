#include "ingest/connectors.h"

#include <cstdlib>

#include "compress/codec.h"
#include "util/json.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace dl::ingest {

namespace {

/// Splits one CSV record honoring double-quoted fields.
std::vector<std::string> SplitCsvLine(std::string_view line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else if (c != '\r') {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

bool ParsesAsNumber(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

Result<CsvConnector> CsvConnector::Open(storage::StoragePtr store,
                                        const std::string& key) {
  DL_ASSIGN_OR_RETURN(Slice bytes, store->Get(key));
  std::string text = bytes.ToString();
  std::vector<std::string> lines = StrSplit(text, '\n');
  while (!lines.empty() && StrTrim(lines.back()).empty()) lines.pop_back();
  if (lines.empty()) {
    return Status::InvalidArgument("csv: empty file '" + key + "'");
  }
  CsvConnector conn;
  conn.columns_ = SplitCsvLine(lines[0]);
  for (size_t r = 1; r < lines.size(); ++r) {
    if (StrTrim(lines[r]).empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(lines[r]);
    if (fields.size() != conn.columns_.size()) {
      return Status::Corruption("csv: row " + std::to_string(r) + " has " +
                                std::to_string(fields.size()) +
                                " fields, header has " +
                                std::to_string(conn.columns_.size()));
    }
    conn.rows_.push_back(std::move(fields));
  }
  // Column type inference: numeric iff every value parses.
  conn.numeric_.assign(conn.columns_.size(), true);
  for (const auto& row : conn.rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      double ignored;
      if (!ParsesAsNumber(row[c], &ignored)) conn.numeric_[c] = false;
    }
  }
  return conn;
}

Result<bool> CsvConnector::Next(Row* row) {
  if (cursor_ >= rows_.size()) return false;
  row->clear();
  const auto& fields = rows_[cursor_++];
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (numeric_[c]) {
      double v = 0;
      ParsesAsNumber(fields[c], &v);
      (*row)[columns_[c]] = tsf::Sample::Scalar(v, tsf::DType::kFloat64);
    } else {
      (*row)[columns_[c]] = tsf::Sample::FromString(fields[c]);
    }
  }
  return true;
}

Result<JsonlConnector> JsonlConnector::Open(storage::StoragePtr store,
                                            const std::string& key) {
  DL_ASSIGN_OR_RETURN(Slice bytes, store->Get(key));
  std::string text = bytes.ToString();
  JsonlConnector conn;
  for (const std::string& line : StrSplit(text, '\n')) {
    if (StrTrim(line).empty()) continue;
    DL_ASSIGN_OR_RETURN(Json j, Json::Parse(line));
    if (!j.is_object()) {
      return Status::Corruption("jsonl: line is not an object");
    }
    Row row;
    for (const auto& [name, value] : j.object()) {
      if (value.is_number()) {
        row[name] =
            tsf::Sample::Scalar(value.as_number(), tsf::DType::kFloat64);
      } else if (value.is_bool()) {
        row[name] = tsf::Sample::Scalar(value.as_bool() ? 1 : 0,
                                        tsf::DType::kUInt8);
      } else if (value.is_string()) {
        row[name] = tsf::Sample::FromString(value.as_string());
      } else if (value.is_array()) {
        std::vector<double> data;
        for (size_t i = 0; i < value.size(); ++i) {
          data.push_back(value[i].as_number());
        }
        row[name] =
            tsf::Sample::FromVector<double>(data, tsf::DType::kFloat64);
      }
      // Nested objects / nulls are skipped (flat metadata only).
    }
    conn.rows_.push_back(std::move(row));
  }
  return conn;
}

Result<bool> JsonlConnector::Next(Row* row) {
  if (cursor_ >= rows_.size()) return false;
  *row = rows_[cursor_++];
  return true;
}

Result<uint64_t> IngestImageFiles(storage::StoragePtr source,
                                  const std::vector<std::string>& keys,
                                  tsf::Tensor& tensor) {
  if (tensor.meta().sample_compression != compress::Compression::kImage &&
      tensor.meta().sample_compression !=
          compress::Compression::kImageLossy) {
    return Status::FailedPrecondition(
        "fast-path ingest requires image sample compression on tensor '" +
        tensor.name() + "'");
  }
  uint64_t count = 0;
  for (const std::string& key : keys) {
    DL_ASSIGN_OR_RETURN(Slice file, source->Get(key));
    auto info = compress::PeekImageFrameInfo(ByteView(file));
    Status appended = info.ok() ? tensor.AppendPrecompressed(
                                      ByteView(file), {info->height,
                                                       info->width,
                                                       info->channels})
                                : info.status();
    if (!appended.ok()) {
      return appended.WithContext("image file '" + key + "'");
    }
    ++count;
  }
  DL_RETURN_IF_ERROR(tensor.Flush());
  return count;
}

}  // namespace dl::ingest
