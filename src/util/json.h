#ifndef DEEPLAKE_UTIL_JSON_H_
#define DEEPLAKE_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace dl {

/// Minimal JSON document model + parser + serializer.
///
/// Deep Lake keeps every piece of human-auditable metadata — dataset
/// provenance, tensor meta, version-control info, chunk sets — as JSON
/// objects on storage (paper §3.4, §4.2). This is a complete from-scratch
/// implementation: no external dependency.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  // std::map keeps keys sorted -> deterministic serialization, which makes
  // metadata files diffable and tests stable.
  using Object = std::map<std::string, Json>;

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}         // NOLINT
  Json(bool b) : type_(Type::kBool), bool_(b) {}       // NOLINT
  Json(double d) : type_(Type::kNumber), num_(d) {}    // NOLINT
  Json(int v) : type_(Type::kNumber), num_(v) {}       // NOLINT
  Json(int64_t v)                                      // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(v)) {}
  Json(uint64_t v)                                     // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(v)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}  // NOLINT
  Json(std::string s)                                     // NOLINT
      : type_(Type::kString), str_(std::move(s)) {}
  Json(std::string_view s)                                // NOLINT
      : type_(Type::kString), str_(s) {}
  Json(Array a) : type_(Type::kArray), arr_(std::move(a)) {}     // NOLINT
  Json(Object o) : type_(Type::kObject), obj_(std::move(o)) {}   // NOLINT

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double as_number(double fallback = 0) const {
    return is_number() ? num_ : fallback;
  }
  int64_t as_int(int64_t fallback = 0) const {
    return is_number() ? static_cast<int64_t>(num_) : fallback;
  }
  const std::string& as_string() const { return str_; }

  Array& array() { return arr_; }
  const Array& array() const { return arr_; }
  Object& object() { return obj_; }
  const Object& object() const { return obj_; }

  /// Object field access. `Get` returns a shared null for missing keys.
  const Json& Get(const std::string& key) const;
  bool Has(const std::string& key) const {
    return is_object() && obj_.count(key) > 0;
  }
  Json& Set(const std::string& key, Json value) {
    type_ = Type::kObject;
    return obj_[key] = std::move(value);
  }

  /// Array append.
  void Append(Json value) {
    type_ = Type::kArray;
    arr_.push_back(std::move(value));
  }
  size_t size() const {
    if (is_array()) return arr_.size();
    if (is_object()) return obj_.size();
    return 0;
  }
  const Json& operator[](size_t i) const { return arr_[i]; }

  /// Compact serialization ("{"a":1}"). `indent` > 0 pretty-prints.
  std::string Dump(int indent = 0) const;

  /// Parses a JSON document. Returns Corruption on malformed input,
  /// including nesting deeper than 256 arrays/objects.
  static Result<Json> Parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b);

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace dl

#endif  // DEEPLAKE_UTIL_JSON_H_
