#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/macros.h"

namespace dl {

namespace {

const Json& NullJson() {
  static const Json* kNull = new Json();
  return *kNull;
}

void EscapeString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void DumpNumber(std::string& out, double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
  } else if (std::isfinite(d)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  } else {
    out += "null";  // JSON has no Inf/NaN.
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    DL_ASSIGN_OR_RETURN(Json v, ParseValue());
    SkipWs();
    if (pos_ != text_.size()) {
      return Status::Corruption("json: trailing characters at " +
                                std::to_string(pos_));
    }
    return v;
  }

 private:
  Result<Json> ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        // Recursion follows nesting, so forged input could exhaust the
        // stack; no document this repo writes comes close to the cap.
        if (++depth_ > kMaxDepth) return Err("nesting too deep");
        Result<Json> v = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return v;
      }
      case '"': {
        DL_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json(std::move(s));
      }
      case 't':
        DL_RETURN_IF_ERROR(Expect("true"));
        return Json(true);
      case 'f':
        DL_RETURN_IF_ERROR(Expect("false"));
        return Json(false);
      case 'n':
        DL_RETURN_IF_ERROR(Expect("null"));
        return Json(nullptr);
      default:
        return ParseNumber();
    }
  }

  Result<Json> ParseObject() {
    ++pos_;  // '{'
    Json obj = Json::MakeObject();
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      SkipWs();
      if (Peek() != '"') return Err("expected object key");
      DL_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWs();
      if (Peek() != ':') return Err("expected ':'");
      ++pos_;
      DL_ASSIGN_OR_RETURN(Json val, ParseValue());
      obj.Set(key, std::move(val));
      SkipWs();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      return Err("expected ',' or '}' in object");
    }
  }

  Result<Json> ParseArray() {
    ++pos_;  // '['
    Json arr = Json::MakeArray();
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      DL_ASSIGN_OR_RETURN(Json val, ParseValue());
      arr.Append(std::move(val));
      SkipWs();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      return Err("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Err("truncated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Err("bad hex digit in \\u escape");
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs unhandled,
            // fine for metadata keys/values which are ASCII in practice).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default:
            return Err("bad escape character");
        }
      } else {
        out += c;
      }
    }
    return Err("unterminated string");
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected value");
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double d = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return Err("malformed number");
    return Json(d);
  }

  Status Expect(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Status::Corruption("json: expected '" + std::string(word) +
                                "' at " + std::to_string(pos_));
    }
    pos_ += word.size();
    return Status::OK();
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  Status Err(std::string_view msg) const {
    return Status::Corruption("json: " + std::string(msg) + " at offset " +
                              std::to_string(pos_));
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const Json& Json::Get(const std::string& key) const {
  if (is_object()) {
    auto it = obj_.find(key);
    if (it != obj_.end()) return it->second;
  }
  return NullJson();
}

void Json::DumpTo(std::string& out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<size_t>(indent) * d, ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      DumpNumber(out, num_);
      break;
    case Type::kString:
      EscapeString(out, str_);
      break;
    case Type::kArray: {
      out += '[';
      for (size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        arr_[i].DumpTo(out, indent, depth + 1);
      }
      if (!arr_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        EscapeString(out, k);
        out += indent > 0 ? ": " : ":";
        v.DumpTo(out, indent, depth + 1);
      }
      if (!obj_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

Result<Json> Json::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull:
      return true;
    case Json::Type::kBool:
      return a.bool_ == b.bool_;
    case Json::Type::kNumber:
      return a.num_ == b.num_;
    case Json::Type::kString:
      return a.str_ == b.str_;
    case Json::Type::kArray:
      return a.arr_ == b.arr_;
    case Json::Type::kObject:
      return a.obj_ == b.obj_;
  }
  return false;
}

}  // namespace dl
