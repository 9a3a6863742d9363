#include "src/graphql/value.h"

#include <cstdio>
#include <functional>

namespace bladerunner {

namespace {

const std::string kEmptyString;
const ValueList kEmptyList;
const ValueMap kEmptyMap;

void AppendJsonString(const std::string& s, std::string& out) {
  out.push_back('"');
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
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

bool Value::AsBool(bool fallback) const {
  if (const bool* b = std::get_if<bool>(&data_)) {
    return *b;
  }
  return fallback;
}

int64_t Value::AsInt(int64_t fallback) const {
  if (const int64_t* i = std::get_if<int64_t>(&data_)) {
    return *i;
  }
  if (const double* d = std::get_if<double>(&data_)) {
    return static_cast<int64_t>(*d);
  }
  return fallback;
}

double Value::AsDouble(double fallback) const {
  if (const double* d = std::get_if<double>(&data_)) {
    return *d;
  }
  if (const int64_t* i = std::get_if<int64_t>(&data_)) {
    return static_cast<double>(*i);
  }
  return fallback;
}

const std::string& Value::AsString() const {
  if (const std::string* s = std::get_if<std::string>(&data_)) {
    return *s;
  }
  return kEmptyString;
}

const ValueList& Value::AsList() const {
  if (const ValueList* l = std::get_if<ValueList>(&data_)) {
    return *l;
  }
  return kEmptyList;
}

const ValueMap& Value::AsMap() const {
  if (const ValueMap* m = std::get_if<ValueMap>(&data_)) {
    return *m;
  }
  return kEmptyMap;
}

ValueList& Value::MutableList() {
  if (!is_list()) {
    data_ = ValueList{};
  }
  return std::get<ValueList>(data_);
}

ValueMap& Value::MutableMap() {
  if (!is_map()) {
    data_ = ValueMap{};
  }
  return std::get<ValueMap>(data_);
}

const Value& Value::Get(const std::string& key) const {
  if (const ValueMap* m = std::get_if<ValueMap>(&data_)) {
    auto it = m->find(key);
    if (it != m->end()) {
      return it->second;
    }
  }
  return NullValue();
}

bool Value::Has(const std::string& key) const {
  if (const ValueMap* m = std::get_if<ValueMap>(&data_)) {
    return m->find(key) != m->end();
  }
  return false;
}

void Value::Set(const std::string& key, Value v) { MutableMap()[key] = std::move(v); }

size_t Value::Size() const {
  if (const ValueList* l = std::get_if<ValueList>(&data_)) {
    return l->size();
  }
  if (const ValueMap* m = std::get_if<ValueMap>(&data_)) {
    return m->size();
  }
  return 0;
}

void Value::Append(Value v) { MutableList().push_back(std::move(v)); }

std::string Value::ToJson() const {
  std::string out;
  struct Renderer {
    std::string& out;
    void operator()(std::nullptr_t) { out += "null"; }
    void operator()(bool b) { out += b ? "true" : "false"; }
    void operator()(int64_t i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(i));
      out += buf;
    }
    void operator()(double d) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", d);
      out += buf;
    }
    void operator()(const std::string& s) { AppendJsonString(s, out); }
    void operator()(const ValueList& l) {
      out.push_back('[');
      bool first = true;
      for (const Value& v : l) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        out += v.ToJson();
      }
      out.push_back(']');
    }
    void operator()(const ValueMap& m) {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : m) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        AppendJsonString(k, out);
        out.push_back(':');
        out += v.ToJson();
      }
      out.push_back('}');
    }
  };
  std::visit(Renderer{out}, data_);
  return out;
}

size_t Value::Hash() const {
  struct Hasher {
    size_t operator()(std::nullptr_t) const { return 0; }
    size_t operator()(bool b) const { return b ? 1 : 2; }
    size_t operator()(int64_t i) const { return std::hash<int64_t>{}(i); }
    // std::hash<double> maps 0.0 and -0.0 (which compare equal) to 0.
    size_t operator()(double d) const { return std::hash<double>{}(d); }
    size_t operator()(const std::string& s) const { return std::hash<std::string>{}(s); }
    size_t operator()(const ValueList& l) const {
      size_t h = l.size();
      for (const Value& v : l) {
        h = HashCombine(h, v.Hash());
      }
      return h;
    }
    size_t operator()(const ValueMap& m) const {
      size_t h = m.size();
      for (const auto& [k, v] : m) {
        h = HashCombine(HashCombine(h, std::hash<std::string>{}(k)), v.Hash());
      }
      return h;
    }
  };
  return HashCombine(data_.index(), std::visit(Hasher{}, data_));
}

uint64_t Value::WireSize() const {
  struct Sizer {
    uint64_t operator()(std::nullptr_t) const { return 4; }
    uint64_t operator()(bool) const { return 5; }
    uint64_t operator()(int64_t) const { return 8; }
    uint64_t operator()(double) const { return 8; }
    uint64_t operator()(const std::string& s) const { return s.size() + 2; }
    uint64_t operator()(const ValueList& l) const {
      uint64_t total = 2;
      for (const Value& v : l) {
        total += v.WireSize() + 1;
      }
      return total;
    }
    uint64_t operator()(const ValueMap& m) const {
      uint64_t total = 2;
      for (const auto& [k, v] : m) {
        total += k.size() + 3 + v.WireSize() + 1;
      }
      return total;
    }
  };
  return std::visit(Sizer{}, data_);
}

const Value& NullValue() {
  static const Value kNull;
  return kNull;
}

}  // namespace bladerunner
