// JSON-like value model used for GraphQL arguments, results, update-event
// metadata, and BURST headers.

#ifndef BLADERUNNER_SRC_GRAPHQL_VALUE_H_
#define BLADERUNNER_SRC_GRAPHQL_VALUE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace bladerunner {

class Value;

using ValueList = std::vector<Value>;
using ValueMap = std::map<std::string, Value>;

// A dynamically typed value: null, bool, int64, double, string, list, map.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(int i) : data_(static_cast<int64_t>(i)) {}
  Value(int64_t i) : data_(i) {}
  Value(uint64_t i) : data_(static_cast<int64_t>(i)) {}
  Value(double d) : data_(d) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(ValueList l) : data_(std::move(l)) {}
  Value(ValueMap m) : data_(std::move(m)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_list() const { return std::holds_alternative<ValueList>(data_); }
  bool is_map() const { return std::holds_alternative<ValueMap>(data_); }
  bool is_number() const { return is_int() || is_double(); }

  // Typed accessors; defaults returned on type mismatch keep call sites
  // terse in resolvers (missing metadata is a routine, non-fatal case).
  bool AsBool(bool fallback = false) const;
  int64_t AsInt(int64_t fallback = 0) const;
  double AsDouble(double fallback = 0.0) const;
  const std::string& AsString() const;  // empty string on mismatch

  const ValueList& AsList() const;  // empty list on mismatch
  const ValueMap& AsMap() const;    // empty map on mismatch
  ValueList& MutableList();         // converts to list if not already
  ValueMap& MutableMap();           // converts to map if not already

  // Map-style access. Get returns null Value when absent.
  const Value& Get(const std::string& key) const;
  bool Has(const std::string& key) const;
  void Set(const std::string& key, Value v);

  // List-style access.
  size_t Size() const;  // list size, map size, or 0
  void Append(Value v);

  bool operator==(const Value& other) const { return data_ == other.data_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  // Structural hash, consistent with operator== (equal values hash equal;
  // a map hashes by content, not by the order its keys were set in).
  size_t Hash() const;

  // Compact JSON rendering (keys sorted by map order; deterministic).
  std::string ToJson() const;

  // Rough serialized size in bytes; used for bandwidth accounting.
  uint64_t WireSize() const;

 private:
  std::variant<std::nullptr_t, bool, int64_t, double, std::string, ValueList, ValueMap> data_;
};

// Returns the singleton null value (handy for returning by const-ref).
const Value& NullValue();

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_GRAPHQL_VALUE_H_
