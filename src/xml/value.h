#ifndef NIMBLE_XML_VALUE_H_
#define NIMBLE_XML_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/result.h"
#include "common/status.h"

namespace nimble {

/// Scalar type tags for Value. The Nimble data model is "slightly more
/// structured" than pure XML (paper §3.1): leaves carry *typed* scalars so
/// relational and hierarchical data round-trip without lossy stringification.
enum class ValueType {
  kNull = 0,
  kBool,
  kInt,
  kDouble,
  kString,
};

const char* ValueTypeName(ValueType type);

/// A typed scalar: null, bool, 64-bit int, double, or string.
///
/// Ordering: values of the same numeric family (int/double) compare
/// numerically, with NaN equal to NaN and above every other number;
/// otherwise a total order is imposed by type rank (null < bool < number <
/// string) so heterogeneous sorts are deterministic.
class Value {
 public:
  /// Null value.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Rep(b)); }
  static Value Int(int64_t i) { return Value(Rep(i)); }
  static Value Double(double d) { return Value(Rep(d)); }
  static Value String(std::string s) { return Value(Rep(std::move(s))); }

  /// Parses `text` into the most specific type: int, then double, then
  /// bool ("true"/"false"), falling back to string. Used when ingesting
  /// untyped documents (CSV, raw XML text).
  static Value Infer(const std::string& text);

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_numeric() const { return is_int() || is_double(); }

  /// Accessors require the matching type (asserted).
  bool AsBool() const { return std::get<bool>(rep_); }
  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }

  /// Numeric view: int is widened to double. Requires is_numeric().
  double NumericValue() const;

  /// Lossless textual rendering ("" for null, "true"/"false" for bool).
  std::string ToString() const;

  /// Coercions used by expression evaluation.
  Result<int64_t> ToInt() const;
  Result<double> ToDouble() const;
  /// Truthiness: null/false/0/"" are false; everything else true.
  bool Truthy() const;

  /// Three-way comparison as described in the class comment.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Hash consistent with operator== (numeric family hashes by double).
  size_t Hash() const;

 private:
  using Rep = std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

/// Hash and equality for a Value used as a grouping or dedup key: the type
/// plus Compare(), so 3 and 3.0 are different keys while -0.0 and 0.0 are
/// one. Keys compare values, never ToString() text, which rounds doubles
/// to 12 significant digits for display.
struct ValueKeyHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};
struct ValueKeyEqual {
  bool operator()(const Value& a, const Value& b) const {
    return a.type() == b.type() && a.Compare(b) == 0;
  }
};

}  // namespace nimble

#endif  // NIMBLE_XML_VALUE_H_
