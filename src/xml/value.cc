#include "xml/value.h"

#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <functional>

#include "common/strings.h"

namespace nimble {

namespace {

// Type rank for heterogeneous ordering: null < bool < number < string.
int TypeRank(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return 1;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 2;
    case ValueType::kString:
      return 3;
  }
  return 4;
}

bool ParseFullInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseFullDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

Value Value::Infer(const std::string& text) {
  int64_t i;
  if (ParseFullInt(text, &i)) return Value::Int(i);
  double d;
  if (ParseFullDouble(text, &d)) return Value::Double(d);
  if (text == "true") return Value::Bool(true);
  if (text == "false") return Value::Bool(false);
  return Value::String(text);
}

ValueType Value::type() const {
  switch (rep_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kBool;
    case 2:
      return ValueType::kInt;
    case 3:
      return ValueType::kDouble;
    default:
      return ValueType::kString;
  }
}

double Value::NumericValue() const {
  assert(is_numeric());
  return is_int() ? static_cast<double>(AsInt()) : AsDouble();
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      // Trim trailing zeros but keep at least one decimal digit so doubles
      // remain visually distinct from ints.
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.12g", AsDouble());
      return buf;
    }
    case ValueType::kString:
      return AsString();
  }
  return "";
}

Result<int64_t> Value::ToInt() const {
  switch (type()) {
    case ValueType::kInt:
      return AsInt();
    case ValueType::kDouble:
      return static_cast<int64_t>(AsDouble());
    case ValueType::kBool:
      return static_cast<int64_t>(AsBool() ? 1 : 0);
    case ValueType::kString: {
      int64_t i;
      if (ParseFullInt(AsString(), &i)) return i;
      return Status::TypeError("cannot convert '" + AsString() + "' to int");
    }
    case ValueType::kNull:
      return Status::TypeError("cannot convert null to int");
  }
  return Status::Internal("unreachable");
}

Result<double> Value::ToDouble() const {
  switch (type()) {
    case ValueType::kInt:
      return static_cast<double>(AsInt());
    case ValueType::kDouble:
      return AsDouble();
    case ValueType::kBool:
      return AsBool() ? 1.0 : 0.0;
    case ValueType::kString: {
      double d;
      if (ParseFullDouble(AsString(), &d)) return d;
      return Status::TypeError("cannot convert '" + AsString() + "' to double");
    }
    case ValueType::kNull:
      return Status::TypeError("cannot convert null to double");
  }
  return Status::Internal("unreachable");
}

bool Value::Truthy() const {
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kBool:
      return AsBool();
    case ValueType::kInt:
      return AsInt() != 0;
    case ValueType::kDouble:
      return AsDouble() != 0.0;
    case ValueType::kString:
      return !AsString().empty();
  }
  return false;
}

int Value::Compare(const Value& other) const {
  int ra = TypeRank(type());
  int rb = TypeRank(other.type());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool: {
      int a = AsBool() ? 1 : 0;
      int b = other.AsBool() ? 1 : 0;
      return a - b;
    }
    case ValueType::kInt:
    case ValueType::kDouble: {
      // Compare exactly when both ints to avoid double rounding.
      if (is_int() && other.is_int()) {
        int64_t a = AsInt(), b = other.AsInt();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      double a = NumericValue(), b = other.NumericValue();
      // NaN equals NaN and sorts above every other number (PostgreSQL's
      // rule), so the order stays total.
      if (std::isnan(a) || std::isnan(b)) {
        return (std::isnan(a) ? 1 : 0) - (std::isnan(b) ? 1 : 0);
      }
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kString:
      return AsString().compare(other.AsString());
  }
  return 0;
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9B9773E99E3779B9ULL;
    case ValueType::kBool:
      return AsBool() ? 0x2545F4914F6CDD1DULL : 0x123456789ABCDEF0ULL;
    case ValueType::kInt:
    case ValueType::kDouble: {
      // Hash the numeric family uniformly via double so 3 == 3.0 hash equal.
      double d = NumericValue();
      if (d == 0.0) d = 0.0;  // normalise -0.0
      if (std::isnan(d)) return 0x7FF8DEADBEEF0001ULL;  // every NaN is equal
      return std::hash<double>()(d);
    }
    case ValueType::kString:
      return std::hash<std::string>()(AsString());
  }
  return 0;
}

}  // namespace nimble
