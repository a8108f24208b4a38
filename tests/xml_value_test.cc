#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "xml/value.h"

namespace nimble {
namespace {

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "");
  EXPECT_FALSE(v.Truthy());
  EXPECT_EQ(v, Value::Null());
}

TEST(ValueTest, BoolBasics) {
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_TRUE(Value::Bool(true).Truthy());
  EXPECT_FALSE(Value::Bool(false).Truthy());
}

TEST(ValueTest, IntBasics) {
  Value v = Value::Int(-42);
  EXPECT_TRUE(v.is_int());
  EXPECT_TRUE(v.is_numeric());
  EXPECT_EQ(v.AsInt(), -42);
  EXPECT_EQ(v.ToString(), "-42");
  EXPECT_FALSE(Value::Int(0).Truthy());
}

TEST(ValueTest, DoubleToString) {
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::Double(1e6).ToString(), "1000000");
  EXPECT_EQ(Value::Double(1e20).ToString(), "1e+20");
}

TEST(ValueTest, StringBasics) {
  Value v = Value::String("hello");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "hello");
  EXPECT_FALSE(Value::String("").Truthy());
  EXPECT_TRUE(Value::String("x").Truthy());
}

TEST(ValueTest, InferTypes) {
  EXPECT_TRUE(Value::Infer("123").is_int());
  EXPECT_EQ(Value::Infer("123").AsInt(), 123);
  EXPECT_TRUE(Value::Infer("-7").is_int());
  EXPECT_TRUE(Value::Infer("3.14").is_double());
  EXPECT_TRUE(Value::Infer("1e3").is_double());
  EXPECT_TRUE(Value::Infer("true").is_bool());
  EXPECT_TRUE(Value::Infer("false").is_bool());
  EXPECT_TRUE(Value::Infer("hello").is_string());
  EXPECT_TRUE(Value::Infer("12abc").is_string());
  EXPECT_TRUE(Value::Infer("").is_string());
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value::Int(3), Value::Double(3.0));
  EXPECT_NE(Value::Int(3), Value::Double(3.5));
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
}

TEST(ValueTest, CompareSameTypes) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Int(2).Compare(Value::Int(1)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_LT(Value::String("a").Compare(Value::String("b")), 0);
  EXPECT_LT(Value::Bool(false).Compare(Value::Bool(true)), 0);
}

TEST(ValueTest, CompareHeterogeneousTypeRank) {
  // null < bool < number < string
  EXPECT_LT(Value::Null().Compare(Value::Bool(false)), 0);
  EXPECT_LT(Value::Bool(true).Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(999).Compare(Value::String("")), 0);
}

TEST(ValueTest, LargeIntsCompareExactly) {
  // 2^62 and 2^62+1 are indistinguishable as doubles.
  int64_t big = int64_t{1} << 62;
  EXPECT_LT(Value::Int(big).Compare(Value::Int(big + 1)), 0);
}

TEST(ValueTest, ToIntCoercions) {
  EXPECT_EQ(*Value::Int(5).ToInt(), 5);
  EXPECT_EQ(*Value::Double(5.9).ToInt(), 5);
  EXPECT_EQ(*Value::Bool(true).ToInt(), 1);
  EXPECT_EQ(*Value::String("17").ToInt(), 17);
  EXPECT_FALSE(Value::String("x").ToInt().ok());
  EXPECT_FALSE(Value::Null().ToInt().ok());
}

TEST(ValueTest, ToDoubleCoercions) {
  EXPECT_DOUBLE_EQ(*Value::Int(5).ToDouble(), 5.0);
  EXPECT_DOUBLE_EQ(*Value::String("2.5").ToDouble(), 2.5);
  EXPECT_FALSE(Value::String("abc").ToDouble().ok());
}

TEST(ValueTest, RoundTripInferToString) {
  for (const char* text : {"42", "-17", "3.5", "true", "false", "plain"}) {
    Value v = Value::Infer(text);
    EXPECT_EQ(Value::Infer(v.ToString()), v) << text;
  }
}

// NaN (the XML text "nan" infers to one) equals NaN and sorts above every
// other number, so the order stays total: sorts are sorted, NaN = 5 is
// false, and every NaN hashes alike.
TEST(ValueTest, NanHasOnePlaceInTheOrder) {
  const Value nan = Value::Infer("nan");
  ASSERT_TRUE(nan.is_double());
  const Value other_nan = Value::Double(-std::nan(""));
  EXPECT_EQ(nan.Compare(other_nan), 0);
  EXPECT_EQ(nan.Hash(), other_nan.Hash());
  for (const Value& number :
       {Value::Int(5), Value::Int(std::numeric_limits<int64_t>::max()),
        Value::Double(std::numeric_limits<double>::infinity()),
        Value::Double(-1.5), Value::Double(0.0)}) {
    EXPECT_GT(nan.Compare(number), 0) << number.ToString();
    EXPECT_LT(number.Compare(nan), 0) << number.ToString();
    EXPECT_NE(nan, number) << number.ToString();
  }
  // Still a number: above bool, below string.
  EXPECT_GT(nan.Compare(Value::Bool(true)), 0);
  EXPECT_LT(nan.Compare(Value::String("")), 0);

  std::vector<Value> values = {Value::Int(5),  Value::Int(3), Value::Int(-1),
                               Value::Int(9),  nan,           Value::Int(2),
                               Value::Int(7),  Value::Int(8)};
  std::sort(values.begin(), values.end());
  std::string order;
  for (const Value& v : values) order += v.ToString() + " ";
  EXPECT_EQ(order, "-1 2 3 5 7 8 9 nan ");
}

class ValueOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(ValueOrderProperty, CompareIsAntisymmetricAndTotal) {
  // Build a pool of mixed values, check pairwise antisymmetry.
  std::vector<Value> pool = {
      Value::Null(),         Value::Bool(false),   Value::Bool(true),
      Value::Int(-1),        Value::Int(0),        Value::Int(7),
      Value::Double(-0.5),   Value::Double(7.0),   Value::Double(7.5),
      Value::String(""),     Value::String("a"),   Value::String("ab"),
  };
  int i = GetParam();
  const Value& a = pool[static_cast<size_t>(i) % pool.size()];
  for (const Value& b : pool) {
    int ab = a.Compare(b);
    int ba = b.Compare(a);
    EXPECT_EQ(ab == 0, ba == 0);
    if (ab < 0) {
      EXPECT_GT(ba, 0);
    }
    if (ab > 0) {
      EXPECT_LT(ba, 0);
    }
    if (ab == 0) {
      EXPECT_EQ(a.Hash(), b.Hash());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllValues, ValueOrderProperty,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace nimble
