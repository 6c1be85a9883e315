#ifndef SIMDB_ADM_VALUE_H_
#define SIMDB_ADM_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace simdb::adm {

/// Type tags of the ADM-like data model. The order of enumerators defines the
/// cross-type total order used for sorting heterogeneous values (as in
/// schema-less AsterixDB datasets).
enum class ValueType : uint8_t {
  kMissing = 0,
  kNull = 1,
  kBoolean = 2,
  kInt64 = 3,
  kDouble = 4,
  kString = 5,
  kArray = 6,     // ordered list
  kMultiset = 7,  // unordered list
  kObject = 8,
};

std::string_view ValueTypeToString(ValueType t);

/// A dynamically typed ADM value: the unit of data flowing through every
/// layer (records, index keys, query results). Objects keep fields sorted by
/// name so equality/comparison/hash are canonical.
///
/// Values are immutable once built. Lists, objects and strings longer than
/// std::string's inline buffer keep their payload in a shared, read-only
/// buffer, so copying a Value (a row column, a join output, an UNNEST
/// record) bumps a reference count instead of copying the payload. Short
/// strings (tokens, grams, names) stay inline and allocate nothing. The
/// reference counts are atomic: copies of one Value may be made and dropped
/// on different threads, and the payload may be read concurrently.
class Value {
 public:
  using Array = std::vector<Value>;
  using Field = std::pair<std::string, Value>;
  using Object = std::vector<Field>;  // sorted by field name

  /// Longest string kept inline (std::string's small-string capacity).
  static inline const size_t kInlineStringBytes = std::string().capacity();

  /// Constructs MISSING (absent field), the bottom of the type order.
  Value() : type_(ValueType::kMissing) {}

  static Value Missing() { return Value(); }
  static Value Null() {
    Value v;
    v.type_ = ValueType::kNull;
    return v;
  }
  static Value Boolean(bool b) {
    Value v;
    v.type_ = ValueType::kBoolean;
    v.data_ = b;
    return v;
  }
  static Value Int64(int64_t i) {
    Value v;
    v.type_ = ValueType::kInt64;
    v.data_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = ValueType::kDouble;
    v.data_ = d;
    return v;
  }
  static Value String(std::string s);
  static Value MakeArray(Array items) {
    Value v;
    v.type_ = ValueType::kArray;
    v.data_ = std::make_shared<const Array>(std::move(items));
    return v;
  }
  static Value MakeMultiset(Array items) {
    Value v;
    v.type_ = ValueType::kMultiset;
    v.data_ = std::make_shared<const Array>(std::move(items));
    return v;
  }
  /// Fields are sorted by name; duplicate names keep the last occurrence.
  static Value MakeObject(Object fields);

  ValueType type() const { return type_; }
  bool is_missing() const { return type_ == ValueType::kMissing; }
  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_boolean() const { return type_ == ValueType::kBoolean; }
  bool is_int64() const { return type_ == ValueType::kInt64; }
  bool is_double() const { return type_ == ValueType::kDouble; }
  bool is_numeric() const { return is_int64() || is_double(); }
  bool is_string() const { return type_ == ValueType::kString; }
  bool is_array() const { return type_ == ValueType::kArray; }
  bool is_multiset() const { return type_ == ValueType::kMultiset; }
  bool is_list() const { return is_array() || is_multiset(); }
  bool is_object() const { return type_ == ValueType::kObject; }

  bool AsBoolean() const { return std::get<bool>(data_); }
  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  double AsDoubleExact() const { return std::get<double>(data_); }
  /// Numeric value widened to double (valid for int64 and double).
  double AsNumber() const {
    return is_int64() ? static_cast<double>(AsInt64()) : AsDoubleExact();
  }
  const std::string& AsString() const {
    if (const auto* s = std::get_if<std::string>(&data_)) return *s;
    return *std::get<SharedString>(data_);
  }
  const Array& AsList() const { return *std::get<SharedArray>(data_); }
  const Object& AsObject() const { return *std::get<SharedObject>(data_); }

  /// Returns the field value, or MISSING when absent / not an object.
  const Value& GetField(std::string_view name) const;

  /// Total order across all types: MISSING < NULL < bool < numbers (compared
  /// numerically across int64/double) < strings < arrays < multisets <
  /// objects. Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b);

  bool operator==(const Value& other) const { return Compare(*this, other) == 0; }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(*this, other) < 0; }

  /// Hash consistent with operator== (numeric values hash by double value).
  uint64_t Hash() const;

  /// Type- and bit-exact equality: exactly when Serialize writes the same
  /// bytes (1 != 1.0, -0.0 != 0.0, a NaN equals the same NaN, an array
  /// differs from a multiset). Identical values have equal Hash()es.
  static bool Identical(const Value& a, const Value& b);

  /// Compact JSON-style rendering (objects print fields in sorted order).
  std::string ToJson() const;

  /// Parses a JSON document. Integers without fraction/exponent parse as
  /// int64; `{{ ... }}` parses as a multiset (AsterixDB ADM syntax).
  static Result<Value> FromJson(std::string_view text);

  /// Binary serialization (storage and wire format).
  void Serialize(ByteWriter* w) const;
  static Result<Value> Deserialize(ByteReader* r);

  /// Exact number of bytes Serialize appends. Independent of memory layout
  /// and of sharing, so exchange traffic accounting built on it is too.
  size_t SerializedSize() const;

  /// Rough in-memory footprint in bytes, counted per reference: a shared
  /// payload is charged in full to every Value that refers to it (used for
  /// memtable budgets and the query memory quota, where that is the
  /// conservative choice).
  size_t MemoryUsage() const;

 private:
  using SharedString = std::shared_ptr<const std::string>;
  using SharedArray = std::shared_ptr<const Array>;
  using SharedObject = std::shared_ptr<const Object>;

  ValueType type_;
  std::variant<std::monostate, bool, int64_t, double, std::string,
               SharedString, SharedArray, SharedObject>
      data_;
};

/// The canonical MISSING singleton returned by failed field lookups.
const Value& MissingValue();

}  // namespace simdb::adm

#endif  // SIMDB_ADM_VALUE_H_
