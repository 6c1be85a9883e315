#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "adm/value.h"
#include "adm/wire.h"
#include "common/random.h"

// Counts this thread's heap allocations so tests can assert that a code
// path allocates nothing. Replaces the global operator new/delete for this
// test binary only, and not under ASan/TSan, whose runtimes own operator new
// (shared libraries would then pair their new with this delete); there the
// tests fall back to checking where the bytes live.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SIMDB_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SIMDB_COUNT_ALLOCATIONS 0
#endif
#endif
#ifndef SIMDB_COUNT_ALLOCATIONS
#define SIMDB_COUNT_ALLOCATIONS 1
#endif

namespace {
thread_local size_t t_allocations = 0;
}  // namespace

#if SIMDB_COUNT_ALLOCATIONS
// Out of line, so the compiler does not pair an inlined malloc with a
// caller's delete and warn about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace simdb::adm {
namespace {

TEST(ValueTest, DefaultIsMissing) {
  Value v;
  EXPECT_TRUE(v.is_missing());
  EXPECT_EQ(v.type(), ValueType::kMissing);
}

TEST(ValueTest, Scalars) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Boolean(true).AsBoolean());
  EXPECT_EQ(Value::Int64(-5).AsInt64(), -5);
  EXPECT_EQ(Value::Double(2.5).AsDoubleExact(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
}

TEST(ValueTest, NumericCoercionInAsNumber) {
  EXPECT_EQ(Value::Int64(3).AsNumber(), 3.0);
  EXPECT_EQ(Value::Double(3.25).AsNumber(), 3.25);
}

TEST(ValueTest, CrossTypeOrder) {
  // MISSING < NULL < bool < numbers < strings < arrays < multisets < objects.
  std::vector<Value> ordered = {
      Value::Missing(),
      Value::Null(),
      Value::Boolean(false),
      Value::Int64(1),
      Value::String("a"),
      Value::MakeArray({Value::Int64(1)}),
      Value::MakeMultiset({Value::Int64(1)}),
      Value::MakeObject({{"a", Value::Int64(1)}}),
  };
  for (size_t i = 0; i + 1 < ordered.size(); ++i) {
    EXPECT_LT(Value::Compare(ordered[i], ordered[i + 1]), 0)
        << "at index " << i;
  }
}

TEST(ValueTest, IntAndDoubleCompareNumerically) {
  EXPECT_EQ(Value::Compare(Value::Int64(2), Value::Double(2.0)), 0);
  EXPECT_LT(Value::Compare(Value::Int64(2), Value::Double(2.5)), 0);
  EXPECT_GT(Value::Compare(Value::Double(3.1), Value::Int64(3)), 0);
}

TEST(ValueTest, EqualsAndHashAgreeOnMixedNumerics) {
  Value a = Value::Int64(7), b = Value::Double(7.0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(ValueTest, ArrayCompareLexicographic) {
  Value a = Value::MakeArray({Value::Int64(1), Value::Int64(2)});
  Value b = Value::MakeArray({Value::Int64(1), Value::Int64(3)});
  Value c = Value::MakeArray({Value::Int64(1)});
  EXPECT_LT(Value::Compare(a, b), 0);
  EXPECT_LT(Value::Compare(c, a), 0);
  EXPECT_EQ(Value::Compare(a, a), 0);
}

TEST(ValueTest, ObjectFieldsSortedAndDeduped) {
  Value v = Value::MakeObject(
      {{"b", Value::Int64(2)}, {"a", Value::Int64(1)}, {"b", Value::Int64(3)}});
  const Value::Object& fields = v.AsObject();
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].first, "a");
  EXPECT_EQ(fields[1].first, "b");
  EXPECT_EQ(fields[1].second.AsInt64(), 3);  // last occurrence wins
}

TEST(ValueTest, GetFieldReturnsMissingWhenAbsent) {
  Value v = Value::MakeObject({{"x", Value::Int64(1)}});
  EXPECT_EQ(v.GetField("x").AsInt64(), 1);
  EXPECT_TRUE(v.GetField("y").is_missing());
  EXPECT_TRUE(Value::Int64(5).GetField("x").is_missing());
}

TEST(ValueTest, ObjectOrderInsensitiveEquality) {
  Value a = Value::MakeObject({{"x", Value::Int64(1)}, {"y", Value::Int64(2)}});
  Value b = Value::MakeObject({{"y", Value::Int64(2)}, {"x", Value::Int64(1)}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(JsonTest, ParseScalars) {
  EXPECT_TRUE((*Value::FromJson("null")).is_null());
  EXPECT_TRUE((*Value::FromJson("true")).AsBoolean());
  EXPECT_FALSE((*Value::FromJson("false")).AsBoolean());
  EXPECT_EQ((*Value::FromJson("42")).AsInt64(), 42);
  EXPECT_EQ((*Value::FromJson("-7")).AsInt64(), -7);
  EXPECT_EQ((*Value::FromJson("2.5")).AsDoubleExact(), 2.5);
  EXPECT_EQ((*Value::FromJson("\"abc\"")).AsString(), "abc");
}

TEST(JsonTest, IntegerStaysInt64) {
  Value v = *Value::FromJson("123");
  EXPECT_TRUE(v.is_int64());
  Value d = *Value::FromJson("123.0");
  EXPECT_TRUE(d.is_double());
  Value e = *Value::FromJson("1e3");
  EXPECT_TRUE(e.is_double());
}

TEST(JsonTest, ParseNested) {
  Result<Value> r = Value::FromJson(
      R"({"id": 1, "tags": ["a", "b"], "inner": {"x": 2.5}})");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Value& v = *r;
  EXPECT_EQ(v.GetField("id").AsInt64(), 1);
  EXPECT_EQ(v.GetField("tags").AsList().size(), 2u);
  EXPECT_EQ(v.GetField("inner").GetField("x").AsDoubleExact(), 2.5);
}

TEST(JsonTest, MultisetSyntax) {
  Result<Value> r = Value::FromJson(R"({{1, 2, 2}})");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->is_multiset());
  EXPECT_EQ(r->AsList().size(), 3u);
}

TEST(JsonTest, StringEscapes) {
  Value v = *Value::FromJson(R"("a\"b\\c\ndA")");
  EXPECT_EQ(v.AsString(), "a\"b\\c\ndA");
}

TEST(JsonTest, Errors) {
  EXPECT_FALSE(Value::FromJson("").ok());
  EXPECT_FALSE(Value::FromJson("{").ok());
  EXPECT_FALSE(Value::FromJson("[1,").ok());
  EXPECT_FALSE(Value::FromJson("12abc").ok());
  EXPECT_FALSE(Value::FromJson("\"unterminated").ok());
  EXPECT_FALSE(Value::FromJson("{\"a\":1} trailing").ok());
}

TEST(JsonTest, RoundTrip) {
  const char* docs[] = {
      "null",
      "true",
      "-17",
      "\"hello world\"",
      R"(["a",1,2.5,null,{"k":false}])",
      R"({"a":1,"b":[1,2,3],"c":{"d":"e"}})",
      R"({{"x","x","y"}})",
  };
  for (const char* doc : docs) {
    Value v = *Value::FromJson(doc);
    Value v2 = *Value::FromJson(v.ToJson());
    EXPECT_EQ(v, v2) << doc;
  }
}

Value RandomValue(Random& rng, int depth) {
  switch (rng.Uniform(depth > 2 ? 5 : 8)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Boolean(rng.OneIn(2));
    case 2:
      return Value::Int64(rng.UniformRange(-1000, 1000));
    case 3:
      return Value::Double(static_cast<double>(rng.UniformRange(-99, 99)) / 4);
    case 4: {
      std::string s;
      for (uint64_t i = 0, n = rng.Uniform(10); i < n; ++i) {
        s.push_back(static_cast<char>('a' + rng.Uniform(26)));
      }
      return Value::String(s);
    }
    case 5:
    case 6: {
      Value::Array items;
      for (uint64_t i = 0, n = rng.Uniform(4); i < n; ++i) {
        items.push_back(RandomValue(rng, depth + 1));
      }
      return rng.OneIn(3) ? Value::MakeMultiset(std::move(items))
                          : Value::MakeArray(std::move(items));
    }
    default: {
      Value::Object fields;
      for (uint64_t i = 0, n = rng.Uniform(4); i < n; ++i) {
        fields.emplace_back("f" + std::to_string(i), RandomValue(rng, depth + 1));
      }
      return Value::MakeObject(std::move(fields));
    }
  }
}

TEST(SerdeTest, RandomRoundTrip) {
  Random rng(99);
  for (int i = 0; i < 500; ++i) {
    Value v = RandomValue(rng, 0);
    std::string buf;
    ByteWriter w(&buf);
    v.Serialize(&w);
    ByteReader r(buf);
    Result<Value> back = Value::Deserialize(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(v, *back);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(SerdeTest, JsonRandomRoundTrip) {
  Random rng(123);
  for (int i = 0; i < 200; ++i) {
    Value v = RandomValue(rng, 0);
    Result<Value> back = Value::FromJson(v.ToJson());
    ASSERT_TRUE(back.ok()) << v.ToJson() << ": " << back.status().ToString();
    EXPECT_EQ(v, *back) << v.ToJson();
  }
}

TEST(SerdeTest, TruncatedBufferFails) {
  Value v = Value::MakeObject({{"a", Value::String("hello")}});
  std::string buf;
  ByteWriter w(&buf);
  v.Serialize(&w);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ByteReader r(std::string_view(buf).substr(0, cut));
    EXPECT_FALSE(Value::Deserialize(&r).ok()) << "cut=" << cut;
  }
}

// --- Wire framing (magic / version / length / CRC-32). The transport layer
// wraps every shipped exchange destination in one of these frames; a frame
// that survives WriteFrame -> ReadFrame unchanged plus exhaustive rejection
// of damaged frames is what makes the round trip an identity on values.

TEST(WireTest, Crc32KnownVectors) {
  // IEEE 802.3 reference values ("check" input from the CRC catalogue).
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32("hello"), 0x3610a686u);
}

TEST(WireTest, FrameRoundTripsRandomValues) {
  Random rng(2024);
  for (int i = 0; i < 200; ++i) {
    Value v = RandomValue(rng, 0);
    std::string payload;
    ByteWriter w(&payload);
    v.Serialize(&w);
    std::string frame;
    WriteFrame(payload, &frame);
    ASSERT_EQ(frame.size(), kWireHeaderBytes + payload.size());
    ByteReader r(frame);
    Result<std::string_view> got = ReadFrame(&r);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, payload);
    EXPECT_EQ(r.remaining(), 0u);
    ByteReader pr(*got);
    Result<Value> back = Value::Deserialize(&pr);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(v, *back);
  }
}

TEST(WireTest, EveryTruncationFails) {
  std::string frame;
  WriteFrame("some payload bytes", &frame);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    ByteReader r(std::string_view(frame).substr(0, cut));
    EXPECT_FALSE(ReadFrame(&r).ok()) << "cut=" << cut;
  }
}

TEST(WireTest, EverySingleByteCorruptionFails) {
  // Flipping any byte of the frame must be detected: header fields are
  // validated individually and the payload is covered by the checksum.
  std::string frame;
  WriteFrame("the quick brown fox", &frame);
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    ByteReader r(bad);
    Result<std::string_view> got = ReadFrame(&r);
    // A corrupted length byte may also leave trailing bytes behind; either
    // way the frame must not decode to the original payload silently.
    if (got.ok()) {
      EXPECT_NE(*got, std::string_view("the quick brown fox"))
          << "byte " << i;
      ADD_FAILURE() << "corrupted frame accepted at byte " << i;
    }
  }
}

TEST(WireTest, UnknownVersionRejected) {
  std::string frame;
  WriteFrame("payload", &frame);
  frame[4] = static_cast<char>(kWireVersion + 1);  // version byte
  ByteReader r(frame);
  Result<std::string_view> got = ReadFrame(&r);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("version"), std::string::npos)
      << got.status().ToString();
}

TEST(WireTest, BadMagicRejected) {
  std::string frame;
  WriteFrame("payload", &frame);
  frame[0] = 'X';
  ByteReader r(frame);
  Result<std::string_view> got = ReadFrame(&r);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("magic"), std::string::npos)
      << got.status().ToString();
}

TEST(WireTest, FramedPayloadWithUnknownValueTagRejected) {
  // A valid frame whose payload is not a valid serialized value: the frame
  // layer accepts it (checksum matches), the value layer must reject it —
  // corruption cannot hide between the layers.
  std::string payload = "\xff\xff\xff\xff";
  std::string frame;
  WriteFrame(payload, &frame);
  ByteReader r(frame);
  Result<std::string_view> got = ReadFrame(&r);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ByteReader pr(*got);
  EXPECT_FALSE(Value::Deserialize(&pr).ok());
}

TEST(WireTest, BackToBackFramesReadSequentially) {
  std::string buf;
  WriteFrame("first", &buf);
  WriteFrame("second", &buf);
  ByteReader r(buf);
  Result<std::string_view> a = ReadFrame(&r);
  Result<std::string_view> b = ReadFrame(&r);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, "first");
  EXPECT_EQ(*b, "second");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(MemoryUsageTest, GrowsWithContent) {
  Value small = Value::Int64(1);
  Value big = Value::String(std::string(1000, 'x'));
  EXPECT_GT(big.MemoryUsage(), small.MemoryUsage() + 900);
}

// ---------- Shared immutable payloads ----------

std::string Bytes(const Value& v) {
  std::string buf;
  ByteWriter w(&buf);
  v.Serialize(&w);
  return buf;
}

/// An equal value built from scratch: every string, list and object is a
/// fresh allocation, so nothing is shared with `v`.
Value Rebuild(const Value& v) {
  switch (v.type()) {
    case ValueType::kString:
      return Value::String(std::string(v.AsString().data(), v.AsString().size()));
    case ValueType::kArray:
    case ValueType::kMultiset: {
      Value::Array items;
      for (const Value& item : v.AsList()) items.push_back(Rebuild(item));
      return v.is_array() ? Value::MakeArray(std::move(items))
                          : Value::MakeMultiset(std::move(items));
    }
    case ValueType::kObject: {
      Value::Object fields;
      for (const Value::Field& f : v.AsObject()) {
        fields.emplace_back(std::string(f.first), Rebuild(f.second));
      }
      return Value::MakeObject(std::move(fields));
    }
    default:
      return v;
  }
}

/// A record mixing inline and shared payloads at several depths.
Value RandomRecord(Random& rng) {
  std::string text;
  for (uint64_t i = 0, n = 16 + rng.Uniform(60); i < n; ++i) {
    text.push_back(static_cast<char>('a' + rng.Uniform(26)));
  }
  Value::Array tokens;
  for (uint64_t i = 0, n = rng.Uniform(6); i < n; ++i) {
    tokens.push_back(Value::String(text.substr(0, 1 + rng.Uniform(20))));
  }
  return Value::MakeObject({{"id", Value::Int64(rng.UniformRange(0, 99))},
                            {"text", Value::String(text)},
                            {"tokens", Value::MakeMultiset(std::move(tokens))},
                            {"nested", RandomValue(rng, 0)}});
}

TEST(SharedPayloadTest, CopySharesThePayload) {
  Value s = Value::String(std::string(100, 's'));
  Value s_copy = s;
  EXPECT_EQ(s_copy.AsString().data(), s.AsString().data());

  Value list = Value::MakeArray({Value::Int64(1), s});
  Value list_copy = list;
  EXPECT_EQ(&list_copy.AsList(), &list.AsList());
  // The element is itself a copy of `s`: shared, not duplicated.
  EXPECT_EQ(list.AsList()[1].AsString().data(), s.AsString().data());

  Value obj = Value::MakeObject({{"l", list}});
  Value obj_copy = obj;
  EXPECT_EQ(&obj_copy.AsObject(), &obj.AsObject());

  Value assigned;
  assigned = obj;
  EXPECT_EQ(&assigned.AsObject(), &obj.AsObject());
  EXPECT_EQ(&assigned.GetField("l").AsList(), &list.AsList());
}

TEST(SharedPayloadTest, SharedCopyAndRebuiltValueAgree) {
  Random rng(2024);
  for (int i = 0; i < 300; ++i) {
    Value v = RandomRecord(rng);
    Value copy = v;
    Value rebuilt = Rebuild(v);
    ASSERT_NE(&rebuilt.AsObject(), &v.AsObject());
    for (const Value* other : {&copy, &rebuilt}) {
      EXPECT_EQ(Value::Compare(v, *other), 0);
      EXPECT_EQ(Value::Compare(*other, v), 0);
      EXPECT_EQ(other->Hash(), v.Hash());
      EXPECT_EQ(other->ToJson(), v.ToJson());
      EXPECT_EQ(Bytes(*other), Bytes(v));
    }
    // Ordering against a different value does not depend on sharing either.
    Value w = RandomRecord(rng);
    EXPECT_EQ(Value::Compare(copy, w), Value::Compare(rebuilt, w));
  }
}

TEST(SharedPayloadTest, SerializedSizeMatchesTheEncoding) {
  Random rng(77);
  std::vector<Value> values = {Value::Missing(), Value::Null(),
                               Value::Boolean(true), Value::Int64(-3),
                               Value::Double(1.5), Value::String(""),
                               Value::String(std::string(15, 'x')),
                               Value::String(std::string(16, 'y')),
                               Value::MakeArray({}), Value::MakeObject({})};
  for (int i = 0; i < 200; ++i) {
    values.push_back(RandomValue(rng, 0));
    values.push_back(RandomRecord(rng));
  }
  for (const Value& v : values) {
    Value copy = v;
    Value rebuilt = Rebuild(v);
    EXPECT_EQ(v.SerializedSize(), Bytes(v).size()) << v.ToJson();
    EXPECT_EQ(copy.SerializedSize(), Bytes(v).size()) << v.ToJson();
    EXPECT_EQ(rebuilt.SerializedSize(), Bytes(v).size()) << v.ToJson();
  }
}

TEST(SharedPayloadTest, ShortStringsStayInlineAndAllocateNothing) {
  ASSERT_GE(Value::kInlineStringBytes, 15u);
  const std::string longest(Value::kInlineStringBytes, 'g');
  for (size_t len : {size_t{0}, size_t{2}, size_t{15}, longest.size()}) {
    std::string text = longest.substr(0, len);
    size_t before = t_allocations;
    Value v = Value::String(text);
    Value copy = v;
    Value moved = std::move(copy);
    size_t made = t_allocations - before;
    EXPECT_EQ(made, 0u) << "length " << len;
    // The characters live inside the Value object itself.
    const char* data = moved.AsString().data();
    const char* self = reinterpret_cast<const char*>(&moved);
    EXPECT_TRUE(data >= self && data < self + sizeof(Value)) << len;
    EXPECT_EQ(moved.AsString(), text);
  }
  // A short string that arrives with a heap buffer is made inline too.
  std::string reserved = "gram";
  reserved.reserve(256);
  Value from_reserved = Value::String(std::move(reserved));
  const char* data = from_reserved.AsString().data();
  const char* self = reinterpret_cast<const char*>(&from_reserved);
  EXPECT_TRUE(data >= self && data < self + sizeof(Value));
  EXPECT_EQ(from_reserved.AsString(), "gram");
  // Control: a longer string is shared, built with heap allocations.
  size_t before = t_allocations;
  Value shared = Value::String(std::string(Value::kInlineStringBytes + 1, 'h'));
  if (SIMDB_COUNT_ALLOCATIONS) {
    EXPECT_GT(t_allocations - before, 0u);
  }
  data = shared.AsString().data();
  self = reinterpret_cast<const char*>(&shared);
  EXPECT_FALSE(data >= self && data < self + sizeof(Value));
}

TEST(SharedPayloadTest, CopiesAcrossThreadsAreSafe) {
  Value record = Value::MakeObject(
      {{"text", Value::String(std::string(64, 't'))},
       {"tokens", Value::MakeArray({Value::String(std::string(32, 'a')),
                                    Value::String("b"), Value::Int64(3)})}});
  Value list = record.GetField("tokens");
  const uint64_t record_hash = record.Hash();
  const uint64_t list_hash = list.Hash();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      std::vector<Value> held;
      for (int i = 0; i < 4000; ++i) {
        held.push_back((i + t) % 2 == 0 ? record : list);
        if (held.size() > 16) held.erase(held.begin(), held.begin() + 8);
        const Value& v = held.back();
        if (v.Hash() != (v.is_object() ? record_hash : list_hash)) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(record.Hash(), record_hash);
  EXPECT_EQ(&record.GetField("tokens").AsList(), &list.AsList());
}

}  // namespace
}  // namespace simdb::adm
