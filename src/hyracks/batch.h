#ifndef SIMDB_HYRACKS_BATCH_H_
#define SIMDB_HYRACKS_BATCH_H_

// Columnar batch execution support for the hot similarity operators.
//
// The batch path detects a vectorizable similarity check at plan-build time
// (MatchSimCheckCall), encodes token lists into dense
// occurrence-distinct uint32 ids (TokenIdEncoder), stages up to
// ExecContext::batch_size rows into CSR scratch batches (SimIdBatch /
// SimCharBatch with a selection vector of source-row positions), and runs
// the runtime-dispatched simd:: kernels over the whole batch. Rows the
// encoder cannot handle fall back to the tuple evaluator one at a time —
// in source-row order, so evaluation errors surface exactly where the
// tuple path surfaces them. A verify's token-list arguments are evaluated
// and encoded once per distinct string they read (SimArgEncoder), not once
// per row. Both paths are answer-identical (checked by the batch
// differential fuzz seeds).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "adm/value.h"
#include "hyracks/exec.h"
#include "hyracks/expr.h"

namespace simdb::hyracks {

/// Counters for the vectorized path of a batch-capable operator. The full
/// exec.batch.* set is emitted (zeros included) whenever profiling is on,
/// so EXPLAIN PROFILE deterministically shows which operators ran
/// vectorized and which fell back.
struct BatchStats {
  uint64_t rows = 0;       // rows (pairs, for joins) through the kernels
  uint64_t batches = 0;    // kernel batch flushes
  uint64_t fallback_rows = 0;  // rows evaluated tuple-at-a-time
  uint64_t memo_hits = 0;  // arguments served from a SimArgEncoder memo

  void Emit(ExecContext& ctx) const {
    if (ctx.counters == nullptr) return;
    CountOp(ctx, "exec.batch.rows", rows);
    CountOp(ctx, "exec.batch.batches", batches);
    CountOp(ctx, "exec.batch.fallback_rows", fallback_rows);
    CountOp(ctx, "exec.batch.memo_hits", memo_hits);
  }
};

/// Rows (pairs, for joins) staged per kernel batch.
inline size_t BatchCapacity(const ExecContext& ctx) {
  return ctx.batch_size > 0 ? static_cast<size_t>(ctx.batch_size) : 1;
}

/// Transparent string hashing, so a map keyed on std::string is probed with
/// a std::string_view without building a key.
struct SvHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
struct SvEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};

/// A map keyed on string content.
template <typename V>
using StringMap = std::unordered_map<std::string, V, SvHash, SvEq>;

/// The string an expression reads, which keys the per-invocation memos of
/// the similarity operators (verify arguments, inverted-index probe keys).
/// The expression reads a string when Peek finds one in place (a column, a
/// field, a literal), or when it is a one-argument call over such an
/// expression, e.g. word-tokens($r.summary): every registered function is
/// pure, so the call's value is then a function of that string alone. Only
/// string content is a key, never a Value: Value::operator== equates 1 and
/// 1.0, and arrays with multisets.
class StringArg {
 public:
  StringArg() = default;
  explicit StringArg(const ExprPtr& expr);

  /// The string the expression reads from `row`, or nullptr when it reads
  /// none (it must then be evaluated). Valid while `row` and the expression
  /// live.
  const std::string* Key(const Tuple& row) const {
    if (source_ == nullptr) return nullptr;
    const adm::Value* v = source_->Peek(row);
    return v != nullptr && v->is_string() ? &v->AsString() : nullptr;
  }

  /// Whether `other` computes the same function of its string, so both may
  /// share one memo.
  bool SameFunction(const StringArg& other) const { return fn_ == other.fn_; }

 private:
  const Expr* source_ = nullptr;  // the expression Peek reads; null: none
  std::string fn_;  // the one-argument call's name, "" for the identity
};

/// A similarity call the batch path can vectorize.
struct SimBatchCall {
  enum class Kind {
    kJaccardCheck,       // similarity-jaccard-check(a, b, literal-delta)
    kEditDistanceCheck,  // edit-distance-check(a, b, literal-k)
  };
  Kind kind;
  ExprPtr arg_a;
  ExprPtr arg_b;
  double threshold = 0.0;  // delta (Jaccard) or k (edit distance)
  StringArg key_a, key_b;  // the strings arg_a and arg_b read
};

/// Matches the verification predicates the optimizer emits for SELECT,
/// NL-JOIN and HASH-JOIN residuals: similarity-jaccard-check /
/// edit-distance-check with a numeric literal threshold.
std::optional<SimBatchCall> MatchSimCheckCall(const ExprPtr& expr);

/// Accumulates the [min, max] column-reference range of `expr` into
/// *min_col / *max_col. Returns false for expression shapes it does not
/// know (conservative: the caller must not assume side-purity then).
bool ColumnRange(const Expr* expr, int* min_col, int* max_col);

/// One token-list value as TokenIdEncoder::Encode leaves it.
struct EncodedList {
  bool strings = false;  // a list of strings only (also true when empty)
  bool ints = false;     // a list of int64 only (also true when empty)
  std::vector<uint32_t> ids;  // string id space if `strings`, else int64

  /// Encoded in some id space (join sides, encoded independently: a
  /// cross-typed pair then intersects to zero in id space, matching the
  /// boxed-value comparison of the tuple path).
  bool ok() const { return strings || ints; }
};

/// CheckJaccard's dispatch for a pair: both all-strings => string encoding,
/// else both all-int64 => int64 encoding, else the tuple evaluator. An empty
/// list is both, and encodes to no ids in either space.
inline bool SameSpace(const EncodedList& a, const EncodedList& b) {
  return (a.strings && b.strings) || (a.ints && b.ints);
}

/// Encodes token-list values into sorted dense uint32 id lists such that
/// multiset intersection/union sizes are preserved exactly: the k-th
/// occurrence of a token within one list maps to its own id, consistently
/// across every list this encoder sees, so the unique-id SIMD intersection
/// equals the multiset merge of the original tokens. One encoder instance is
/// local to one operator invocation (ids need not be stable across
/// partitions).
class TokenIdEncoder {
 public:
  /// All-strings lists use the string id space, all-int64 lists the int64
  /// id space; anything else (not a list, mixed items) gets no ids.
  void Encode(const adm::Value& v, EncodedList* out);

 private:
  struct Occ {
    uint32_t first_id = 0;
    std::vector<uint32_t> more;  // ids for occurrences 2, 3, ...
    uint32_t epoch = 0;
    uint32_t occ = 0;
  };

  uint32_t IdFor(Occ& o);
  void EncodeStrings(const adm::Value& v, std::vector<uint32_t>* out);
  void EncodeInts(const adm::Value& v, std::vector<uint32_t>* out);

  StringMap<Occ> str_ids_;
  std::unordered_map<int64_t, Occ> int_ids_;
  uint32_t next_id_ = 0;
  uint32_t epoch_ = 0;
};

/// Encodes the two token-list arguments of a similarity call for one
/// operator invocation, once per distinct string an argument reads: a memo
/// maps that string (StringArg) to the encoding, so a repeated value skips
/// both Eval and encoding. Arguments that read no string are evaluated and
/// encoded every time. An argument whose Eval fails is never remembered, so
/// the error surfaces on the same row as on the tuple path.
class SimArgEncoder {
 public:
  explicit SimArgEncoder(const SimBatchCall& call);

  /// Argument `i` (0 = arg_a, 1 = arg_b) of the call over `row`. The
  /// pointer is valid until the next Arg call for the same `i`.
  Result<const EncodedList*> Arg(int i, const Tuple& row);

  /// Arguments served from the memo.
  uint64_t memo_hits() const { return memo_hits_; }

 private:
  const SimBatchCall& call_;
  // arg_b computes the same function of its string as arg_a, so both
  // arguments use memos_[0].
  bool shared_memo_;
  StringMap<EncodedList> memos_[2];
  EncodedList scratch_[2];
  TokenIdEncoder encoder_;
  uint64_t memo_hits_ = 0;
};

/// Columnar scratch batch for Jaccard pairs: two CSR id columns plus the
/// selection vector of source-row positions awaiting a kernel verdict.
struct SimIdBatch {
  std::vector<uint32_t> a_ids, b_ids;
  std::vector<size_t> a_offsets{0}, b_offsets{0};
  std::vector<uint32_t> rows;  // selection vector
  std::vector<double> out;

  size_t size() const { return rows.size(); }
  void Clear() {
    a_ids.clear();
    b_ids.clear();
    a_offsets.assign(1, 0);
    b_offsets.assign(1, 0);
    rows.clear();
  }
  void Push(uint32_t row, const std::vector<uint32_t>& a,
            const std::vector<uint32_t>& b) {
    a_ids.insert(a_ids.end(), a.begin(), a.end());
    b_ids.insert(b_ids.end(), b.begin(), b.end());
    a_offsets.push_back(a_ids.size());
    b_offsets.push_back(b_ids.size());
    rows.push_back(row);
  }
};

/// Columnar scratch batch for edit-distance pairs: two CSR char columns
/// plus the selection vector.
struct SimCharBatch {
  std::vector<char> a_chars, b_chars;
  std::vector<size_t> a_offsets{0}, b_offsets{0};
  std::vector<uint32_t> rows;
  std::vector<int> out;

  size_t size() const { return rows.size(); }
  void Clear() {
    a_chars.clear();
    b_chars.clear();
    a_offsets.assign(1, 0);
    b_offsets.assign(1, 0);
    rows.clear();
  }
  void Push(uint32_t row, const std::string& a, const std::string& b) {
    a_chars.insert(a_chars.end(), a.begin(), a.end());
    b_chars.insert(b_chars.end(), b.begin(), b.end());
    a_offsets.push_back(a_chars.size());
    b_offsets.push_back(b_chars.size());
    rows.push_back(row);
  }
};

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_BATCH_H_
