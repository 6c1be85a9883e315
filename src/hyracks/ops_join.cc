#include "hyracks/ops_join.h"

#include "hyracks/key_index.h"

namespace simdb::hyracks {

using adm::Value;

namespace {

constexpr uint32_t kNoRow = UINT32_MAX;

/// A MISSING or NULL key column: such a row never joins.
bool HasNullKey(const Tuple& row, const std::vector<int>& columns) {
  for (int c : columns) {
    const Value& v = row[static_cast<size_t>(c)];
    if (v.is_missing() || v.is_null()) return true;
  }
  return false;
}

uint64_t HashKey(const Tuple& row, const std::vector<int>& columns) {
  return HashKeyValues(columns.size(), [&](size_t k) -> const Value& {
    return row[static_cast<size_t>(columns[k])];
  });
}

bool SameKey(const Tuple& a, const std::vector<int>& a_columns, const Tuple& b,
             const std::vector<int>& b_columns) {
  for (size_t k = 0; k < a_columns.size(); ++k) {
    if (!Value::Identical(a[static_cast<size_t>(a_columns[k])],
                          b[static_cast<size_t>(b_columns[k])])) {
      return false;
    }
  }
  return true;
}

}  // namespace

HashJoinOp::HashJoinOp(std::vector<int> left_keys, std::vector<int> right_keys,
                       ExprPtr residual)
    : left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)),
      batch_(MatchSimCheckCall(residual_)) {
  if (batch_.has_value() &&
      (batch_->kind != SimBatchCall::Kind::kJaccardCheck ||
       !ColumnRange(batch_->arg_a.get(), &a_min_, &a_max_) ||
       !ColumnRange(batch_->arg_b.get(), &b_min_, &b_max_))) {
    batch_.reset();
  }
}

Result<Rows> HashJoinOp::ExecutePartition(
    ExecContext& ctx, int, const std::vector<const Rows*>& inputs) {
  const Rows& left = *inputs[0];
  const Rows& right = *inputs[1];
  // Build on the right side: one slot per distinct key, whose rows chain
  // through `next` in input order.
  KeyIndex index;
  std::vector<uint32_t> head, tail;
  std::vector<uint32_t> next(right.size(), kNoRow);
  for (uint32_t j = 0; j < right.size(); ++j) {
    const Tuple& row = right[j];
    if (HasNullKey(row, right_keys_)) continue;
    auto [slot, inserted] =
        index.FindOrInsert(HashKey(row, right_keys_), [&](uint32_t s) {
          return SameKey(right[head[s]], right_keys_, row, right_keys_);
        });
    if (inserted) {
      head.push_back(j);
      tail.push_back(j);
    } else {
      next[tail[slot]] = j;
      tail[slot] = j;
    }
  }
  // The first build row matching a probe row; the rest follow via `next`.
  auto first_match = [&](const Tuple& lrow) -> uint32_t {
    if (HasNullKey(lrow, left_keys_)) return kNoRow;
    uint32_t slot = index.Find(HashKey(lrow, left_keys_), [&](uint32_t s) {
      return SameKey(right[head[s]], right_keys_, lrow, left_keys_);
    });
    return slot == KeyIndex::kEmpty ? kNoRow : head[slot];
  };

  uint64_t probe_matches = 0;
  uint64_t residual_dropped = 0;
  BatchStats bs;
  Rows rows;
  // The batch path needs each argument to read only one input's columns
  // (checked against this partition's actual widths).
  const int lw = left.empty() ? 0 : static_cast<int>(left[0].size());
  const int total =
      right.empty() ? lw : lw + static_cast<int>(right[0].size());
  auto reads_right = [&](int lo, int hi) { return lo >= lw && hi < total; };
  const bool a_left = a_max_ < lw && reads_right(b_min_, b_max_);
  const bool b_left = b_max_ < lw && reads_right(a_min_, a_max_);
  if (!ctx.batch_execution || !batch_.has_value() || !(a_left || b_left)) {
    for (const Tuple& lrow : left) {
      for (uint32_t j = first_match(lrow); j != kNoRow; j = next[j]) {
        ++probe_matches;
        Tuple combined = ConcatRows(lrow, right[j]);
        if (residual_ != nullptr) {
          SIMDB_ASSIGN_OR_RETURN(Value keep, residual_->Eval(combined));
          if (!keep.is_boolean() || !keep.AsBoolean()) {
            ++residual_dropped;
            continue;
          }
        }
        rows.push_back(std::move(combined));
      }
    }
    bs.fallback_rows = probe_matches;
  } else {
    const SimBatchCall& call = *batch_;
    const ExprPtr& left_expr = a_left ? call.arg_a : call.arg_b;
    const ExprPtr& right_expr = a_left ? call.arg_b : call.arg_a;
    const size_t cap = BatchCapacity(ctx);
    TokenIdEncoder encoder;
    EncodedList probe;  // the current probe row's argument
    std::vector<int32_t> build_slot(right.size(), -1);  // into build_enc
    std::vector<EncodedList> build_enc;
    // A build row behind left-width padding: the right argument reads no
    // left column, so the padding values are never touched.
    Tuple padded;
    auto build_arg = [&](uint32_t j) -> Result<const EncodedList*> {
      if (build_slot[j] >= 0) {
        ++bs.memo_hits;
      } else {
        padded.resize(static_cast<size_t>(lw));
        padded.insert(padded.end(), right[j].begin(), right[j].end());
        SIMDB_ASSIGN_OR_RETURN(Value v, right_expr->Eval(padded));
        build_slot[j] = static_cast<int32_t>(build_enc.size());
        encoder.Encode(v, &build_enc.emplace_back());
      }
      return &build_enc[static_cast<size_t>(build_slot[j])];
    };

    // Matches in pair order, each kept (1), dropped (0) or awaiting the
    // kernel (2); combined rows are built for the kept ones only.
    struct Pending {
      uint32_t l, r;
      int8_t verdict;
    };
    std::vector<Pending> pending;
    SimIdBatch ids;
    auto flush = [&] {
      if (!ids.rows.empty()) {
        ++bs.batches;
        ids.out.resize(ids.size());
        simd::JaccardCheckPairs(ids.a_ids.data(), ids.a_offsets.data(),
                                ids.b_ids.data(), ids.b_offsets.data(),
                                ids.size(), call.threshold, ids.out.data(),
                                /*assume_unique=*/true);
        for (size_t i = 0; i < ids.size(); ++i) {
          pending[ids.rows[i]].verdict = ids.out[i] >= 0 ? 1 : 0;
        }
      }
      for (const Pending& m : pending) {
        if (m.verdict == 1) {
          rows.push_back(ConcatRows(left[m.l], right[m.r]));
        } else {
          ++residual_dropped;
        }
      }
      pending.clear();
      ids.Clear();
    };

    for (uint32_t l = 0; l < left.size(); ++l) {
      bool probe_ready = false;
      for (uint32_t j = first_match(left[l]); j != kNoRow; j = next[j]) {
        ++probe_matches;
        // Arguments in the call's order, each side's encoded once: an Eval
        // error surfaces at the pair where the tuple path raises it.
        const EncodedList* enc[2];
        for (int i = 0; i < 2; ++i) {
          if ((i == 0) != a_left) {
            SIMDB_ASSIGN_OR_RETURN(enc[i], build_arg(j));
          } else if (probe_ready) {
            ++bs.memo_hits;
            enc[i] = &probe;
          } else {
            SIMDB_ASSIGN_OR_RETURN(Value v, left_expr->Eval(left[l]));
            encoder.Encode(v, &probe);
            probe_ready = true;
            enc[i] = &probe;
          }
        }
        if (SameSpace(*enc[0], *enc[1])) {
          ++bs.rows;
          ids.Push(static_cast<uint32_t>(pending.size()), enc[0]->ids,
                   enc[1]->ids);
          pending.push_back({l, j, 2});
        } else {
          ++bs.fallback_rows;
          SIMDB_ASSIGN_OR_RETURN(
              Value keep, residual_->Eval(ConcatRows(left[l], right[j])));
          pending.push_back(
              {l, j, static_cast<int8_t>(keep.is_boolean() && keep.AsBoolean())});
        }
        if (pending.size() >= cap) flush();
      }
    }
    flush();
  }
  if (ctx.counters != nullptr) {
    CountOp(ctx, "join.build_rows", right.size());
    CountOp(ctx, "join.probe_rows", left.size());
    CountOp(ctx, "join.matches", probe_matches);
    CountOp(ctx, "join.residual_dropped", residual_dropped);
  }
  // Only a join with a similarity residual reports the batch counters.
  if (batch_.has_value()) bs.Emit(ctx);
  return rows;
}

Result<Rows> NestedLoopJoinOp::ExecutePartition(
    ExecContext& ctx, int, const std::vector<const Rows*>& inputs) {
  const Rows& left = *inputs[0];
  const Rows& right = *inputs[1];
  const size_t left_width = left.empty() ? 0 : left[0].size();
  uint64_t matches = 0;
  BatchStats bs;
  Rows rows;

  // The batch path needs each argument to read only one input's columns
  // (checked against this partition's actual widths): arg_a the left and
  // arg_b the right, or the other way round (the edit-distance corner-case
  // branch reads its search key from the right). Each side is then
  // evaluated and tokenized once per row instead of once per pair.
  const int lw = static_cast<int>(left_width);
  const int total =
      right.empty() ? lw : static_cast<int>(left_width + right[0].size());
  auto reads_right = [&](int lo, int hi) { return lo >= lw && hi < total; };
  const bool a_left = a_max_ < lw && reads_right(b_min_, b_max_);
  const bool b_left = b_max_ < lw && reads_right(a_min_, a_max_);
  const bool use_batch = ctx.batch_execution && batch_.has_value() &&
                         sides_pure_ && !left.empty() && !right.empty() &&
                         (a_left || b_left);
  if (!use_batch) {
    for (const Tuple& lrow : left) {
      for (const Tuple& rrow : right) {
        Tuple combined = ConcatRows(lrow, rrow);
        SIMDB_ASSIGN_OR_RETURN(Value keep, predicate_->Eval(combined));
        if (keep.is_boolean() && keep.AsBoolean()) {
          ++matches;
          rows.push_back(std::move(combined));
        }
      }
    }
    bs.fallback_rows = left.size() * right.size();
    if (ctx.counters != nullptr) {
      CountOp(ctx, "nljoin.pairs", left.size() * right.size());
      CountOp(ctx, "nljoin.matches", matches);
    }
    bs.Emit(ctx);
    return rows;
  }

  const SimBatchCall& call = *batch_;
  const bool jaccard = call.kind == SimBatchCall::Kind::kJaccardCheck;
  // Argument index (0 = arg_a, 1 = arg_b) reading each input. Both kernels
  // are symmetric in their two arguments, so the left argument's value is
  // always the probe and the right argument's values the batch.
  const int left_arg = a_left ? 0 : 1;
  const int right_arg = 1 - left_arg;
  const ExprPtr& left_expr = a_left ? call.arg_a : call.arg_b;
  const ExprPtr& right_expr = a_left ? call.arg_b : call.arg_a;
  SimArgEncoder args(call);

  // The right argument over every right row, evaluated over a left-width
  // padded tuple (it reads no left column, so the padding values are never
  // touched). The CSR keeps one entry per right row — empty for unencodable
  // rows, which are tracked separately in right_ok since an empty list is a
  // valid encoding.
  std::vector<char> right_ok(right.size(), 0);
  std::vector<uint32_t> r_ids;
  std::vector<char> r_chars;
  std::vector<size_t> r_offsets{0};
  Tuple padded(left_width);
  auto add_right = [&](size_t j) -> Status {
    padded.resize(left_width);
    padded.insert(padded.end(), right[j].begin(), right[j].end());
    if (jaccard) {
      SIMDB_ASSIGN_OR_RETURN(const EncodedList* e, args.Arg(right_arg, padded));
      if (e->ok()) {
        right_ok[j] = 1;
        r_ids.insert(r_ids.end(), e->ids.begin(), e->ids.end());
      }
      r_offsets.push_back(r_ids.size());
    } else {
      SIMDB_ASSIGN_OR_RETURN(Value v, right_expr->Eval(padded));
      if (v.is_string()) {
        right_ok[j] = 1;
        r_chars.insert(r_chars.end(), v.AsString().begin(),
                       v.AsString().end());
      }
      r_offsets.push_back(r_chars.size());
    }
    return Status::OK();
  };

  // The left argument of the current left row: its encoding (Jaccard) or
  // its value (edit distance).
  const EncodedList* probe = nullptr;
  Value left_value;
  auto eval_left = [&](size_t l) -> Status {
    if (jaccard) {
      SIMDB_ASSIGN_OR_RETURN(probe, args.Arg(left_arg, left[l]));
      return Status::OK();
    }
    SIMDB_ASSIGN_OR_RETURN(left_value, left_expr->Eval(left[l]));
    return Status::OK();
  };

  auto left_ok = [&] {
    return jaccard ? probe->ok() : left_value.is_string();
  };
  // The predicate over pair (l, j), for pairs the kernels cannot take.
  auto tuple_keep = [&](size_t l, size_t j) -> Result<bool> {
    SIMDB_ASSIGN_OR_RETURN(Value keep,
                           predicate_->Eval(ConcatRows(left[l], right[j])));
    return keep.is_boolean() && keep.AsBoolean();
  };

  // The tuple path evaluates pair (l0, r0) — arg_a, arg_b, then the
  // predicate — then pair (l0, r1), ...: the right argument over r1..rn
  // interleaves with the predicate of row l0's pairs the kernels cannot
  // take, and rows l1, l2, ... start with their left argument. The same
  // order here keeps the first error (if any) identical to the tuple path's.
  std::vector<char> first_row_keep(right.size(), 0);
  if (!a_left) SIMDB_RETURN_IF_ERROR(add_right(0));
  SIMDB_RETURN_IF_ERROR(eval_left(0));
  for (size_t j = 0; j < right.size(); ++j) {
    if (j > 0 || a_left) SIMDB_RETURN_IF_ERROR(add_right(j));
    if (!left_ok() || right_ok[j] == 0) {
      SIMDB_ASSIGN_OR_RETURN(bool keep, tuple_keep(0, j));
      first_row_keep[j] = keep ? 1 : 0;
    }
  }

  std::vector<double> jacc_out;
  std::vector<int> ed_out;
  for (size_t l = 0; l < left.size(); ++l) {
    if (l > 0) SIMDB_RETURN_IF_ERROR(eval_left(l));
    const bool lok = left_ok();
    if (lok && jaccard) {
      ++bs.batches;
      jacc_out.resize(right.size());
      simd::JaccardCheckBatch(probe->ids.data(), probe->ids.size(),
                              r_ids.data(), r_offsets.data(), right.size(),
                              call.threshold, jacc_out.data(),
                              /*assume_unique=*/true);
    } else if (lok) {
      ++bs.batches;
      ed_out.resize(right.size());
      simd::EditDistancePattern pattern(left_value.AsString());
      pattern.CheckBatch(r_chars.data(), r_offsets.data(), right.size(),
                         static_cast<int>(call.threshold), ed_out.data());
    }
    for (size_t j = 0; j < right.size(); ++j) {
      bool keep;
      if (lok && right_ok[j] != 0) {
        ++bs.rows;
        keep = jaccard ? jacc_out[j] >= 0 : ed_out[j] >= 0;
      } else if (l == 0) {
        ++bs.fallback_rows;
        keep = first_row_keep[j] != 0;
      } else {
        ++bs.fallback_rows;
        SIMDB_ASSIGN_OR_RETURN(keep, tuple_keep(l, j));
      }
      if (keep) {
        ++matches;
        rows.push_back(ConcatRows(left[l], right[j]));
      }
    }
  }
  if (ctx.counters != nullptr) {
    CountOp(ctx, "nljoin.pairs", left.size() * right.size());
    CountOp(ctx, "nljoin.matches", matches);
  }
  bs.memo_hits = args.memo_hits();
  bs.Emit(ctx);
  return rows;
}

}  // namespace simdb::hyracks
