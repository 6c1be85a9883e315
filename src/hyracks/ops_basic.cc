#include "hyracks/ops_basic.h"

#include <algorithm>

namespace simdb::hyracks {

using adm::Value;

namespace {

/// Scalar SELECT decision for one row: 1 keep, 0 drop, error on a
/// non-boolean non-missing/null predicate value. Shared by the tuple path
/// and the batch path's per-row fallback so their semantics cannot drift.
Result<int> SelectDecision(const ExprPtr& predicate, const Tuple& row) {
  SIMDB_ASSIGN_OR_RETURN(Value v, predicate->Eval(row));
  if (v.is_boolean() && v.AsBoolean()) return 1;
  if (!v.is_boolean() && !v.is_missing() && !v.is_null()) {
    return Status::TypeError("SELECT predicate must return boolean");
  }
  return 0;
}

}  // namespace

Result<Rows> SelectOp::ExecutePartition(ExecContext& ctx, int,
                                        const std::vector<const Rows*>& inputs) {
  const Rows& in = *inputs[0];
  BatchStats bs;
  Rows out;
  if (!ctx.batch_execution || !batch_.has_value()) {
    for (const Tuple& row : in) {
      SIMDB_ASSIGN_OR_RETURN(int keep, SelectDecision(predicate_, row));
      if (keep != 0) out.push_back(row);
    }
    bs.fallback_rows = in.size();
    bs.Emit(ctx);
    return out;
  }

  const SimBatchCall& call = *batch_;
  const size_t cap = BatchCapacity(ctx);
  SimArgEncoder args(call);
  SimIdBatch ids;
  SimCharBatch chars;
  std::vector<int8_t> verdict;  // 0 drop, 1 keep, 2 awaiting kernel
  for (size_t base = 0; base < in.size(); base += cap) {
    const size_t n = std::min(cap, in.size() - base);
    verdict.assign(n, 0);
    ids.Clear();
    chars.Clear();
    for (size_t r = 0; r < n; ++r) {
      const Tuple& row = in[base + r];
      // Arguments evaluate in CallExpr order so evaluation errors surface
      // exactly where the tuple path surfaces them; the threshold is a
      // literal and cannot error.
      bool staged = false;
      if (call.kind == SimBatchCall::Kind::kJaccardCheck) {
        SIMDB_ASSIGN_OR_RETURN(const EncodedList* ea, args.Arg(0, row));
        SIMDB_ASSIGN_OR_RETURN(const EncodedList* eb, args.Arg(1, row));
        if (SameSpace(*ea, *eb)) {
          ids.Push(static_cast<uint32_t>(r), ea->ids, eb->ids);
          staged = true;
        }
      } else {
        SIMDB_ASSIGN_OR_RETURN(Value va, call.arg_a->Eval(row));
        SIMDB_ASSIGN_OR_RETURN(Value vb, call.arg_b->Eval(row));
        if (va.is_string() && vb.is_string()) {
          chars.Push(static_cast<uint32_t>(r), va.AsString(), vb.AsString());
          staged = true;
        }
      }
      if (staged) {
        verdict[r] = 2;
        ++bs.rows;
      } else {
        ++bs.fallback_rows;
        SIMDB_ASSIGN_OR_RETURN(int keep, SelectDecision(predicate_, row));
        verdict[r] = static_cast<int8_t>(keep);
      }
    }
    if (!ids.rows.empty()) {
      ++bs.batches;
      ids.out.resize(ids.size());
      simd::JaccardCheckPairs(ids.a_ids.data(), ids.a_offsets.data(),
                              ids.b_ids.data(), ids.b_offsets.data(),
                              ids.size(), call.threshold, ids.out.data(),
                              /*assume_unique=*/true);
      for (size_t i = 0; i < ids.size(); ++i) {
        verdict[ids.rows[i]] = ids.out[i] >= 0 ? 1 : 0;
      }
    }
    if (!chars.rows.empty()) {
      ++bs.batches;
      chars.out.resize(chars.size());
      simd::EditDistanceCheckPairs(
          chars.a_chars.data(), chars.a_offsets.data(), chars.b_chars.data(),
          chars.b_offsets.data(), chars.size(),
          static_cast<int>(call.threshold), chars.out.data());
      for (size_t i = 0; i < chars.size(); ++i) {
        verdict[chars.rows[i]] = chars.out[i] >= 0 ? 1 : 0;
      }
    }
    for (size_t r = 0; r < n; ++r) {
      if (verdict[r] == 1) out.push_back(in[base + r]);
    }
  }
  bs.memo_hits = args.memo_hits();
  bs.Emit(ctx);
  return out;
}

std::string AssignOp::name() const {
  std::string out = "ASSIGN(";
  for (size_t i = 0; i < names_.size(); ++i) {
    if (i > 0) out += ", ";
    out += names_[i] + ":=" + exprs_[i]->ToString();
  }
  out += ")";
  return out;
}

Result<Rows> AssignOp::ExecutePartition(ExecContext&, int,
                                        const std::vector<const Rows*>& inputs) {
  const Rows& in = *inputs[0];
  Rows out;
  out.reserve(in.size());
  for (const Tuple& row : in) {
    Tuple extended = ExtendedRow(row, exprs_.size());
    // Evaluate against the growing tuple so later expressions may reference
    // the columns produced by earlier ones.
    for (const ExprPtr& e : exprs_) {
      SIMDB_ASSIGN_OR_RETURN(Value v, e->Eval(extended));
      extended.push_back(std::move(v));
    }
    out.push_back(std::move(extended));
  }
  return out;
}

Result<Rows> ProjectOp::ExecutePartition(
    ExecContext&, int, const std::vector<const Rows*>& inputs) {
  Rows out;
  out.reserve(inputs[0]->size());
  for (const Tuple& row : *inputs[0]) {
    Tuple projected;
    projected.reserve(keep_.size());
    for (int k : keep_) {
      if (k < 0 || static_cast<size_t>(k) >= row.size()) {
        return Status::Internal("PROJECT column out of range");
      }
      projected.push_back(row[static_cast<size_t>(k)]);
    }
    out.push_back(std::move(projected));
  }
  return out;
}

Result<Rows> SortOp::ExecutePartition(ExecContext&, int,
                                      const std::vector<const Rows*>& inputs) {
  // Stable-sort a permutation of row positions over the rows' key columns,
  // then copy each row once into its final place: the input is not copied
  // up front and no row moves during the sort.
  const Rows& in = *inputs[0];
  const size_t nkeys = keys_.size();
  std::vector<const Value*> key_values(in.size() * nkeys);
  for (size_t i = 0; i < in.size(); ++i) {
    for (size_t k = 0; k < nkeys; ++k) {
      key_values[i * nkeys + k] = &in[i][static_cast<size_t>(keys_[k].column)];
    }
  }
  std::vector<uint32_t> order(in.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t ia, uint32_t ib) {
    const Value* const* a = &key_values[ia * nkeys];
    const Value* const* b = &key_values[ib * nkeys];
    for (size_t k = 0; k < nkeys; ++k) {
      int c = Value::Compare(*a[k], *b[k]);
      if (c != 0) return keys_[k].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  Rows out;
  out.reserve(in.size());
  for (uint32_t i : order) out.push_back(in[i]);
  return out;
}

Result<Rows> UnnestOp::ExecutePartition(ExecContext&, int,
                                        const std::vector<const Rows*>& inputs) {
  Rows out;
  for (const Tuple& row : *inputs[0]) {
    SIMDB_ASSIGN_OR_RETURN(Value list, list_expr_->Eval(row));
    if (list.is_missing() || list.is_null()) continue;
    if (!list.is_list()) {
      return Status::TypeError(
          "UNNEST expects a list, got " +
          std::string(adm::ValueTypeToString(list.type())));
    }
    int64_t pos = 1;
    for (const Value& item : list.AsList()) {
      Tuple extended = ExtendedRow(row, with_position_ ? 2 : 1);
      extended.push_back(item);
      if (with_position_) extended.push_back(Value::Int64(pos));
      out.push_back(std::move(extended));
      ++pos;
    }
  }
  return out;
}

Result<Rows> UnionAllOp::ExecutePartition(
    ExecContext&, int, const std::vector<const Rows*>& inputs) {
  size_t total = 0;
  for (const Rows* in : inputs) total += in->size();
  Rows out;
  out.reserve(total);
  for (const Rows* in : inputs) {
    out.insert(out.end(), in->begin(), in->end());
  }
  return out;
}

Result<PartitionedRows> RankAssignOp::Execute(
    ExecContext&, const std::vector<const PartitionedRows*>& inputs) {
  if (inputs.size() != 1) return Status::Internal("RANK-ASSIGN input");
  const PartitionedRows& in = *inputs[0];
  for (size_t p = 1; p < in.size(); ++p) {
    if (!in[p].empty()) {
      return Status::Internal(
          "RANK-ASSIGN requires a gathered (single-partition) input");
    }
  }
  PartitionedRows out(in.size());
  int64_t rank = start_;
  if (!in.empty()) {
    out[0].reserve(in[0].size());
    for (const Tuple& row : in[0]) {
      Tuple extended = ExtendedRow(row, 1);
      extended.push_back(Value::Int64(rank++));
      out[0].push_back(std::move(extended));
    }
  }
  return out;
}

Result<PartitionedRows> LimitOp::Execute(
    ExecContext&, const std::vector<const PartitionedRows*>& inputs) {
  if (inputs.size() != 1) return Status::Internal("LIMIT input");
  const PartitionedRows& in = *inputs[0];
  PartitionedRows out(in.size());
  int64_t remaining = limit_;
  for (size_t p = 0; p < in.size() && remaining > 0; ++p) {
    for (const Tuple& row : in[p]) {
      if (remaining-- <= 0) break;
      out[p].push_back(row);
    }
  }
  return out;
}

}  // namespace simdb::hyracks
