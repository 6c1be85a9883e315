#include "hyracks/ops_group.h"

#include "hyracks/key_index.h"

namespace simdb::hyracks {

using adm::Value;

namespace {

/// Running state of one aggregate within one group.
struct AggState {
  Value acc;          // kSum / kMin / kMax / kFirst
  int64_t count = 0;  // rows seen (the kCount result)
  Value::Array list;  // kListify
};

struct GroupState {
  Tuple keys;  // becomes the output row
  std::vector<AggState> aggs;  // one per AggSpec
};

}  // namespace

Result<Rows> HashGroupOp::ExecutePartition(
    ExecContext&, int, const std::vector<const Rows*>& inputs) {
  // Group states in first-seen order (so results are deterministic under any
  // executor), found through the key values in place: a key expression that
  // reads a column is peeked, any other is evaluated into `computed`.
  const size_t nkeys = key_exprs_.size();
  KeyIndex slots;
  std::vector<GroupState> groups;
  std::vector<const Value*> key(nkeys);
  Tuple computed(nkeys);
  for (const Tuple& row : *inputs[0]) {
    for (size_t k = 0; k < nkeys; ++k) {
      key[k] = key_exprs_[k]->Peek(row);
      if (key[k] == nullptr) {
        SIMDB_ASSIGN_OR_RETURN(computed[k], key_exprs_[k]->Eval(row));
        key[k] = &computed[k];
      }
    }
    uint64_t hash = HashKeyValues(nkeys, [&](size_t k) -> const Value& {
      return *key[k];
    });
    auto [slot, inserted] = slots.FindOrInsert(hash, [&](uint32_t s) {
      const Tuple& seen = groups[s].keys;
      for (size_t k = 0; k < nkeys; ++k) {
        if (!Value::Identical(seen[k], *key[k])) return false;
      }
      return true;
    });
    if (inserted) {
      GroupState& g = groups.emplace_back();
      g.keys.reserve(nkeys + aggs_.size());  // the output row's width
      for (const Value* v : key) g.keys.push_back(*v);
      g.aggs.resize(aggs_.size());
    }
    GroupState& g = groups[slot];
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const AggSpec& spec = aggs_[a];
      AggState& st = g.aggs[a];
      if (spec.kind == AggSpec::Kind::kCount) {
        ++st.count;
        continue;
      }
      SIMDB_ASSIGN_OR_RETURN(Value v, spec.input->Eval(row));
      switch (spec.kind) {
        case AggSpec::Kind::kSum: {
          if (!v.is_numeric()) {
            return Status::TypeError("sum over non-numeric value");
          }
          if (st.count == 0) {
            st.acc = v;
          } else if (st.acc.is_int64() && v.is_int64()) {
            st.acc = Value::Int64(st.acc.AsInt64() + v.AsInt64());
          } else {
            st.acc = Value::Double(st.acc.AsNumber() + v.AsNumber());
          }
          ++st.count;
          break;
        }
        case AggSpec::Kind::kMin:
          if (st.count == 0 || Value::Compare(v, st.acc) < 0) {
            st.acc = v;
          }
          ++st.count;
          break;
        case AggSpec::Kind::kMax:
          if (st.count == 0 || Value::Compare(v, st.acc) > 0) {
            st.acc = v;
          }
          ++st.count;
          break;
        case AggSpec::Kind::kFirst:
          if (st.count == 0) st.acc = v;
          ++st.count;
          break;
        case AggSpec::Kind::kListify:
          st.list.push_back(std::move(v));
          ++st.count;
          break;
        case AggSpec::Kind::kCount:
          break;  // handled above
      }
    }
  }
  Rows rows;
  rows.reserve(groups.size());
  for (GroupState& g : groups) {
    Tuple row = std::move(g.keys);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      AggState& st = g.aggs[a];
      switch (aggs_[a].kind) {
        case AggSpec::Kind::kCount:
          row.push_back(Value::Int64(st.count));
          break;
        case AggSpec::Kind::kListify:
          row.push_back(Value::MakeArray(std::move(st.list)));
          break;
        default:
          row.push_back(st.count == 0 ? Value::Null() : std::move(st.acc));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace simdb::hyracks
