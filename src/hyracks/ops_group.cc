#include "hyracks/ops_group.h"

#include <unordered_map>

#include "storage/key.h"

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
  // executor), found through the encoded key tuple.
  std::unordered_map<std::string, size_t> slots;
  std::vector<GroupState> groups;
  for (const Tuple& row : *inputs[0]) {
    Tuple keys;
    keys.reserve(key_exprs_.size() + aggs_.size());  // the output row's width
    for (const ExprPtr& ke : key_exprs_) {
      SIMDB_ASSIGN_OR_RETURN(Value k, ke->Eval(row));
      keys.push_back(std::move(k));
    }
    auto [it, inserted] =
        slots.try_emplace(storage::EncodeKey(keys), groups.size());
    if (inserted) groups.emplace_back();
    GroupState& g = groups[it->second];
    if (inserted) {
      g.keys = std::move(keys);
      g.aggs.resize(aggs_.size());
    }
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
