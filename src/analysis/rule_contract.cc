#include "analysis/rule_contract.h"

#include <algorithm>
#include <sstream>

#include "analysis/plan_verifier.h"

namespace simdb::analysis {

namespace {

using algebricks::LOp;
using algebricks::LOpKind;
using algebricks::LOpKindToString;
using algebricks::LOpPtr;

uint32_t KindBit(LOpKind kind) { return 1u << static_cast<unsigned>(kind); }

/// First node under `op` whose kind bit is outside `allowed`, if any.
const LOp* FindDisallowedKind(const LOp* op, uint32_t allowed,
                              std::set<const LOp*>* seen) {
  if (op == nullptr || !seen->insert(op).second) return nullptr;
  if ((KindBit(op->kind) & ~allowed) != 0) return op;
  for (const LOpPtr& in : op->inputs) {
    const LOp* hit = FindDisallowedKind(in.get(), allowed, seen);
    if (hit != nullptr) return hit;
  }
  return nullptr;
}

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

}  // namespace

std::string MinimizedPlanDiff(const std::string& before,
                              const std::string& after) {
  std::vector<std::string> a = SplitLines(before);
  std::vector<std::string> b = SplitLines(after);
  size_t prefix = 0;
  while (prefix < a.size() && prefix < b.size() && a[prefix] == b[prefix]) {
    ++prefix;
  }
  size_t suffix = 0;
  while (suffix < a.size() - prefix && suffix < b.size() - prefix &&
         a[a.size() - 1 - suffix] == b[b.size() - 1 - suffix]) {
    ++suffix;
  }
  std::ostringstream out;
  for (size_t i = prefix; i < a.size() - suffix; ++i) {
    out << "- " << a[i] << "\n";
  }
  for (size_t i = prefix; i < b.size() - suffix; ++i) {
    out << "+ " << b[i] << "\n";
  }
  std::string diff = out.str();
  if (diff.empty()) diff = "(plans render identically)\n";
  return diff;
}

void RuleContractChecker::RefreshPlanSnapshot(const LOpPtr& root) {
  if (snapshot_valid_ && snapshot_root_ == root) return;

  shared_before_.clear();
  std::set<const LOp*> shared = [&] {
    auto s = algebricks::CollectSharedNodes(root);
    return std::set<const LOp*>(s.begin(), s.end());
  }();
  // Walk again to recover owning pointers for the shared nodes, so the
  // snapshot survives a rewrite that unlinks them.
  std::set<const LOp*> seen;
  std::vector<LOpPtr> stack{root};
  while (!stack.empty()) {
    LOpPtr node = stack.back();
    stack.pop_back();
    if (node == nullptr || !seen.insert(node.get()).second) continue;
    if (shared.count(node.get()) > 0) {
      shared_before_.emplace(node, node->ToString(0));
    }
    for (const LOpPtr& in : node->inputs) stack.push_back(in);
  }

  root_before_ = root->ToString(0);
  out_vars_memo_.clear();
  kind_mask_memo_.clear();
  snapshot_root_ = root;
  snapshot_valid_ = true;
}

uint32_t RuleContractChecker::KindMask(const LOp* op) {
  auto it = kind_mask_memo_.find(op);
  if (it != kind_mask_memo_.end()) return it->second;
  // Insert before recursing so a (malformed) cyclic plan terminates.
  kind_mask_memo_.emplace(op, 0);
  uint32_t mask = KindBit(op->kind);
  for (const LOpPtr& in : op->inputs) {
    if (in != nullptr) mask |= KindMask(in.get());
  }
  kind_mask_memo_[op] = mask;
  return mask;
}

void RuleContractChecker::BeforeApply(const algebricks::RewriteRule& rule,
                                      const LOpPtr& op, const LOpPtr& root) {
  (void)rule;
  armed_ = true;
  op_before_ = op.get();
  kind_before_ = op->kind;
  input_ptrs_before_.clear();
  for (const LOpPtr& in : op->inputs) input_ptrs_before_.push_back(in.get());

  // Refresh first: it clears the per-generation memos when the plan changed.
  RefreshPlanSnapshot(root);

  auto memo = out_vars_memo_.find(op.get());
  if (memo == out_vars_memo_.end()) {
    std::optional<std::set<std::string>> vars;
    Result<std::vector<std::string>> computed = op->OutputVars();
    if (computed.ok()) {
      vars.emplace(computed.value().begin(), computed.value().end());
    }
    memo = out_vars_memo_.emplace(op.get(), std::move(vars)).first;
  }
  out_vars_before_ = &memo->second;

  kinds_before_mask_ = KindMask(op.get());
}

Status RuleContractChecker::Violation(const std::string& rule,
                                      const std::string& clause,
                                      const LOpPtr& root) const {
  const std::string after_plan = root->ToString(0);
  return Status::PlanError(
      "rule contract: rule '" + rule + "' " + clause + "\nseed plan:\n" +
      root_before_ + "minimized diff:\n" +
      MinimizedPlanDiff(root_before_, after_plan));
}

Status RuleContractChecker::AfterApply(const algebricks::RewriteRule& rule,
                                       const LOpPtr& op, const LOpPtr& root,
                                       bool fired) {
  if (!armed_) {
    return Status::Internal("rule contract: AfterApply without BeforeApply");
  }
  armed_ = false;
  if (!fired) return Status::OK();
  // The plan changed: whatever happens below, the cached whole-plan
  // snapshot no longer describes it.
  snapshot_valid_ = false;

  const algebricks::RuleContract contract = rule.contract();

  if (contract.needs_catalog && catalog_ == nullptr) {
    return Violation(rule.name(), "fired without a catalog", root);
  }

  if (contract.expression_only) {
    bool same_node = op.get() == op_before_ && op->kind == kind_before_ &&
                     op->inputs.size() == input_ptrs_before_.size();
    if (same_node) {
      for (size_t i = 0; i < op->inputs.size(); ++i) {
        same_node = same_node && op->inputs[i].get() == input_ptrs_before_[i];
      }
    }
    if (!same_node) {
      return Violation(rule.name(),
                       "declares expression_only but changed the matched "
                       "node's identity, kind, or input wiring",
                       root);
    }
  }

  if (contract.preserves_output_vars && out_vars_before_ != nullptr &&
      out_vars_before_->has_value()) {
    Result<std::vector<std::string>> vars = op->OutputVars();
    if (vars.ok()) {
      std::set<std::string> now(vars.value().begin(), vars.value().end());
      for (const std::string& v : out_vars_before_->value()) {
        if (now.count(v) == 0) {
          return Violation(rule.name(),
                           "dropped output variable $" + v +
                               " from the rewritten edge",
                           root);
        }
      }
    }
  }

  {
    // Any node of a kind already present in the matched subtree is allowed,
    // so the pointer-level "is this node new" question reduces to a kind-set
    // containment check.
    uint32_t allowed = kinds_before_mask_;
    for (LOpKind k : contract.may_introduce) allowed |= KindBit(k);
    std::set<const LOp*> seen;
    const LOp* offender = FindDisallowedKind(op.get(), allowed, &seen);
    if (offender != nullptr) {
      return Violation(rule.name(),
                       "introduced operator kind " +
                           std::string(LOpKindToString(offender->kind)) +
                           " outside its declared may_introduce set",
                       root);
    }
  }

  if (!contract.shared_mutation_safe) {
    for (const auto& [node, rendering] : shared_before_) {
      if (node->ToString(0) != rendering) {
        return Violation(rule.name(),
                         "mutated a shared (multi-parent) subplan without "
                         "declaring shared_mutation_safe",
                         root);
      }
    }
  }

  Status verified = PlanVerifier::Verify(root, catalog_);
  if (!verified.ok()) {
    return Violation(rule.name(),
                     "produced an invalid plan: " + verified.message(), root);
  }
  return Status::OK();
}

Status RuleContractChecker::AfterGlobalRewrite(const std::string& name,
                                               const LOpPtr& root) {
  // The rewrite changed the plan in place under the same root.
  snapshot_valid_ = false;
  Status verified = PlanVerifier::Verify(root, catalog_);
  if (!verified.ok()) {
    return Status::PlanError("rule contract: global rewrite '" + name +
                             "' produced an invalid plan: " +
                             verified.message() + "\nplan:\n" +
                             root->ToString(0));
  }
  return Status::OK();
}

}  // namespace simdb::analysis
