#include "algebricks/rules.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace simdb::algebricks {

namespace {

void CollectSharedNodesImpl(const LOpPtr& op,
                            std::unordered_map<const LOp*, int>& parents) {
  for (const LOpPtr& in : op->inputs) {
    if (++parents[in.get()] == 1) CollectSharedNodesImpl(in, parents);
  }
}

/// Depth-first application of `rule` over the DAG hanging off the edge `op`
/// of the plan `root`. After every firing the shared-node set is rebuilt so
/// rules always see current sharing, and the verify hook (if any) re-checks
/// the rule's contract plus full-plan invariants.
Result<bool> ApplyRuleOnce(LOpPtr& op, LOpPtr& root, RewriteRule& rule,
                           OptContext& ctx,
                           std::unordered_set<const LOp*>& visited,
                           std::unordered_set<const LOp*>& shared,
                           VarUses& uses) {
  bool changed = false;
  if (ctx.check_hook != nullptr) ctx.check_hook->BeforeApply(rule, op, root);
  SIMDB_ASSIGN_OR_RETURN(bool top_changed, rule.Apply(op, ctx));
  if (ctx.check_hook != nullptr) {
    SIMDB_RETURN_IF_ERROR(
        ctx.check_hook->AfterApply(rule, op, root, top_changed));
  }
  if (top_changed) {
    ctx.fired_rules.push_back(rule.name());
    shared = CollectSharedNodes(root);
    uses = CountVarUses(root);
    changed = true;
  }
  if (visited.insert(op.get()).second) {
    for (LOpPtr& input : op->inputs) {
      SIMDB_ASSIGN_OR_RETURN(bool sub, ApplyRuleOnce(input, root, rule, ctx,
                                                     visited, shared, uses));
      changed = changed || sub;
    }
  }
  return changed;
}

/// Invokes `fn` on every expression slot of one node.
void ForEachNodeExpr(LOp& op, const std::function<void(LExprPtr*)>& fn) {
  if (op.expr) fn(&op.expr);
  for (auto& [name, e] : op.assigns) {
    (void)name;
    fn(&e);
  }
  for (auto& [name, e] : op.group_keys) {
    (void)name;
    fn(&e);
  }
  for (LAgg& agg : op.group_aggs) {
    if (agg.input) fn(&agg.input);
  }
  for (LSortKey& k : op.sort_keys) fn(&k.expr);
}

void CountExprReads(const LExprPtr& expr, VarUses* uses) {
  if (expr == nullptr) return;
  if (expr->kind == LExpr::Kind::kVar) ++(*uses)[expr->name].reads;
  for (const LExprPtr& c : expr->children) CountExprReads(c, uses);
}

/// Appends the variables `op` binds anew (a UNION-ALL rebinds its schema).
void BoundVars(const LOp& op, std::vector<std::string>* out) {
  switch (op.kind) {
    case LOpKind::kDataScan:
    case LOpKind::kPrimaryLookup:
      out->push_back(op.out_var);
      break;
    case LOpKind::kAssign:
      for (const auto& a : op.assigns) out->push_back(a.first);
      break;
    case LOpKind::kGroupBy:
      for (const auto& k : op.group_keys) out->push_back(k.first);
      for (const LAgg& agg : op.group_aggs) out->push_back(agg.out_var);
      break;
    case LOpKind::kUnnest:
      out->push_back(op.out_var);
      if (!op.pos_var.empty()) out->push_back(op.pos_var);
      break;
    case LOpKind::kRank:
      out->push_back(op.pos_var);
      break;
    case LOpKind::kIndexSearch:
    case LOpKind::kBtreeSearch:
      out->push_back(op.pk_var);
      break;
    case LOpKind::kUnionAll:
      out->insert(out->end(), op.project_vars.begin(), op.project_vars.end());
      break;
    default:
      break;
  }
}

void PostOrder(const LOpPtr& op, std::unordered_set<const LOp*>& visited,
               std::vector<LOp*>* out) {
  if (!visited.insert(op.get()).second) return;
  for (const LOpPtr& in : op->inputs) PostOrder(in, visited, out);
  out->push_back(op.get());
}

}  // namespace

VarUses CountVarUses(const LOpPtr& root) {
  VarUses uses;
  std::vector<LOp*> order;
  {
    std::unordered_set<const LOp*> visited;
    PostOrder(root, visited, &order);
  }
  // Reverse post-order visits every parent before its inputs, so each
  // node's root-path count is complete when it is reached.
  std::unordered_map<const LOp*, int64_t> paths{{root.get(), 1}};
  std::vector<std::string> bound;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    LOp& op = **it;
    const int64_t n = paths[&op];
    for (const LOpPtr& in : op.inputs) paths[in.get()] += n;
    bound.clear();
    BoundVars(op, &bound);
    for (const std::string& v : bound) uses[v].bound += n;
    ForEachNodeExpr(op, [&](LExprPtr* e) { CountExprReads(*e, &uses); });
    if (op.kind == LOpKind::kProject && &op != root.get()) {
      for (const std::string& v : op.project_vars) ++uses[v].projected;
    }
    if (op.kind == LOpKind::kUnionAll) {
      for (const std::string& v : op.project_vars) ++uses[v].reads;
    }
    if (op.kind == LOpKind::kPrimaryLookup) ++uses[op.pk_var].reads;
  }
  // The query's output is read by whoever runs it.
  Result<std::vector<std::string>> out = root->OutputVars();
  if (out.ok()) {
    for (const std::string& v : out.value()) ++uses[v].reads;
  }
  return uses;
}

std::unordered_set<const LOp*> CollectSharedNodes(const LOpPtr& root) {
  std::unordered_map<const LOp*, int> parents;
  CollectSharedNodesImpl(root, parents);
  std::unordered_set<const LOp*> shared;
  for (const auto& [node, count] : parents) {
    if (count > 1) shared.insert(node);
  }
  return shared;
}

Result<bool> ApplyRuleSet(LOpPtr& root, const RuleSet& set, OptContext& ctx) {
  std::unordered_set<const LOp*> shared = CollectSharedNodes(root);
  VarUses uses = CountVarUses(root);
  const std::unordered_set<const LOp*>* prev_shared = ctx.shared_nodes;
  const VarUses* prev_uses = ctx.var_uses;
  ctx.shared_nodes = &shared;
  ctx.var_uses = &uses;
  auto run = [&]() -> Result<bool> {
    bool any = false;
    for (int pass = 0; pass < set.max_iterations; ++pass) {
      bool changed = false;
      for (const auto& rule : set.rules) {
        std::unordered_set<const LOp*> visited;
        SIMDB_ASSIGN_OR_RETURN(bool c, ApplyRuleOnce(root, root, *rule, ctx,
                                                     visited, shared, uses));
        changed = changed || c;
      }
      any = any || changed;
      if (!changed) break;
    }
    return any;
  };
  Result<bool> result = run();
  ctx.shared_nodes = prev_shared;
  ctx.var_uses = prev_uses;
  return result;
}

namespace {

class PushSelectIntoJoinRule : public RewriteRule {
 public:
  std::string name() const override { return "push-select-into-join"; }

  RuleContract contract() const override {
    RuleContract c;
    c.may_introduce = {};  // reuses the child join node
    return c;
  }

  Result<bool> Apply(LOpPtr& op, OptContext& ctx) override {
    if (op->kind != LOpKind::kSelect) return false;
    LOpPtr join = op->inputs[0];
    if (join->kind != LOpKind::kJoin) return false;
    // Merging this select's condition changes the join's output, which is
    // wrong for any *other* parent of a shared join (e.g. the gt/le corner
    // selects the index-join rewrite hangs off one reused subplan).
    if (ctx.IsShared(join.get())) return false;
    std::vector<LExprPtr> conjuncts = SplitConjuncts(join->expr);
    std::vector<LExprPtr> extra = SplitConjuncts(op->expr);
    conjuncts.insert(conjuncts.end(), extra.begin(), extra.end());
    // Drop TRUE literals.
    std::vector<LExprPtr> kept;
    for (const LExprPtr& c : conjuncts) {
      if (c->kind == LExpr::Kind::kLiteral && c->literal.is_boolean() &&
          c->literal.AsBoolean()) {
        continue;
      }
      kept.push_back(c);
    }
    join->expr = CombineConjuncts(std::move(kept));
    op = join;
    return true;
  }
};

class PushSelectBelowJoinRule : public RewriteRule {
 public:
  std::string name() const override { return "push-select-below-join"; }

  RuleContract contract() const override {
    RuleContract c;
    c.may_introduce = {LOpKind::kSelect};
    // Pushing its own conjuncts below a join leaves the join's output
    // unchanged, so rewriting a shared join is safe for every parent.
    c.shared_mutation_safe = true;
    return c;
  }

  Result<bool> Apply(LOpPtr& op, OptContext&) override {
    if (op->kind != LOpKind::kJoin) return false;
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> lv,
                           op->inputs[0]->OutputVars());
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> rv,
                           op->inputs[1]->OutputVars());
    std::set<std::string> left_vars(lv.begin(), lv.end());
    std::set<std::string> right_vars(rv.begin(), rv.end());

    std::vector<LExprPtr> keep, to_left, to_right;
    for (const LExprPtr& c : SplitConjuncts(op->expr)) {
      if (c->kind == LExpr::Kind::kLiteral && c->literal.is_boolean() &&
          c->literal.AsBoolean()) {
        continue;  // TRUE conjunct
      }
      std::set<std::string> used;
      c->CollectVars(&used);
      if (used.empty()) {
        keep.push_back(c);  // constant non-true condition stays on the join
      } else if (c->UsesOnly(left_vars)) {
        to_left.push_back(c);
      } else if (c->UsesOnly(right_vars)) {
        to_right.push_back(c);
      } else {
        keep.push_back(c);
      }
    }
    if (to_left.empty() && to_right.empty()) return false;
    if (!to_left.empty()) {
      op->inputs[0] =
          MakeSelect(op->inputs[0], CombineConjuncts(std::move(to_left)));
    }
    if (!to_right.empty()) {
      op->inputs[1] =
          MakeSelect(op->inputs[1], CombineConjuncts(std::move(to_right)));
    }
    op->expr = CombineConjuncts(std::move(keep));
    return true;
  }
};

class RemoveTrivialSelectRule : public RewriteRule {
 public:
  std::string name() const override { return "remove-trivial-select"; }

  RuleContract contract() const override {
    RuleContract c;
    c.may_introduce = {};  // only unlinks a node
    return c;
  }

  Result<bool> Apply(LOpPtr& op, OptContext&) override {
    if (op->kind != LOpKind::kSelect) return false;
    const LExprPtr& cond = op->expr;
    if (cond->kind == LExpr::Kind::kLiteral && cond->literal.is_boolean() &&
        cond->literal.AsBoolean()) {
      op = op->inputs[0];
      return true;
    }
    return false;
  }
};

// ---- variable cleanup ----

bool ProducesVar(const LOp& op, const std::string& var) {
  Result<std::vector<std::string>> vars = op.OutputVars();
  if (!vars.ok()) return false;
  return std::find(vars.value().begin(), vars.value().end(), var) !=
         vars.value().end();
}

/// The index of the one input of `op` whose output holds `var`, or -1.
int InputProducing(const LOp& op, const std::string& var) {
  int found = -1;
  for (size_t i = 0; i < op.inputs.size(); ++i) {
    if (!ProducesVar(*op.inputs[i], var)) continue;
    if (found >= 0) return -1;  // bound on both sides: ambiguous
    found = static_cast<int>(i);
  }
  return found;
}

/// A node the fold may look through: it passes its input's variables on
/// (a PROJECT, the listed ones) and binds none of them anew.
bool PassesVarsOn(LOpKind kind) {
  switch (kind) {
    case LOpKind::kSelect:
    case LOpKind::kJoin:
    case LOpKind::kAssign:
    case LOpKind::kProject:
    case LOpKind::kUnnest:
    case LOpKind::kOrderBy:
    case LOpKind::kLocalSort:
    case LOpKind::kLimit:
      return true;
    default:
      return false;
  }
}

/// A field expression cheap enough to evaluate wherever it is read: a
/// variable, a literal, or a field path over a variable.
bool IsCheapFieldValue(const LExprPtr& e) {
  switch (e->kind) {
    case LExpr::Kind::kVar:
    case LExpr::Kind::kLiteral:
      return true;
    case LExpr::Kind::kField:
      return IsCheapFieldValue(e->children[0]);
    default:
      return false;
  }
}

/// Records, for every `$v.f` in `e`, field f under variable v.
void CollectFieldReads(const LExprPtr& e,
                       std::map<std::string, std::set<std::string>>* out) {
  if (e == nullptr) return;
  if (e->kind == LExpr::Kind::kField &&
      e->children[0]->kind == LExpr::Kind::kVar) {
    (*out)[e->children[0]->name].insert(e->name);
    return;
  }
  for (const LExprPtr& c : e->children) CollectFieldReads(c, out);
}

/// Replaces `$var.f` by `fields[f]` wherever `fields` has f.
LExprPtr FoldFields(const LExprPtr& e, const std::string& var,
                    const std::map<std::string, LExprPtr>& fields,
                    bool* changed) {
  if (e == nullptr) return e;
  if (e->kind == LExpr::Kind::kField &&
      e->children[0]->kind == LExpr::Kind::kVar &&
      e->children[0]->name == var) {
    auto it = fields.find(e->name);
    if (it != fields.end()) {
      *changed = true;
      return it->second;
    }
    return e;
  }
  auto copy = std::make_shared<LExpr>(*e);
  for (LExprPtr& c : copy->children) c = FoldFields(c, var, fields, changed);
  return copy;
}

class FoldFieldOfRecordRule : public RewriteRule {
 public:
  std::string name() const override { return "fold-field-of-record"; }

  RuleContract contract() const override {
    RuleContract c;
    c.may_introduce = {};  // rewrites expressions, widens PROJECT lists
    return c;
  }

  Result<bool> Apply(LOpPtr& op, OptContext& ctx) override {
    if (ctx.var_uses == nullptr || ctx.IsShared(op.get())) return false;
    std::map<std::string, std::set<std::string>> reads;  // var -> fields
    ForEachNodeExpr(*op, [&](LExprPtr* e) { CollectFieldReads(*e, &reads); });
    bool changed = false;
    for (const auto& [var, names] : reads) {
      changed |= FoldVar(*op, var, names, ctx);
    }
    return changed;
  }

 private:
  /// Folds `$var.f` in `op`'s expressions, for each f of `names` whose value
  /// the record constructor binding `var` gives as a cheap expression.
  static bool FoldVar(LOp& op, const std::string& var,
                      const std::set<std::string>& names,
                      const OptContext& ctx) {
    // Walk from `op` down to the ASSIGN binding `var`; no shared node may lie
    // on the way (widening it would change its other parents' output).
    std::vector<LOp*> projects;
    LOp* node = &op;
    const LExpr* record = nullptr;
    for (;;) {
      int in = InputProducing(*node, var);
      if (in < 0) return false;
      node = node->inputs[static_cast<size_t>(in)].get();
      if (ctx.IsShared(node)) return false;
      if (node->kind == LOpKind::kAssign) {
        for (const auto& [name, e] : node->assigns) {
          if (name == var) record = e.get();
        }
        if (record != nullptr) break;
      }
      if (!PassesVarsOn(node->kind)) return false;
      if (node->kind == LOpKind::kProject) projects.push_back(node);
    }
    if (record->kind != LExpr::Kind::kRecord) return false;

    // Field name -> expression; a repeated name keeps its last value, as
    // the record constructor does.
    std::map<std::string, LExprPtr> fields;
    for (size_t i = 0; i < record->children.size(); ++i) {
      const std::string& name = record->field_names[i];
      if (names.count(name) > 0 && IsCheapFieldValue(record->children[i])) {
        fields[name] = record->children[i];
      } else {
        fields.erase(name);
      }
    }
    if (fields.empty()) return false;
    std::set<std::string> needed;
    for (const auto& [f, e] : fields) {
      (void)f;
      e->CollectVars(&needed);
    }
    // Widening the PROJECTs makes the needed variables visible up to `op`
    // and beyond; that is safe only for a variable bound once on all paths.
    for (const std::string& v : needed) {
      auto it = ctx.var_uses->find(v);
      if (it == ctx.var_uses->end() || it->second.bound != 1) return false;
    }

    bool changed = false;
    ForEachNodeExpr(op, [&](LExprPtr* e) {
      *e = FoldFields(*e, var, fields, &changed);
    });
    for (LOp* project : projects) {
      for (const std::string& v : needed) {
        if (std::find(project->project_vars.begin(),
                      project->project_vars.end(),
                      v) == project->project_vars.end()) {
          project->project_vars.push_back(v);
        }
      }
    }
    return changed;
  }
};

void CountVarIn(const LExprPtr& e, const std::string& var, int* n) {
  if (e == nullptr) return;
  if (e->kind == LExpr::Kind::kVar && e->name == var) ++*n;
  for (const LExprPtr& c : e->children) CountVarIn(c, var, n);
}

class InlineSingleUseLetRule : public RewriteRule {
 public:
  std::string name() const override { return "inline-single-use-let"; }

  RuleContract contract() const override {
    RuleContract c;
    // The inlined variable leaves the SELECT's output; nothing read it.
    c.preserves_output_vars = false;
    c.may_introduce = {};  // only unlinks a binding
    return c;
  }

  Result<bool> Apply(LOpPtr& op, OptContext& ctx) override {
    if (op->kind != LOpKind::kSelect || ctx.var_uses == nullptr) return false;
    LOpPtr assign = op->inputs[0];
    if (assign->kind != LOpKind::kAssign || ctx.IsShared(op.get()) ||
        ctx.IsShared(assign.get())) {
      return false;
    }
    std::map<std::string, LExprPtr> inline_vars;
    for (const auto& [name, e] : assign->assigns) {
      auto it = ctx.var_uses->find(name);
      if (it == ctx.var_uses->end() || it->second.reads != 1 ||
          it->second.projected != 0) {
        continue;
      }
      int in_cond = 0;
      CountVarIn(op->expr, name, &in_cond);
      if (in_cond == 1) inline_vars[name] = e;
    }
    if (inline_vars.empty()) return false;
    op->expr = SubstituteVars(op->expr, inline_vars);
    auto& assigns = assign->assigns;
    assigns.erase(std::remove_if(assigns.begin(), assigns.end(),
                                 [&](const auto& a) {
                                   return inline_vars.count(a.first) > 0;
                                 }),
                  assigns.end());
    if (assigns.empty()) op->inputs[0] = assign->inputs[0];
    return true;
  }
};

class MergeAdjacentProjectsRule : public RewriteRule {
 public:
  std::string name() const override { return "merge-adjacent-projects"; }

  RuleContract contract() const override {
    RuleContract c;
    c.may_introduce = {};  // only unlinks a node
    return c;
  }

  Result<bool> Apply(LOpPtr& op, OptContext& ctx) override {
    if (op->kind != LOpKind::kProject ||
        op->inputs[0]->kind != LOpKind::kProject || ctx.IsShared(op.get())) {
      return false;
    }
    op->inputs[0] = op->inputs[0]->inputs[0];
    return true;
  }
};

/// Removes every dead binding of one node; true when any went.
bool DropDeadBindings(LOp& op, const LOp* root, const VarUses& uses) {
  auto dead = [&](const std::string& v) {
    auto it = uses.find(v);
    return it == uses.end() || it->second.reads == 0;
  };
  size_t before = op.assigns.size() + op.group_aggs.size();
  op.assigns.erase(
      std::remove_if(op.assigns.begin(), op.assigns.end(),
                     [&](const auto& a) { return dead(a.first); }),
      op.assigns.end());
  op.group_aggs.erase(
      std::remove_if(op.group_aggs.begin(), op.group_aggs.end(),
                     [&](const LAgg& a) { return dead(a.out_var); }),
      op.group_aggs.end());
  bool changed = op.assigns.size() + op.group_aggs.size() != before;
  if (op.kind == LOpKind::kProject && &op != root) {
    size_t n = op.project_vars.size();
    op.project_vars.erase(std::remove_if(op.project_vars.begin(),
                                         op.project_vars.end(), dead),
                          op.project_vars.end());
    changed = changed || op.project_vars.size() != n;
  }
  return changed;
}

bool DropDeadBindingsImpl(const LOpPtr& op, const LOp* root,
                          const VarUses& uses,
                          std::unordered_set<const LOp*>& visited) {
  if (!visited.insert(op.get()).second) return false;
  bool changed = DropDeadBindings(*op, root, uses);
  for (const LOpPtr& in : op->inputs) {
    changed = DropDeadBindingsImpl(in, root, uses, visited) || changed;
  }
  return changed;
}

/// Points every edge at an ASSIGN left without variables at its input.
void UnlinkEmptyAssigns(LOpPtr& edge, std::unordered_set<const LOp*>& visited) {
  while (edge->kind == LOpKind::kAssign && edge->assigns.empty()) {
    edge = edge->inputs[0];
  }
  if (!visited.insert(edge.get()).second) return;
  for (LOpPtr& in : edge->inputs) UnlinkEmptyAssigns(in, visited);
}

// ---- count/listify rewrite ----

/// Walks every expression in the plan, invoking `fn` with a mutable pointer
/// so expressions can be replaced in place.
void ForEachExpr(const LOpPtr& op, std::unordered_set<const LOp*>& visited,
                 const std::function<void(LExprPtr*)>& fn) {
  if (!visited.insert(op.get()).second) return;
  ForEachNodeExpr(*op, fn);
  for (const LOpPtr& in : op->inputs) ForEachExpr(in, visited, fn);
}

/// Counts how often `var` occurs in `expr`, and how many of those occurrences
/// are exactly count($var)/len($var).
void CountUses(const LExprPtr& expr, const std::string& var, int* total,
               int* as_count_arg) {
  if (expr == nullptr) return;
  if (expr->kind == LExpr::Kind::kVar && expr->name == var) {
    ++*total;
    return;
  }
  if (expr->kind == LExpr::Kind::kCall &&
      (expr->name == "count" || expr->name == "len") &&
      expr->children.size() == 1 &&
      expr->children[0]->kind == LExpr::Kind::kVar &&
      expr->children[0]->name == var) {
    ++*total;
    ++*as_count_arg;
    return;
  }
  for (const LExprPtr& c : expr->children) {
    CountUses(c, var, total, as_count_arg);
  }
}

LExprPtr ReplaceCountCalls(const LExprPtr& expr, const std::string& var) {
  if (expr == nullptr) return nullptr;
  if (expr->kind == LExpr::Kind::kCall &&
      (expr->name == "count" || expr->name == "len") &&
      expr->children.size() == 1 &&
      expr->children[0]->kind == LExpr::Kind::kVar &&
      expr->children[0]->name == var) {
    return LExpr::Var(var);
  }
  auto copy = std::make_shared<LExpr>(*expr);
  for (LExprPtr& c : copy->children) c = ReplaceCountCalls(c, var);
  return copy;
}

void CollectGroupBys(const LOpPtr& op, std::unordered_set<const LOp*>& visited,
                     std::vector<LOp*>* out) {
  if (!visited.insert(op.get()).second) return;
  if (op->kind == LOpKind::kGroupBy) out->push_back(op.get());
  for (const LOpPtr& in : op->inputs) CollectGroupBys(in, visited, out);
}

}  // namespace

Result<bool> ApplyCountListifyRewrite(LOpPtr& root, OptContext& ctx) {
  if (!ctx.enable_count_rewrite) return false;
  std::vector<LOp*> group_bys;
  {
    std::unordered_set<const LOp*> visited;
    CollectGroupBys(root, visited, &group_bys);
  }
  bool changed = false;
  for (LOp* gb : group_bys) {
    for (LAgg& agg : gb->group_aggs) {
      if (agg.kind != LAgg::Kind::kListify) continue;
      int total = 0, as_count = 0;
      {
        std::unordered_set<const LOp*> visited;
        ForEachExpr(root, visited, [&](LExprPtr* e) {
          CountUses(*e, agg.out_var, &total, &as_count);
        });
      }
      if (total == 0 || total != as_count) continue;
      // Every use is count($v)/len($v): aggregate a count instead and let
      // the variable itself carry the number.
      agg.kind = LAgg::Kind::kCount;
      agg.input = nullptr;
      {
        std::unordered_set<const LOp*> visited;
        ForEachExpr(root, visited, [&](LExprPtr* e) {
          *e = ReplaceCountCalls(*e, agg.out_var);
        });
      }
      ctx.fired_rules.push_back("count-listify-to-count");
      changed = true;
    }
  }
  if (changed && ctx.check_hook != nullptr) {
    SIMDB_RETURN_IF_ERROR(
        ctx.check_hook->AfterGlobalRewrite("count-listify-to-count", root));
  }
  return changed;
}

Result<bool> ApplyDeadVariableRewrite(LOpPtr& root, OptContext& ctx) {
  bool changed = false;
  // Each pass can leave the variables a dropped expression read unread.
  for (;;) {
    VarUses uses = CountVarUses(root);
    std::unordered_set<const LOp*> visited;
    if (!DropDeadBindingsImpl(root, root.get(), uses, visited)) break;
    visited.clear();
    UnlinkEmptyAssigns(root, visited);
    changed = true;
  }
  if (!changed) return false;
  ctx.fired_rules.push_back("remove-dead-variables");
  if (ctx.check_hook != nullptr) {
    SIMDB_RETURN_IF_ERROR(
        ctx.check_hook->AfterGlobalRewrite("remove-dead-variables", root));
  }
  return true;
}

std::shared_ptr<RewriteRule> MakeFoldFieldOfRecordRule() {
  return std::make_shared<FoldFieldOfRecordRule>();
}

std::shared_ptr<RewriteRule> MakeMergeAdjacentProjectsRule() {
  return std::make_shared<MergeAdjacentProjectsRule>();
}

std::shared_ptr<RewriteRule> MakeInlineSingleUseLetRule() {
  return std::make_shared<InlineSingleUseLetRule>();
}

std::shared_ptr<RewriteRule> MakePushSelectIntoJoinRule() {
  return std::make_shared<PushSelectIntoJoinRule>();
}

std::shared_ptr<RewriteRule> MakePushSelectBelowJoinRule() {
  return std::make_shared<PushSelectBelowJoinRule>();
}

std::shared_ptr<RewriteRule> MakeRemoveTrivialSelectRule() {
  return std::make_shared<RemoveTrivialSelectRule>();
}

}  // namespace simdb::algebricks
