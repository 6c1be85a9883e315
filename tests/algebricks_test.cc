#include <gtest/gtest.h>

#include "algebricks/jobgen.h"
#include "algebricks/lexpr.h"
#include "algebricks/lop.h"
#include "algebricks/rules.h"
#include "analysis/rule_contract.h"

namespace simdb::algebricks {
namespace {

using adm::Value;

// ---------- LExpr ----------

TEST(LExprTest, ToStringForms) {
  LExprPtr e = LExpr::CallF(
      "ge", {LExpr::CallF("similarity-jaccard",
                          {LExpr::Field(LExpr::Var("t"), "summary"),
                           LExpr::Lit(Value::String("x"))}),
             LExpr::Lit(Value::Double(0.5))});
  EXPECT_EQ(e->ToString(),
            "ge(similarity-jaccard($t.summary, \"x\"), 0.5)");
}

TEST(LExprTest, CollectAndUsesVars) {
  LExprPtr e = LExpr::CallF("eq", {LExpr::Field(LExpr::Var("a"), "x"),
                                   LExpr::Var("b")});
  std::set<std::string> vars;
  e->CollectVars(&vars);
  EXPECT_EQ(vars, (std::set<std::string>{"a", "b"}));
  EXPECT_TRUE(e->UsesOnly({"a", "b", "c"}));
  EXPECT_FALSE(e->UsesOnly({"a"}));
  EXPECT_TRUE(e->UsesAny({"b"}));
  EXPECT_FALSE(e->UsesAny({"z"}));
}

TEST(LExprTest, SplitAndCombineConjuncts) {
  LExprPtr a = LExpr::Var("a"), b = LExpr::Var("b"), c = LExpr::Var("c");
  LExprPtr cond = LExpr::CallF("and", {LExpr::CallF("and", {a, b}), c});
  std::vector<LExprPtr> conjuncts = SplitConjuncts(cond);
  EXPECT_EQ(conjuncts.size(), 3u);
  LExprPtr combined = CombineConjuncts(conjuncts);
  EXPECT_EQ(SplitConjuncts(combined).size(), 3u);
  // Empty conjunct list is the TRUE literal.
  LExprPtr empty = CombineConjuncts({});
  EXPECT_EQ(empty->kind, LExpr::Kind::kLiteral);
  EXPECT_TRUE(empty->literal.AsBoolean());
}

TEST(LExprTest, SubstituteVars) {
  LExprPtr e = LExpr::CallF("eq", {LExpr::Var("a"), LExpr::Var("b")});
  LExprPtr out = SubstituteVars(e, {{"a", LExpr::Lit(Value::Int64(1))}});
  EXPECT_EQ(out->children[0]->kind, LExpr::Kind::kLiteral);
  EXPECT_EQ(out->children[1]->kind, LExpr::Kind::kVar);
}

TEST(LExprTest, EvaluateConstant) {
  LExprPtr e = LExpr::CallF(
      "add", {LExpr::Lit(Value::Int64(2)), LExpr::Lit(Value::Int64(3))});
  EXPECT_EQ((*EvaluateConstant(e)).AsInt64(), 5);
  EXPECT_FALSE(EvaluateConstant(LExpr::Var("free")).ok());
}

// ---------- LOp ----------

TEST(LOpTest, OutputVarsPerKind) {
  LOpPtr scan = MakeDataScan("X", "t");
  EXPECT_EQ(*scan->OutputVars(), (std::vector<std::string>{"t"}));

  LOpPtr assign = MakeAssign(scan, {{"a", LExpr::Lit(Value::Int64(1))}});
  EXPECT_EQ(*assign->OutputVars(), (std::vector<std::string>{"t", "a"}));

  LOpPtr scan2 = MakeDataScan("Y", "u");
  LOpPtr join = MakeJoin(assign, scan2, LExpr::Lit(Value::Boolean(true)));
  EXPECT_EQ(*join->OutputVars(), (std::vector<std::string>{"t", "a", "u"}));

  LOpPtr group = MakeGroupBy(join, {{"k", LExpr::Var("a")}},
                             {{LAgg::Kind::kCount, nullptr, "n"}});
  EXPECT_EQ(*group->OutputVars(), (std::vector<std::string>{"k", "n"}));

  LOpPtr project = MakeProject(group, {"n"});
  EXPECT_EQ(*project->OutputVars(), (std::vector<std::string>{"n"}));
}

TEST(LOpTest, CloneTreeIsDeep) {
  LOpPtr scan = MakeDataScan("X", "t");
  LOpPtr select = MakeSelect(scan, LExpr::Lit(Value::Boolean(true)));
  LOpPtr clone = CloneTree(select);
  EXPECT_NE(clone.get(), select.get());
  EXPECT_NE(clone->inputs[0].get(), scan.get());
  EXPECT_EQ(clone->inputs[0]->dataset, "X");
}

// ---------- rewrite rules ----------

OptContext Ctx() {
  OptContext ctx;
  return ctx;
}

TEST(RulesTest, PushSelectIntoJoin) {
  LOpPtr join = MakeJoin(MakeDataScan("X", "a"), MakeDataScan("Y", "b"),
                         LExpr::Lit(Value::Boolean(true)));
  LOpPtr root = MakeSelect(
      join, LExpr::CallF("eq", {LExpr::Field(LExpr::Var("a"), "k"),
                                LExpr::Field(LExpr::Var("b"), "k")}));
  OptContext ctx = Ctx();
  RuleSet set{"s", {MakePushSelectIntoJoinRule()}, 4};
  ASSERT_TRUE(*ApplyRuleSet(root, set, ctx));
  EXPECT_EQ(root->kind, LOpKind::kJoin);
  EXPECT_EQ(root->expr->name, "eq");
}

TEST(RulesTest, PushSelectBelowJoinSplitsSingleSideConjuncts) {
  LExprPtr left_only = LExpr::CallF(
      "gt", {LExpr::Field(LExpr::Var("a"), "id"), LExpr::Lit(Value::Int64(3))});
  LExprPtr both = LExpr::CallF("eq", {LExpr::Field(LExpr::Var("a"), "k"),
                                      LExpr::Field(LExpr::Var("b"), "k")});
  LOpPtr root = MakeJoin(MakeDataScan("X", "a"), MakeDataScan("Y", "b"),
                         LExpr::CallF("and", {left_only, both}));
  OptContext ctx = Ctx();
  RuleSet set{"s", {MakePushSelectBelowJoinRule()}, 4};
  ASSERT_TRUE(*ApplyRuleSet(root, set, ctx));
  EXPECT_EQ(root->inputs[0]->kind, LOpKind::kSelect);  // pushed to the left
  EXPECT_EQ(root->inputs[1]->kind, LOpKind::kDataScan);
  EXPECT_EQ(SplitConjuncts(root->expr).size(), 1u);  // only the equi stays
}

TEST(RulesTest, RemoveTrivialSelect) {
  LOpPtr root = MakeSelect(MakeDataScan("X", "a"),
                           LExpr::Lit(Value::Boolean(true)));
  OptContext ctx = Ctx();
  RuleSet set{"s", {MakeRemoveTrivialSelectRule()}, 4};
  ASSERT_TRUE(*ApplyRuleSet(root, set, ctx));
  EXPECT_EQ(root->kind, LOpKind::kDataScan);
}

TEST(RulesTest, CountListifyRewrite) {
  // group by collects $t but every use is count($t) -> becomes a count agg.
  LOpPtr scan = MakeDataScan("X", "t");
  LOpPtr group = MakeGroupBy(
      scan, {{"k", LExpr::Field(LExpr::Var("t"), "f")}},
      {{LAgg::Kind::kListify, LExpr::Var("t"), "collected"}});
  LOpPtr root = MakeSelect(
      group, LExpr::CallF("gt", {LExpr::CallF("count", {LExpr::Var("collected")}),
                                 LExpr::Lit(Value::Int64(2))}));
  OptContext ctx = Ctx();
  ASSERT_TRUE(*ApplyCountListifyRewrite(root, ctx));
  EXPECT_EQ(group->group_aggs[0].kind, LAgg::Kind::kCount);
  // The count() call collapsed to the bare variable.
  EXPECT_EQ(root->expr->children[0]->kind, LExpr::Kind::kVar);
}

TEST(RulesTest, CountListifyKeepsListWhenUsedDirectly) {
  LOpPtr scan = MakeDataScan("X", "t");
  LOpPtr group = MakeGroupBy(
      scan, {{"k", LExpr::Field(LExpr::Var("t"), "f")}},
      {{LAgg::Kind::kListify, LExpr::Var("t"), "collected"}});
  // One use is the raw list -> rewrite must NOT fire.
  LOpPtr root = MakeAssign(
      group, {{"out", LExpr::CallF("sort-list", {LExpr::Var("collected")})}});
  OptContext ctx = Ctx();
  EXPECT_FALSE(*ApplyCountListifyRewrite(root, ctx));
  EXPECT_EQ(group->group_aggs[0].kind, LAgg::Kind::kListify);
}

TEST(RulesTest, RuleSetStopsAtFixpoint) {
  LOpPtr root = MakeSelect(MakeDataScan("X", "a"),
                           LExpr::Lit(Value::Boolean(true)));
  OptContext ctx = Ctx();
  RuleSet set{"s", {MakeRemoveTrivialSelectRule()}, 8};
  ASSERT_TRUE(*ApplyRuleSet(root, set, ctx));
  EXPECT_FALSE(*ApplyRuleSet(root, set, ctx));  // nothing left to do
  EXPECT_EQ(ctx.fired_rules.size(), 1u);
}

// ---------- variable cleanup rules ----------

/// Runs `rules` to a fixpoint with the rule-contract checker (contract
/// clauses plus the plan verifier after every firing) installed; whether
/// any rule fired. A contract violation fails the test.
bool ApplyChecked(LOpPtr& root, std::vector<std::shared_ptr<RewriteRule>> rules,
                  OptContext& ctx) {
  analysis::RuleContractChecker checker(nullptr);
  ctx.check_hook = &checker;
  RuleSet set{"s", std::move(rules), 8};
  Result<bool> fired = ApplyRuleSet(root, set, ctx);
  ctx.check_hook = nullptr;
  EXPECT_TRUE(fired.ok()) << fired.status().ToString();
  return fired.ok() && *fired;
}

/// ASSIGN $r := {lid: $g, rid: $h} under PROJECT $r over a GROUP-BY binding
/// $g and $h: the rid-pair record of the three-stage join's stage 3.
LOpPtr PairRecords() {
  LOpPtr group = MakeGroupBy(MakeDataScan("X", "x"),
                             {{"g", LExpr::Field(LExpr::Var("x"), "a")},
                              {"h", LExpr::Field(LExpr::Var("x"), "b")}},
                             {});
  LOpPtr record = MakeAssign(
      group, {{"r", LExpr::Record({"lid", "rid"},
                                  {LExpr::Var("g"), LExpr::Var("h")})}});
  return MakeProject(record, {"r"});
}

LExprPtr FieldEq(const std::string& var, const std::string& field,
                 const std::string& other) {
  return LExpr::CallF("eq", {LExpr::Field(LExpr::Var(var), field),
                             LExpr::Field(LExpr::Var(other), "id")});
}

TEST(RulesTest, FoldFieldOfRecordSeesThroughProjectAndJoin) {
  LOpPtr pairs = PairRecords();
  LOpPtr inner =
      MakeJoin(pairs, MakeDataScan("Y", "l"), FieldEq("r", "lid", "l"));
  LOpPtr root = MakeProject(
      MakeJoin(inner, MakeDataScan("Y", "m"), FieldEq("r", "rid", "m")),
      {"l", "m"});
  OptContext ctx = Ctx();
  ASSERT_TRUE(ApplyChecked(root, {MakeFoldFieldOfRecordRule()}, ctx));
  EXPECT_EQ(inner->expr->ToString(), "eq($g, $l.id)");
  EXPECT_EQ(root->inputs[0]->expr->ToString(), "eq($h, $m.id)");
  // The PROJECT now also passes on what each join reads, the outer join's
  // $h first (rules apply top-down).
  EXPECT_EQ(pairs->project_vars, (std::vector<std::string>{"r", "h", "g"}));
}

TEST(RulesTest, FoldFieldOfRecordLeavesSharedAndComputedFieldsAlone) {
  // A record whose field is computed: folding would evaluate the call again
  // at every reader, so it stays a field access.
  LOpPtr scan = MakeDataScan("X", "x");
  LOpPtr record = MakeProject(
      MakeAssign(scan, {{"r", LExpr::Record(
                                  {"s"}, {LExpr::CallF("sort-list",
                                                       {LExpr::Var("x")})})}}),
      {"r"});
  LOpPtr root = MakeSelect(
      record, LExpr::CallF("eq", {LExpr::Field(LExpr::Var("r"), "s"),
                                  LExpr::Lit(Value::Int64(1))}));
  OptContext ctx = Ctx();
  EXPECT_FALSE(ApplyChecked(root, {MakeFoldFieldOfRecordRule()}, ctx));

  // A shared PROJECT: widening it would change its other parent's output.
  LOpPtr pairs = PairRecords();
  LOpPtr left = MakeJoin(pairs, MakeDataScan("Y", "l"), FieldEq("r", "lid", "l"));
  LOpPtr right = MakeSelect(pairs, LExpr::Lit(Value::Boolean(true)));
  LOpPtr both = MakeJoin(MakeProject(left, {"l"}), MakeProject(right, {"r"}),
                         LExpr::Lit(Value::Boolean(true)));
  ctx = Ctx();
  EXPECT_FALSE(ApplyChecked(both, {MakeFoldFieldOfRecordRule()}, ctx));
  EXPECT_EQ(left->expr->ToString(), "eq($r.lid, $l.id)");
}

TEST(RulesTest, FoldFieldOfRecordNeedsAVariableBoundOnce) {
  // $g is bound under both sides of a shared subplan's two parents: making
  // it visible above the PROJECT could meet its other binding.
  LOpPtr group = MakeGroupBy(MakeDataScan("X", "x"),
                             {{"g", LExpr::Field(LExpr::Var("x"), "a")}}, {});
  LOpPtr pairs = MakeProject(
      MakeAssign(group, {{"r", LExpr::Record({"lid"}, {LExpr::Var("g")})}}),
      {"r"});
  LOpPtr root = MakeJoin(MakeJoin(pairs, MakeDataScan("Y", "l"),
                                  FieldEq("r", "lid", "l")),
                         MakeProject(group, {}),
                         LExpr::Lit(Value::Boolean(true)));
  OptContext ctx = Ctx();
  EXPECT_FALSE(ApplyChecked(root, {MakeFoldFieldOfRecordRule()}, ctx));
}

/// SELECT(ge($s, 0.5)) over ASSIGN $s := similarity-jaccard($x.t, $x.u).
LOpPtr LetBoundSimilarity(LOpPtr* assign) {
  *assign = MakeAssign(
      MakeDataScan("X", "x"),
      {{"s", LExpr::CallF("similarity-jaccard",
                          {LExpr::Field(LExpr::Var("x"), "t"),
                           LExpr::Field(LExpr::Var("x"), "u")})}});
  return MakeSelect(*assign, LExpr::CallF("ge", {LExpr::Var("s"),
                                                LExpr::Lit(Value::Double(0.5))}));
}

TEST(RulesTest, InlineSingleUseLet) {
  LOpPtr assign;
  LOpPtr root = MakeProject(LetBoundSimilarity(&assign), {"x"});
  OptContext ctx = Ctx();
  ASSERT_TRUE(ApplyChecked(root, {MakeInlineSingleUseLetRule()}, ctx));
  EXPECT_EQ(root->inputs[0]->expr->ToString(),
            "ge(similarity-jaccard($x.t, $x.u), 0.5)");
  EXPECT_EQ(root->inputs[0]->inputs[0]->kind, LOpKind::kDataScan);
}

TEST(RulesTest, InlineSingleUseLetKeepsReadOrSharedBindings) {
  // $s is also returned: inlining would evaluate it twice.
  LOpPtr assign;
  LOpPtr root = MakeProject(LetBoundSimilarity(&assign), {"x", "s"});
  OptContext ctx = Ctx();
  EXPECT_FALSE(ApplyChecked(root, {MakeInlineSingleUseLetRule()}, ctx));

  // The ASSIGN is shared with a second parent that does not read $s.
  LOpPtr select = LetBoundSimilarity(&assign);
  root = MakeJoin(MakeProject(select, {"x"}),
                  MakeProject(MakeSelect(assign, LExpr::Lit(Value::Boolean(true))),
                              {}),
                  LExpr::Lit(Value::Boolean(true)));
  ctx = Ctx();
  EXPECT_FALSE(ApplyChecked(root, {MakeInlineSingleUseLetRule()}, ctx));
  EXPECT_EQ(select->inputs[0], assign);
  // Outside a rule set there are no variable counts: the rule stays put.
  EXPECT_FALSE(*MakeInlineSingleUseLetRule()->Apply(select, ctx));
}

TEST(RulesTest, MergeAdjacentProjects) {
  LOpPtr inner = MakeProject(MakeDataScan("X", "x"), {"x"});
  LOpPtr root = MakeProject(inner, {});
  OptContext ctx = Ctx();
  ASSERT_TRUE(ApplyChecked(root, {MakeMergeAdjacentProjectsRule()}, ctx));
  EXPECT_EQ(root->inputs[0]->kind, LOpKind::kDataScan);

  // A shared outer PROJECT is left alone.
  LOpPtr outer = MakeProject(MakeProject(MakeDataScan("X", "y"), {"y"}), {"y"});
  LOpPtr both =
      MakeUnionAll(MakeSelect(outer, LExpr::Lit(Value::Boolean(true))),
                   MakeSelect(outer, LExpr::Lit(Value::Boolean(true))), {"y"});
  ctx = Ctx();
  EXPECT_FALSE(ApplyChecked(both, {MakeMergeAdjacentProjectsRule()}, ctx));
  EXPECT_EQ(outer->inputs[0]->kind, LOpKind::kProject);
}

TEST(RulesTest, DeadVariablesDropUnreadBindingsAndPrunePassThroughProjects) {
  LOpPtr scan = MakeDataScan("X", "x");
  LOpPtr group = MakeGroupBy(
      scan, {{"k", LExpr::Field(LExpr::Var("x"), "k")}},
      {{LAgg::Kind::kListify, LExpr::Var("x"), "unread"},
       {LAgg::Kind::kCount, nullptr, "n"}});
  LOpPtr assign = MakeAssign(
      group, {{"used", LExpr::Var("n")},
              {"dead", LExpr::CallF("len", {LExpr::Var("unread")})}});
  LOpPtr mid = MakeProject(assign, {"k", "used", "dead"});
  LOpPtr root = MakeProject(mid, {"used"});
  OptContext ctx = Ctx();
  ASSERT_TRUE(*ApplyDeadVariableRewrite(root, ctx));
  // `dead` went, which left `unread` (and then `k`'s pass-through) unread.
  ASSERT_EQ(assign->assigns.size(), 1u);
  EXPECT_EQ(assign->assigns[0].first, "used");
  ASSERT_EQ(group->group_aggs.size(), 1u);
  EXPECT_EQ(group->group_aggs[0].out_var, "n");
  EXPECT_EQ(mid->project_vars, (std::vector<std::string>{"used"}));
  EXPECT_EQ(ctx.fired_rules, (std::vector<std::string>{"remove-dead-variables"}));
  EXPECT_FALSE(*ApplyDeadVariableRewrite(root, ctx));
}

TEST(RulesTest, DeadVariablesUnlinkASharedEmptyAssignFromEveryParent) {
  // An ASSIGN shared by two parents, neither of which reads its variable:
  // dropping it is safe for both, and both edges skip the emptied node.
  LOpPtr scan = MakeDataScan("X", "x");
  LOpPtr shared = MakeAssign(scan, {{"t", LExpr::Field(LExpr::Var("x"), "t")}});
  LOpPtr left = MakeProject(shared, {"x"});
  LOpPtr right = MakeSelect(shared, LExpr::Lit(Value::Boolean(true)));
  LOpPtr root = MakeUnionAll(left, MakeProject(right, {"x"}), {"x"});
  OptContext ctx = Ctx();
  ASSERT_TRUE(*ApplyDeadVariableRewrite(root, ctx));
  EXPECT_EQ(left->inputs[0], scan);
  EXPECT_EQ(right->inputs[0], scan);

  // Read by one parent only: the binding stays for both.
  shared = MakeAssign(scan, {{"t", LExpr::Field(LExpr::Var("x"), "t")}});
  root = MakeUnionAll(MakeProject(shared, {"t"}),
                      MakeProject(MakeSelect(shared, LExpr::Lit(Value::Boolean(true))),
                                  {"t"}),
                      {"t"});
  ctx = Ctx();
  EXPECT_FALSE(*ApplyDeadVariableRewrite(root, ctx));
}

TEST(RulesTest, CountVarUsesCountsBindingsPerPath) {
  LOpPtr scan = MakeDataScan("X", "x");
  LOpPtr root = MakeJoin(MakeProject(scan, {}), MakeProject(scan, {"x"}),
                         LExpr::Lit(Value::Boolean(true)));
  VarUses uses = CountVarUses(root);
  EXPECT_EQ(uses["x"].bound, 2);  // one shared scan, two paths
  EXPECT_EQ(uses["x"].projected, 1);
  EXPECT_EQ(uses["x"].reads, 1);  // the root's output
}

// ---------- job generation shapes ----------

TEST(JobGenTest, ScanSelectProject) {
  LOpPtr plan = MakeProject(
      MakeSelect(MakeDataScan("X", "t"),
                 LExpr::CallF("eq", {LExpr::Field(LExpr::Var("t"), "id"),
                                     LExpr::Lit(Value::Int64(1))})),
      {"t"});
  JobGenerator gen;
  hyracks::Job job;
  ASSERT_TRUE(gen.Generate(plan, &job).ok());
  std::string rendered = job.ToString();
  EXPECT_NE(rendered.find("DATA-SCAN"), std::string::npos);
  EXPECT_NE(rendered.find("SELECT"), std::string::npos);
  EXPECT_NE(rendered.find("GATHER"), std::string::npos);
}

TEST(JobGenTest, EquiJoinUsesHashExchanges) {
  LOpPtr join = MakeJoin(
      MakeDataScan("X", "a"), MakeDataScan("Y", "b"),
      LExpr::CallF("eq", {LExpr::Field(LExpr::Var("a"), "k"),
                          LExpr::Field(LExpr::Var("b"), "k")}));
  JobGenerator gen;
  hyracks::Job job;
  ASSERT_TRUE(gen.Generate(join, &job).ok());
  std::string rendered = job.ToString();
  EXPECT_NE(rendered.find("HASH-EXCHANGE"), std::string::npos);
  EXPECT_NE(rendered.find("HASH-JOIN"), std::string::npos);
  EXPECT_EQ(rendered.find("NL-JOIN"), std::string::npos);
}

TEST(JobGenTest, ThetaJoinFallsBackToBroadcastNl) {
  LOpPtr join = MakeJoin(
      MakeDataScan("X", "a"), MakeDataScan("Y", "b"),
      LExpr::CallF("lt", {LExpr::Field(LExpr::Var("a"), "k"),
                          LExpr::Field(LExpr::Var("b"), "k")}));
  JobGenerator gen;
  hyracks::Job job;
  ASSERT_TRUE(gen.Generate(join, &job).ok());
  std::string rendered = job.ToString();
  EXPECT_NE(rendered.find("BROADCAST-EXCHANGE"), std::string::npos);
  EXPECT_NE(rendered.find("NL-JOIN"), std::string::npos);
}

TEST(JobGenTest, BroadcastHintHonored) {
  auto eq = std::make_shared<LExpr>();
  eq->kind = LExpr::Kind::kCall;
  eq->name = "eq";
  eq->children = {LExpr::Field(LExpr::Var("a"), "k"),
                  LExpr::Field(LExpr::Var("b"), "k")};
  eq->bcast_hint = true;
  LOpPtr join = MakeJoin(MakeDataScan("X", "a"), MakeDataScan("Y", "b"),
                         LExprPtr(eq));
  JobGenerator gen;
  hyracks::Job job;
  ASSERT_TRUE(gen.Generate(join, &job).ok());
  std::string rendered = job.ToString();
  EXPECT_NE(rendered.find("BROADCAST-EXCHANGE"), std::string::npos);
  EXPECT_NE(rendered.find("HASH-JOIN"), std::string::npos);
}

TEST(JobGenTest, SharedNodeCompiledOnce) {
  LOpPtr scan = MakeDataScan("X", "a");
  // The same scan feeds both sides of a join (replicate pattern).
  LOpPtr assign = MakeAssign(scan, {{"id", LExpr::Field(LExpr::Var("a"), "id")}});
  LOpPtr join = MakeJoin(assign, assign, LExpr::Lit(Value::Boolean(true)));
  JobGenerator gen;
  hyracks::Job job;
  ASSERT_TRUE(gen.Generate(join, &job).ok());
  int scans = 0;
  for (const auto& node : job.nodes()) {
    if (node.op->name().rfind("DATA-SCAN", 0) == 0) ++scans;
  }
  EXPECT_EQ(scans, 1);  // compiled once, consumed twice
}

TEST(JobGenTest, UnboundVariableIsPlanError) {
  LOpPtr plan = MakeSelect(MakeDataScan("X", "t"),
                           LExpr::CallF("eq", {LExpr::Var("nope"),
                                               LExpr::Lit(Value::Int64(1))}));
  JobGenerator gen;
  hyracks::Job job;
  Status s = gen.Generate(plan, &job);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kPlanError);
}

TEST(JobGenTest, ProjectOfUnboundVariableFails) {
  LOpPtr plan = MakeProject(MakeDataScan("X", "t"), {"ghost"});
  JobGenerator gen;
  hyracks::Job job;
  EXPECT_FALSE(gen.Generate(plan, &job).ok());
}

}  // namespace
}  // namespace simdb::algebricks
