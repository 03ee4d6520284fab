// Vectorized expression evaluation: arithmetic typing, NULL propagation,
// comparisons, logic, CASE, IS NULL, scalar functions and subquery
// references against a BroadcastEnv.
#include "expr/evaluator.h"

#include <gtest/gtest.h>

namespace gola {
namespace {

ExprPtr BoundCol(const char* name, int index, TypeId type) {
  ExprPtr e = Expr::Col(name);
  e->column_index = index;
  e->type = type;
  return e;
}

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"i", TypeId::kInt64}, {"x", TypeId::kFloat64}, {"s", TypeId::kString}});
    Column xs(TypeId::kFloat64);
    xs.AppendFloat(1.5);
    xs.AppendNull();
    xs.AppendFloat(-2.0);
    chunk_ = Chunk(schema, {Column::MakeInt({1, 2, 3}), std::move(xs),
                            Column::MakeString({"a", "b", "c"})});
  }

  Chunk chunk_;
};

TEST_F(EvaluatorTest, IntegerArithmeticStaysInt) {
  ExprPtr e = Expr::Arith(ArithOp::kAdd, BoundCol("i", 0, TypeId::kInt64),
                          Expr::Lit(Value::Int(10)));
  e->type = TypeId::kInt64;
  auto r = Evaluate(*e, chunk_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->type(), TypeId::kInt64);
  EXPECT_EQ(r->ints()[2], 13);
}

TEST_F(EvaluatorTest, DivisionYieldsFloatAndNullOnZero) {
  ExprPtr e = Expr::Arith(ArithOp::kDiv, Expr::Lit(Value::Float(10.0)),
                          BoundCol("x", 1, TypeId::kFloat64));
  e->type = TypeId::kFloat64;
  auto r = Evaluate(*e, chunk_);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->floats()[0], 10.0 / 1.5);
  EXPECT_TRUE(r->IsNull(1));  // null operand propagates
}

TEST_F(EvaluatorTest, NullComparisonIsFalse) {
  ExprPtr e = Expr::Cmp(CmpOp::kGt, BoundCol("x", 1, TypeId::kFloat64),
                        Expr::Lit(Value::Float(0.0)));
  e->type = TypeId::kBool;
  auto sel = EvaluatePredicate(*e, chunk_);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ((*sel)[0], 1);
  EXPECT_EQ((*sel)[1], 0);  // NULL > 0 → false
  EXPECT_EQ((*sel)[2], 0);
}

TEST_F(EvaluatorTest, StringComparison) {
  ExprPtr e = Expr::Cmp(CmpOp::kGe, BoundCol("s", 2, TypeId::kString),
                        Expr::Lit(Value::String("b")));
  e->type = TypeId::kBool;
  auto sel = EvaluatePredicate(*e, chunk_);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ((*sel)[0], 0);
  EXPECT_EQ((*sel)[1], 1);
  EXPECT_EQ((*sel)[2], 1);
}

TEST_F(EvaluatorTest, MixedStringNumericComparisonErrors) {
  ExprPtr e = Expr::Cmp(CmpOp::kEq, BoundCol("s", 2, TypeId::kString),
                        Expr::Lit(Value::Int(1)));
  e->type = TypeId::kBool;
  EXPECT_FALSE(Evaluate(*e, chunk_).ok());
}

TEST_F(EvaluatorTest, LogicalConnectives) {
  ExprPtr gt0 = Expr::Cmp(CmpOp::kGt, BoundCol("i", 0, TypeId::kInt64),
                          Expr::Lit(Value::Int(1)));
  gt0->type = TypeId::kBool;
  ExprPtr lt3 = Expr::Cmp(CmpOp::kLt, BoundCol("i", 0, TypeId::kInt64),
                          Expr::Lit(Value::Int(3)));
  lt3->type = TypeId::kBool;
  ExprPtr both = Expr::And(gt0, lt3);
  both->type = TypeId::kBool;
  auto sel = EvaluatePredicate(*both, chunk_);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ((*sel)[0], 0);
  EXPECT_EQ((*sel)[1], 1);
  EXPECT_EQ((*sel)[2], 0);

  ExprPtr neither = Expr::Not(both->Clone());
  neither->type = TypeId::kBool;
  auto nsel = EvaluatePredicate(*neither, chunk_);
  ASSERT_TRUE(nsel.ok());
  EXPECT_EQ((*nsel)[0], 1);
}

TEST_F(EvaluatorTest, IsNull) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kIsNull;
  e->literal = Value::Bool(false);  // IS NULL
  e->children.push_back(BoundCol("x", 1, TypeId::kFloat64));
  e->type = TypeId::kBool;
  auto sel = EvaluatePredicate(*e, chunk_);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ((*sel)[0], 0);
  EXPECT_EQ((*sel)[1], 1);
}

TEST_F(EvaluatorTest, CaseExpression) {
  // CASE WHEN i = 1 THEN 100 ELSE i END
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kCase;
  ExprPtr when = Expr::Cmp(CmpOp::kEq, BoundCol("i", 0, TypeId::kInt64),
                           Expr::Lit(Value::Int(1)));
  when->type = TypeId::kBool;
  e->children = {when, Expr::Lit(Value::Int(100)), BoundCol("i", 0, TypeId::kInt64)};
  e->type = TypeId::kInt64;
  auto r = Evaluate(*e, chunk_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetValue(0), Value::Int(100));
  EXPECT_EQ(r->GetValue(2), Value::Int(3));
}

TEST_F(EvaluatorTest, ScalarFunctions) {
  ExprPtr e = Expr::Func("abs", {BoundCol("x", 1, TypeId::kFloat64)});
  e->type = TypeId::kFloat64;
  auto r = Evaluate(*e, chunk_);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->NumericAt(2), 2.0);

  ExprPtr b = Expr::Func("bucket", {BoundCol("x", 1, TypeId::kFloat64),
                                    Expr::Lit(Value::Float(1.0))});
  b->type = TypeId::kFloat64;
  auto rb = Evaluate(*b, chunk_);
  ASSERT_TRUE(rb.ok());
  EXPECT_DOUBLE_EQ(rb->NumericAt(0), 1.0);
  EXPECT_DOUBLE_EQ(rb->NumericAt(2), -2.0);
}

TEST_F(EvaluatorTest, GlobalScalarSubqueryRef) {
  BroadcastEnv env;
  env.SetScalar(3, Value::Float(0.5));
  ExprPtr ref = Expr::SubqueryScalar(3);
  ref->type = TypeId::kFloat64;
  ExprPtr e = Expr::Cmp(CmpOp::kGt, BoundCol("x", 1, TypeId::kFloat64), ref);
  e->type = TypeId::kBool;
  auto sel = EvaluatePredicate(*e, chunk_, &env);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ((*sel)[0], 1);
  EXPECT_EQ((*sel)[2], 0);
}

TEST_F(EvaluatorTest, KeyedSubqueryRefLooksUpPerRow) {
  BroadcastEnv env;
  auto keys = std::make_shared<KeyIndex>();
  keys->Insert(Column::MakeInt({1, 3}), nullptr, nullptr);
  env.SetKeyed(5, std::move(keys), Column::MakeFloat({10, -30}));
  ExprPtr ref = Expr::SubqueryScalar(5, BoundCol("i", 0, TypeId::kInt64));
  ref->type = TypeId::kFloat64;
  auto r = Evaluate(*ref, chunk_, &env);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->NumericAt(0), 10.0);
  EXPECT_TRUE(r->IsNull(1));  // key 2 missing
  EXPECT_DOUBLE_EQ(r->NumericAt(2), -30.0);
}

TEST_F(EvaluatorTest, MembershipSubqueryRef) {
  BroadcastEnv env;
  auto members = std::make_shared<MemberSet>();
  members->keys.Insert(Column::MakeInt({2}), nullptr, nullptr);
  members->member.assign(1, 1);
  env.SetMembership(8, std::move(members));
  ExprPtr in = Expr::SubqueryIn(8, BoundCol("i", 0, TypeId::kInt64), false);
  in->type = TypeId::kBool;
  auto sel = EvaluatePredicate(*in, chunk_, &env);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ((*sel)[0], 0);
  EXPECT_EQ((*sel)[1], 1);

  ExprPtr not_in = Expr::SubqueryIn(8, BoundCol("i", 0, TypeId::kInt64), true);
  not_in->type = TypeId::kBool;
  auto nsel = EvaluatePredicate(*not_in, chunk_, &env);
  ASSERT_TRUE(nsel.ok());
  EXPECT_EQ((*nsel)[0], 1);
  EXPECT_EQ((*nsel)[1], 0);
}

TEST_F(EvaluatorTest, SubqueryRefWithoutEnvErrors) {
  ExprPtr ref = Expr::SubqueryScalar(1);
  ref->type = TypeId::kFloat64;
  EXPECT_FALSE(Evaluate(*ref, chunk_).ok());
}

TEST_F(EvaluatorTest, EvaluateScalarConstantFolding) {
  ExprPtr e = Expr::Arith(ArithOp::kMul, Expr::Lit(Value::Float(3.0)),
                          Expr::Lit(Value::Float(4.0)));
  e->type = TypeId::kFloat64;
  auto v = EvaluateScalar(*e);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v->ToDouble(), 12.0);
}

}  // namespace
}  // namespace gola
