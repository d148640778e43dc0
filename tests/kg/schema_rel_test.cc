// Tests for the GNF-schema -> Rel integrity-constraint bridge: the
// generated `ic` rules enforce on the Engine what Schema::Validate checks
// on the Database.

#include <gtest/gtest.h>

#include "base/error.h"
#include "core/engine.h"
#include "kg/schema.h"

namespace rel {
namespace kg {
namespace {

Value I(int64_t v) { return Value::Int(v); }

class SchemaRel : public ::testing::Test {
 protected:
  SchemaRel() {
    schema_.DeclareKeyValue("ProductPrice", {"product"});
    schema_.DeclareKeyValue("OrderProductQuantity", {"order", "product"});
    engine_.Define(schema_.ToRelConstraints());
  }

  Value Product(const char* id) { return Value::Entity("product", id); }

  Schema schema_;
  Engine engine_;
};

TEST_F(SchemaRel, GeneratedSourceParsesAndLists) {
  std::string source = schema_.ToRelConstraints();
  EXPECT_NE(source.find("ic ProductPrice_functional(k0)"), std::string::npos);
  EXPECT_NE(source.find("ic OrderProductQuantity_functional(k0, k1)"),
            std::string::npos);
  EXPECT_NE(source.find("implies not Entity(x)"), std::string::npos);
}

TEST_F(SchemaRel, ConformingTransactionCommits) {
  engine_.Insert("ProductPrice", {Tuple({Product("P1"), I(10)})});
  EXPECT_NO_THROW(engine_.CheckConstraints());
  TxnResult txn = engine_.OpenSession()->Exec(
      "def insert(:OrderProductQuantity, o, p, q) :\n"
      "  o = \"O1\" and p = \"P1\" and q = 2");
  EXPECT_EQ(txn.inserted, 1u);
}

TEST_F(SchemaRel, FunctionalDependencyEnforcedOnEngine) {
  engine_.Insert("ProductPrice", {Tuple({Product("P1"), I(10)})});
  // A second price for P1 violates the generated FD constraint and the
  // transaction rolls back.
  EXPECT_THROW(
      engine_.OpenSession()->Exec("def insert(:ProductPrice, p, x) :\n"
                                  "  ProductPrice(p, _) and x = 99"),
      ConstraintViolation);
  EXPECT_EQ(engine_.Base("ProductPrice").size(), 1u);
}

TEST_F(SchemaRel, MultiKeyFunctionalDependency) {
  engine_.Insert("OrderProductQuantity",
                 {Tuple({Value::Entity("order", "O1"), Product("P1"), I(2)})});
  EXPECT_NO_THROW(engine_.CheckConstraints());
  engine_.Insert("OrderProductQuantity",
                 {Tuple({Value::Entity("order", "O1"), Product("P1"), I(5)})});
  EXPECT_THROW(engine_.CheckConstraints(), ConstraintViolation);
}

TEST_F(SchemaRel, ValueColumnRejectsEntities) {
  engine_.Insert("ProductPrice",
                 {Tuple({Product("P1"), Product("P2")})});  // entity as price
  EXPECT_THROW(engine_.CheckConstraints(), ConstraintViolation);
}

TEST_F(SchemaRel, EngineAndValidateAgree) {
  // The two enforcement paths (Database-level Validate, Engine-level ics)
  // accept and reject the same states.
  Database db;
  db.Insert("ProductPrice", Tuple({Product("P1"), I(10)}));
  db.Insert("ProductPrice", Tuple({Product("P1"), I(20)}));
  EXPECT_FALSE(schema_.Validate(db).empty());

  Engine engine;
  engine.Define(schema_.ToRelConstraints());
  engine.Insert("ProductPrice", {Tuple({Product("P1"), I(10)}),
                                 Tuple({Product("P1"), I(20)})});
  EXPECT_THROW(engine.CheckConstraints(), ConstraintViolation);
}

}  // namespace
}  // namespace kg
}  // namespace rel
