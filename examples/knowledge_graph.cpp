// Building a relational knowledge graph (Sections 2 and 6): a record-model
// dataset is decomposed into Graph Normal Form, validated against a GNF
// schema (6NF shapes + the unique-identifier property), and then queried
// through Rel rules that define the *semantic layer* — derived concepts on
// top of the stored facts.
//
// Build & run:  ./build/examples/knowledge_graph

#include <cstdio>

#include "base/error.h"
#include "core/engine.h"
#include "kg/entity.h"
#include "kg/gnf.h"
#include "kg/schema.h"

using rel::Engine;
using rel::Relation;
using rel::Tuple;
using rel::Value;

int main() {
  // --- 1. Record-model input (ER-style rows, NULLs included) -----------------
  rel::kg::RecordSpec product_spec{"product", "Product", {"Name", "Price"}};
  std::vector<rel::kg::WideRow> products = {
      {"P1", {Value::String("widget"), Value::Int(10)}},
      {"P2", {Value::String("gadget"), Value::Int(20)}},
      {"P3", {Value::String("gizmo"), Value::Int(30)}},
      {"P4", {std::nullopt, Value::Int(40)}},  // name unknown: NULL
  };

  rel::kg::EntityRegistry registry;
  rel::Database db;
  DecomposeRecords(product_spec, products, &registry, &db);
  std::printf("GNF relations after decomposition: ");
  for (const std::string& name : db.Names()) std::printf("%s ", name.c_str());
  std::printf("\n  (the NULL name of P4 is simply an absent tuple)\n");

  // --- 2. Declare and validate the GNF schema --------------------------------
  rel::kg::Schema schema;
  DeclareRecord(product_spec, &schema);
  schema.DeclareAllKey("PaymentOrder", {"payment", "order"});
  schema.DeclareKeyValue("PaymentAmount", {"payment"});
  schema.DeclareKeyValue("OrderProductQuantity", {"order", "product"});

  db.Insert("PaymentOrder", Tuple({registry.Get("payment", "Pmt1"),
                                   registry.Get("order", "O1")}));
  db.Insert("PaymentAmount", Tuple({registry.Get("payment", "Pmt1"),
                                    Value::Int(20)}));
  db.Insert("OrderProductQuantity",
            Tuple({registry.Get("order", "O1"), registry.Get("product", "P1"),
                   Value::Int(2)}));
  db.Insert("OrderProductQuantity",
            Tuple({registry.Get("order", "O2"), registry.Get("product", "P3"),
                   Value::Int(1)}));

  std::printf("schema validation: %s\n",
              schema.Validate(db).empty() ? "GNF-conformant" : "violations!");

  // The unique-identifier property: an order cannot reuse a product's id.
  try {
    registry.Get("order", "P1");
  } catch (const rel::ConstraintViolation& v) {
    std::printf("unique-identifier property enforced: %s\n", v.what());
  }

  // --- 3. The semantic layer: derived concepts in Rel ------------------------
  Engine engine;
  auto session = engine.OpenSession();
  for (const std::string& name : db.Names()) {
    std::vector<Tuple> tuples = db.Get(name).SortedTuples();
    session->Insert(name, tuples);
  }
  session->Define(
      // The concept's extent, derived from the stored facts.
      "def Product(p) : ProductPrice(p, _) or ProductName(p, _)\n"
      // Derived concept: premium products (business logic as rules).
      "def Premium(p) : exists((x) | ProductPrice(p, x) and x >= 20)\n"
      // Derived relationship: which orders contain premium products.
      "def PremiumOrder(o) :\n"
      "  exists((p) | OrderProductQuantity(o, p, _) and Premium(p))\n"
      // Display names with a fallback; `p in Product` gives the default a
      // domain, just like the paper's OrderPaid[x in Ord] (Section 5.2).
      "def DisplayName[p in Product] : ProductName[p] <++ \"(unnamed)\"");

  std::printf("premium products:  %s\n",
              session->Query("def output : Premium").ToString().c_str());
  std::printf("premium orders:    %s\n",
              session->Query("def output : PremiumOrder").ToString().c_str());
  std::printf("display names:     %s\n",
              session->Query("def output : DisplayName").ToString().c_str());

  // --- 4. Round-trip back to the record view ---------------------------------
  std::vector<rel::kg::WideRow> rows = ReassembleRecords(product_spec, db);
  std::printf("reassembled %zu wide rows; P4 name is %s\n", rows.size(),
              rows[3].values[0] ? "present" : "NULL");
  return 0;
}
