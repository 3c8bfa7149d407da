#ifndef ETLOPT_TESTS_TEST_UTIL_H_
#define ETLOPT_TESTS_TEST_UTIL_H_

#include <vector>

#include "engine/executor.h"
#include "etl/workflow_builder.h"
#include "util/random.h"

namespace etlopt {
namespace testing_util {

// Executor options that keep every node's output, for tests that inspect
// intermediates or compute ground truth from them after the run.
inline ExecutorOptions RetainOutputs() {
  ExecutorOptions options;
  options.retain_node_outputs = true;
  return options;
}

// A 3-relation star fixture mirroring the paper's running example
// (Figure 1): Orders(prod_id, cust_id) ⋈ Product(prod_id) ⋈
// Customer(cust_id), designed as (Orders ⋈ Product) ⋈ Customer.
struct PaperExample {
  Workflow workflow;
  AttrId prod_id = kInvalidAttr;
  AttrId cust_id = kInvalidAttr;
  SourceMap sources;
};

inline PaperExample MakePaperExample(uint64_t seed = 7, int64_t orders = 400,
                                     int64_t products = 40,
                                     int64_t customers = 25) {
  PaperExample ex;
  WorkflowBuilder b("orders_load");
  ex.prod_id = b.DeclareAttr("prod_id", 50);
  ex.cust_id = b.DeclareAttr("cust_id", 30);
  const NodeId o = b.Source("Orders", {ex.prod_id, ex.cust_id});
  const NodeId p = b.Source("Product", {ex.prod_id});
  const NodeId c = b.Source("Customer", {ex.cust_id});
  const NodeId op = b.Join(o, p, ex.prod_id);
  const NodeId opc = b.Join(op, c, ex.cust_id);
  b.Sink(opc, "warehouse.orders");
  Result<Workflow> wf = std::move(b).Build();
  ETLOPT_CHECK_MSG(wf.ok(), wf.status().ToString());
  ex.workflow = std::move(wf).value();

  Rng rng(seed);
  Table orders_t{Schema({ex.prod_id, ex.cust_id})};
  for (int64_t i = 0; i < orders; ++i) {
    orders_t.AddRow({rng.NextInRange(1, 50), rng.NextInRange(1, 30)});
  }
  Table product_t{Schema({ex.prod_id})};
  for (int64_t i = 0; i < products; ++i) {
    product_t.AddRow({rng.NextInRange(1, 50)});
  }
  Table customer_t{Schema({ex.cust_id})};
  for (int64_t i = 0; i < customers; ++i) {
    customer_t.AddRow({rng.NextInRange(1, 30)});
  }
  ex.sources["Orders"] = std::move(orders_t);
  ex.sources["Product"] = std::move(product_t);
  ex.sources["Customer"] = std::move(customer_t);
  return ex;
}

// Builds a random table over the given attrs with values uniform in
// [1, domain(attr)].
inline Table RandomTable(const AttrCatalog& catalog,
                         const std::vector<AttrId>& attrs, int64_t rows,
                         Rng& rng) {
  Table t{Schema(attrs)};
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    row.reserve(attrs.size());
    for (AttrId a : attrs) {
      row.push_back(rng.NextInRange(1, catalog.domain_size(a)));
    }
    t.AddRow(std::move(row));
  }
  return t;
}

}  // namespace testing_util
}  // namespace etlopt

#endif  // ETLOPT_TESTS_TEST_UTIL_H_
