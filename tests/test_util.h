#ifndef ETLOPT_TESTS_TEST_UTIL_H_
#define ETLOPT_TESTS_TEST_UTIL_H_

#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/executor.h"
#include "etl/workflow_builder.h"
#include "obs/ledger.h"
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

// Both reject sides of every join in `wf`, for tests that read reject
// tables a production run does not build.
inline std::unordered_map<NodeId, RejectSides> EveryRejectSide(
    const Workflow& wf) {
  std::unordered_map<NodeId, RejectSides> sides;
  for (const WorkflowNode& node : wf.nodes()) {
    if (node.kind == OpKind::kJoin) sides[node.id] = RejectSides{true, true};
  }
  return sides;
}

// RetainOutputs, and every join builds both reject tables.
inline ExecutorOptions RetainOutputsAndRejects(const Workflow& wf) {
  ExecutorOptions options = RetainOutputs();
  options.reject_sides = EveryRejectSide(wf);
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

// Fingerprint of a table's rows in row order (the content of
// MaterializeRows()), one "v,v,...\n" line per row. The text is digested in
// chunks so a multi-million-row table is never formatted whole.
inline std::string RowsDigest(const Table& table) {
  constexpr size_t kChunkBytes = size_t{1} << 20;
  std::string chunk_digests = std::to_string(table.num_rows()) + " rows\n";
  std::string chunk;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_columns(); ++c) {
      chunk += std::to_string(table.at(r, c));
      chunk += c + 1 < table.num_columns() ? ',' : '\n';
    }
    if (chunk.size() >= kChunkBytes || r + 1 == table.num_rows()) {
      chunk_digests += obs::FingerprintText(chunk) + "\n";
      chunk.clear();
    }
  }
  return obs::FingerprintText(chunk_digests);
}

// Fingerprint of keyed tables (node outputs, rejects, targets): one
// "key rows-digest" line per table, in key order.
template <typename Key>
std::string TablesDigest(const std::unordered_map<Key, Table>& tables) {
  const std::map<Key, const Table*> sorted = [&] {
    std::map<Key, const Table*> by_key;
    for (const auto& [key, table] : tables) by_key.emplace(key, &table);
    return by_key;
  }();
  std::ostringstream text;
  for (const auto& [key, table] : sorted) {
    text << key << " " << RowsDigest(*table) << "\n";
  }
  return obs::FingerprintText(text.str());
}

}  // namespace testing_util
}  // namespace etlopt

#endif  // ETLOPT_TESTS_TEST_UTIL_H_
