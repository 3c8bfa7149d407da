#include "engine/instrumentation.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>

#include "obs/profile.h"
#include "obs/trace.h"
#include "planspace/observability.h"
#include "sketch/tap.h"
#include "util/bitmask.h"
#include "util/env.h"
#include "util/fault.h"
#include "util/logging.h"

namespace etlopt {
namespace {

// Fault-injection identity of a tap: the stat_io kind token, so specs read
// "tap:distinct:oom" in the same vocabulary the codec uses.
const char* TapFaultName(StatKind kind) {
  switch (kind) {
    case StatKind::kCard:
      return "card";
    case StatKind::kDistinct:
      return "distinct";
    case StatKind::kHist:
      return "hist";
    case StatKind::kRejectJoinCard:
      return "rejcard";
    case StatKind::kRejectJoinHist:
      return "rejhist";
  }
  return "?";
}

// Per-tap byte allowance for the OOM-downgrade fallback: when an exact
// collector's allocation is failed by injection, the retry uses a sketch
// bounded to this much memory (a deliberately small ask — the premise is
// that memory is tight).
constexpr int64_t kDowngradeTapBytes = 64 * 1024;

// The pipeline-point node for a Card/Distinct/Hist key.
Result<NodeId> PointNode(const BlockContext& ctx, const StatKey& key) {
  if (key.is_chain_stage()) {
    return ctx.StageNode(LowestBit(key.rels), key.stage);
  }
  auto it = ctx.on_path().find(key.rels);
  if (it == ctx.on_path().end()) {
    return Status::InvalidArgument("SE not on-path: " + key.ToString());
  }
  return it->second;
}

// The pipeline-point table for a Card/Distinct/Hist key.
Result<const Table*> PointTable(const BlockContext& ctx,
                                const ExecutionResult& exec,
                                const StatKey& key) {
  ETLOPT_ASSIGN_OR_RETURN(const NodeId node, PointNode(ctx, key));
  auto it = exec.node_outputs.find(node);
  if (it == exec.node_outputs.end()) {
    return Status::Internal("no cached output for node " +
                            std::to_string(node));
  }
  return &it->second;
}

// The key columns of `attrs` as raw column pointers — the zero-copy feed
// the columnar tap kernels consume.
std::vector<const Value*> KeyColumnData(const Table& t, AttrMask attrs) {
  std::vector<const Value*> data;
  for (int idx : MaskToIndices(attrs)) {
    data.push_back(
        t.column_data(t.schema().IndexOf(static_cast<AttrId>(idx))));
  }
  return data;
}

// The reject table and R-side table + join attribute of a reject-join key.
struct RejectJoinInputs {
  const Table* rejects = nullptr;
  const Table* r_table = nullptr;
  AttrId attr = kInvalidAttr;
};

// The reject table a reject-join key's tap reads: the designed join of L
// with k, and whether L is its build (right) side there.
struct RejectTableRef {
  NodeId join = kInvalidNode;
  bool right = false;
};

Result<RejectTableRef> RejectTableOf(const BlockContext& ctx,
                                     const StatKey& key) {
  const RelMask l = key.reject_left;
  const RelMask k_mask = RelMask{1} << key.reject_k;
  auto join_it = ctx.on_path().find(l | k_mask);
  if (join_it == ctx.on_path().end()) {
    return Status::InvalidArgument("L⋈k not on-path for " + key.ToString());
  }
  const NodeId join_node = join_it->second;
  const BlockJoin* bj = nullptr;
  for (const BlockJoin& j : ctx.block().joins) {
    if (j.node == join_node) {
      bj = &j;
      break;
    }
  }
  if (bj == nullptr) return Status::Internal("designed join not found");
  if (bj->left == l && bj->right == k_mask) {
    return RejectTableRef{join_node, false};
  }
  if (bj->left == k_mask && bj->right == l) {
    return RejectTableRef{join_node, true};
  }
  return Status::Internal("reject rows unavailable for " + key.ToString());
}

Result<RejectJoinInputs> FindRejectJoinInputs(const BlockContext& ctx,
                                              const ExecutionResult& exec,
                                              const StatKey& key) {
  const RelMask l = key.reject_left;
  const RelMask r = key.rels;
  ETLOPT_ASSIGN_OR_RETURN(const RejectTableRef ref, RejectTableOf(ctx, key));
  const std::unordered_map<NodeId, Table>& tables =
      ref.right ? exec.join_rejects_right : exec.join_rejects;
  const auto rejects_it = tables.find(ref.join);
  if (rejects_it == tables.end()) {
    return Status::Internal("reject rows unavailable for " + key.ToString());
  }
  RejectJoinInputs inputs;
  inputs.rejects = &rejects_it->second;

  // Side join with the on-path R table on the edge connecting L and R.
  const int edge = ctx.graph().CrossingEdge(l, r);
  if (edge < 0) {
    return Status::InvalidArgument("no unique edge between L and R for " +
                                   key.ToString());
  }
  inputs.attr = ctx.graph().edges()[static_cast<size_t>(edge)].attr;
  auto r_it = ctx.on_path().find(r);
  if (r_it == ctx.on_path().end()) {
    return Status::InvalidArgument("R not on-path for " + key.ToString());
  }
  // On an aborted parallel run the on-path node may exist without a merged
  // output; salvage must skip the tap, not crash.
  const auto out_it = exec.node_outputs.find(r_it->second);
  if (out_it == exec.node_outputs.end()) {
    return Status::Internal("R table unavailable for " + key.ToString() +
                            " (node output missing after abort)");
  }
  inputs.r_table = &out_it->second;
  return inputs;
}

// Streams the pairs of reject(L wrt k) ⋈ R without materializing the joined
// table: builds the R-side hash index (needed by any join evaluation) and
// hands each matching pair to `emit(left_row, r_row_index)`.
template <typename Emit>
Status ForEachRejectJoinPair(const RejectJoinInputs& in, Emit&& emit) {
  const int lkey = in.rejects->schema().IndexOf(in.attr);
  const int rkey = in.r_table->schema().IndexOf(in.attr);
  if (lkey < 0 || rkey < 0) {
    return Status::Internal("join key missing from reject-join input");
  }
  // Pairs in HashJoin's emission order: reject rows in order, each key's
  // matches in R build-insertion order (JoinHashTable groups preserve it).
  const JoinHashTable ht(in.r_table->column_data(rkey),
                         in.r_table->num_rows());
  const Value* lvals = in.rejects->column_data(lkey);
  for (int64_t l = 0; l < in.rejects->num_rows(); ++l) {
    const JoinHashTable::RowRange range = ht.Lookup(lvals[l]);
    for (const int64_t* p = range.begin; p != range.end; ++p) {
      emit(l, *p);
    }
  }
  return Status::OK();
}

// Column lookup plan for extracting a histogram key from the (virtual)
// joined row of a reject-side join: each attribute resolves to the left
// (reject) side or, failing that, the R side.
struct JoinedKeyPlan {
  struct Col {
    bool from_left = true;
    int index = 0;
  };
  std::vector<Col> cols;
};

Result<JoinedKeyPlan> PlanJoinedKey(const RejectJoinInputs& in,
                                    AttrMask attrs) {
  JoinedKeyPlan plan;
  for (int idx : MaskToIndices(attrs)) {
    JoinedKeyPlan::Col col;
    const int l = in.rejects->schema().IndexOf(static_cast<AttrId>(idx));
    if (l >= 0) {
      col.from_left = true;
      col.index = l;
    } else {
      const int r = in.r_table->schema().IndexOf(static_cast<AttrId>(idx));
      if (r < 0) {
        return Status::InvalidArgument(
            "histogram attribute missing from reject-join schema");
      }
      col.from_left = false;
      col.index = r;
    }
    plan.cols.push_back(col);
  }
  return plan;
}

// Per-key tap decision computed up-front so the whole observation either
// fits the budget exactly or degrades the sketchable taps together.
struct TapPlan {
  std::vector<char> sketch;     // aligned with keys
  sketch::TapSketchConfig config;
  int64_t exact_bytes_estimate = 0;
};

int Arity(const StatKey& key) { return PopCount(key.attrs); }

Result<TapPlan> PlanTaps(const BlockContext& ctx, const ExecutionResult& exec,
                         const std::vector<StatKey>& keys,
                         const TapOptions& taps) {
  TapPlan plan;
  plan.sketch.assign(keys.size(), 0);
  int sketchable = 0;
  int max_arity = 1;
  for (size_t i = 0; i < keys.size(); ++i) {
    const StatKey& key = keys[i];
    int64_t exact_bytes = 8;  // a counter
    switch (key.kind) {
      case StatKind::kCard:
        break;
      case StatKind::kDistinct:
      case StatKind::kHist: {
        ETLOPT_ASSIGN_OR_RETURN(const Table* table,
                                PointTable(ctx, exec, key));
        exact_bytes = key.kind == StatKind::kDistinct
                          ? sketch::EstimateExactDistinctBytes(
                                table->num_rows(), Arity(key))
                          : sketch::EstimateExactHistBytes(table->num_rows(),
                                                           Arity(key));
        plan.sketch[i] = 1;
        ++sketchable;
        max_arity = std::max(max_arity, Arity(key));
        break;
      }
      case StatKind::kRejectJoinCard:
      case StatKind::kRejectJoinHist: {
        ETLOPT_ASSIGN_OR_RETURN(const RejectJoinInputs in,
                                FindRejectJoinInputs(ctx, exec, key));
        // Footprint proxy: the reject row count times the width of a
        // joined reject ⋈ R row. The exact taps stream the side join
        // instead of materializing it, so this is not what they hold; it
        // stays as it is because it decides when a budget sends the
        // sketchable taps to sketches, which the sketch-tap golden digests
        // pin.
        const int row_width =
            in.rejects->schema().size() + in.r_table->schema().size();
        exact_bytes = in.rejects->num_rows() *
                      (40 + 8 * static_cast<int64_t>(row_width));
        if (key.kind == StatKind::kRejectJoinHist) {
          plan.sketch[i] = 1;
          ++sketchable;
          max_arity = std::max(max_arity, Arity(key));
        }
        break;
      }
    }
    plan.exact_bytes_estimate += exact_bytes;
  }

  if (taps.memory_budget_bytes <= 0 ||
      plan.exact_bytes_estimate <= taps.memory_budget_bytes ||
      sketchable == 0) {
    // Budget absent or sufficient: exact taps throughout.
    plan.sketch.assign(keys.size(), 0);
    return plan;
  }
  plan.config = sketch::TapSketchConfig::ForBudget(
      taps.memory_budget_bytes / sketchable, max_arity);
  return plan;
}

// Whether every table a key's tap reads survived the run — false for keys
// whose pipeline points fall past an abort. An aborted run's observation
// filters on this.
bool KeyInputsAvailable(const BlockContext& ctx, const ExecutionResult& exec,
                        const StatKey& key) {
  switch (key.kind) {
    case StatKind::kCard:
    case StatKind::kDistinct:
    case StatKind::kHist:
      return PointTable(ctx, exec, key).ok();
    case StatKind::kRejectJoinCard:
    case StatKind::kRejectJoinHist:
      return FindRejectJoinInputs(ctx, exec, key).ok();
  }
  return false;
}

// Rows one key's tap consumed — the checkpoint cadence currency. Callers
// only ask for keys whose inputs are available.
int64_t TappedRows(const BlockContext& ctx, const ExecutionResult& exec,
                   const StatKey& key) {
  switch (key.kind) {
    case StatKind::kCard:
    case StatKind::kDistinct:
    case StatKind::kHist: {
      const Result<const Table*> table = PointTable(ctx, exec, key);
      return table.ok() ? (*table)->num_rows() : 0;
    }
    case StatKind::kRejectJoinCard:
    case StatKind::kRejectJoinHist: {
      const Result<RejectJoinInputs> in = FindRejectJoinInputs(ctx, exec, key);
      return in.ok() ? in->rejects->num_rows() + in->r_table->num_rows() : 0;
    }
  }
  return 0;
}

}  // namespace

void AddRejectTableDemand(const BlockContext& ctx,
                          const std::vector<StatKey>& keys,
                          std::unordered_map<NodeId, RejectSides>* sides) {
  for (const StatKey& key : keys) {
    if (!key.is_reject()) continue;
    const Result<RejectTableRef> ref = RejectTableOf(ctx, key);
    if (!ref.ok()) continue;
    RejectSides& join = (*sides)[ref->join];
    (ref->right ? join.right : join.left) = true;
  }
}

TapOptions TapOptions::FromEnv() {
  TapOptions options;
  options.memory_budget_bytes =
      EnvInt64("ETLOPT_TAP_BUDGET", 1, std::numeric_limits<int64_t>::max(),
               options.memory_budget_bytes);
  return options;
}

Result<StatStore> ObserveStatistics(const BlockContext& ctx,
                                    const ExecutionResult& exec,
                                    const std::vector<StatKey>& keys,
                                    const TapOptions& taps,
                                    TapReport* report) {
  const int64_t observe_start_ns = obs::ProfileNowNs();
  TapReport local;
  std::vector<StatKey> observable;
  observable.reserve(keys.size());
  for (const StatKey& key : keys) {
    if (exec.aborted() && !KeyInputsAvailable(ctx, exec, key)) {
      // Salvage: the run aborted before this key's pipeline point
      // materialized — skip it and observe the rest.
      ++local.salvage_skipped;
      continue;
    }
    if (!IsObservable(key, ctx)) {
      return Status::InvalidArgument("statistic not observable: " +
                                     key.ToString());
    }
    observable.push_back(key);
  }
  ETLOPT_ASSIGN_OR_RETURN(const TapPlan plan,
                          PlanTaps(ctx, exec, observable, taps));

  StatStore store;
  local.exact_bytes_estimate = plan.exact_bytes_estimate;
  fault::FaultInjector* inj = fault::FaultInjector::Global();
  int64_t rows_since_flush = 0;

  for (size_t i = 0; i < observable.size(); ++i) {
    const StatKey& key = observable[i];
    bool use_sketch = plan.sketch[i] != 0;
    sketch::TapSketchConfig tap_config = plan.config;
    if (inj != nullptr) {
      const char* tap_name = TapFaultName(key.kind);
      const fault::Kind fk = inj->OnTap(tap_name);
      if (fk != fault::Kind::kNone) {
        // Allocation for this tap failed. An exact distinct or reject-
        // histogram collector can retry as a bounded-memory sketch (a
        // second, smaller allocation — consulted separately); anything
        // else is disabled and the run continues un-instrumented for this
        // key. Plain join histograms are never downgraded: they feed the
        // exact union-division rules (J4/J5), whose every-bucket-divides
        // invariant a lossy sketch cannot honor.
        const bool sketchable = !use_sketch &&
                                (key.kind == StatKind::kDistinct ||
                                 key.kind == StatKind::kRejectJoinHist);
        if (sketchable && inj->OnTap(tap_name) == fault::Kind::kNone) {
          use_sketch = true;
          tap_config =
              sketch::TapSketchConfig::ForBudget(kDowngradeTapBytes,
                                                 Arity(key));
          ++local.downgraded_taps;
          ETLOPT_LOG(Info) << "tap " << key.ToString()
                           << ": exact collector allocation failed ("
                           << fault::KindName(fk)
                           << "), downgraded to sketch";
        } else {
          ++local.disabled_taps;
          ETLOPT_LOG(Warning) << "tap " << key.ToString() << " disabled ("
                              << fault::KindName(fk)
                              << "); run continues un-instrumented";
          continue;
        }
      }
    }
    switch (key.kind) {
      case StatKind::kCard: {
        ETLOPT_ASSIGN_OR_RETURN(const Table* table,
                                PointTable(ctx, exec, key));
        store.Set(key, StatValue::Count(table->num_rows()));
        ++local.exact_taps;
        local.tap_bytes += 8;
        break;
      }
      case StatKind::kDistinct: {
        ETLOPT_ASSIGN_OR_RETURN(const Table* table,
                                PointTable(ctx, exec, key));
        if (use_sketch) {
          sketch::DistinctTap tap(tap_config);
          tap.AddColumns(KeyColumnData(*table, key.attrs), table->num_rows());
          store.Set(key, StatValue::CountApprox(tap.Estimate(),
                                                tap.RelError()));
          ++local.sketch_taps;
          local.tap_bytes += tap.MemoryBytes();
        } else {
          store.Set(key, StatValue::Count(table->CountDistinct(key.attrs)));
          ++local.exact_taps;
          local.tap_bytes += sketch::EstimateExactDistinctBytes(
              table->num_rows(), Arity(key));
        }
        break;
      }
      case StatKind::kHist: {
        ETLOPT_ASSIGN_OR_RETURN(const Table* table,
                                PointTable(ctx, exec, key));
        if (use_sketch) {
          sketch::HistTap tap(tap_config);
          tap.AddColumns(KeyColumnData(*table, key.attrs), table->num_rows());
          store.Set(key, StatValue::HistApprox(tap.Build(key.attrs),
                                               tap.RelError()));
          ++local.sketch_taps;
          local.tap_bytes += tap.MemoryBytes();
        } else {
          store.Set(key, StatValue::Hist(table->BuildHistogram(key.attrs)));
          ++local.exact_taps;
          local.tap_bytes += sketch::EstimateExactHistBytes(table->num_rows(),
                                                            Arity(key));
        }
        break;
      }
      case StatKind::kRejectJoinCard: {
        ETLOPT_ASSIGN_OR_RETURN(const RejectJoinInputs in,
                                FindRejectJoinInputs(ctx, exec, key));
        int64_t count = 0;
        ETLOPT_RETURN_IF_ERROR(ForEachRejectJoinPair(
            in, [&count](int64_t, int64_t) { ++count; }));
        store.Set(key, StatValue::Count(count));
        ++local.exact_taps;
        local.tap_bytes += 8;
        break;
      }
      case StatKind::kRejectJoinHist: {
        ETLOPT_ASSIGN_OR_RETURN(const RejectJoinInputs in,
                                FindRejectJoinInputs(ctx, exec, key));
        ETLOPT_ASSIGN_OR_RETURN(const JoinedKeyPlan key_plan,
                                PlanJoinedKey(in, key.attrs));
        // Feeds each joined pair's key to `add`, in HashJoin's emission
        // order: the exact histogram's buckets (and their insertion order)
        // match one built over the materialized side join.
        std::vector<Value> probe(key_plan.cols.size());
        auto for_each_key = [&](auto&& add) {
          return ForEachRejectJoinPair(in, [&](int64_t l, int64_t r) {
            for (size_t c = 0; c < key_plan.cols.size(); ++c) {
              const JoinedKeyPlan::Col& col = key_plan.cols[c];
              probe[c] = col.from_left ? in.rejects->at(l, col.index)
                                       : in.r_table->at(r, col.index);
            }
            add(probe);
          });
        };
        if (use_sketch) {
          sketch::HistTap tap(tap_config);
          ETLOPT_RETURN_IF_ERROR(for_each_key(
              [&tap](const std::vector<Value>& k) { tap.AddRow(k); }));
          store.Set(key, StatValue::HistApprox(tap.Build(key.attrs),
                                               tap.RelError()));
          ++local.sketch_taps;
          local.tap_bytes += tap.MemoryBytes();
        } else {
          Histogram hist(key.attrs);
          ETLOPT_RETURN_IF_ERROR(for_each_key(
              [&hist](const std::vector<Value>& k) { hist.Add(k); }));
          // One bucket count per joined pair: the total is the side join's
          // row count.
          local.tap_bytes +=
              sketch::EstimateExactHistBytes(hist.TotalCount(), Arity(key));
          store.Set(key, StatValue::Hist(std::move(hist)));
          ++local.exact_taps;
        }
        break;
      }
    }
    // Checkpoint cadence: snapshot the partial store every N tapped rows so
    // a mid-observation death loses at most one cadence worth of taps.
    const int64_t tapped = TappedRows(ctx, exec, key);
    local.rows_tapped += tapped;
    rows_since_flush += tapped;
    if (taps.checkpoint_every_rows > 0 && taps.on_checkpoint != nullptr &&
        rows_since_flush >= taps.checkpoint_every_rows) {
      taps.on_checkpoint(store);
      ++local.checkpoint_flushes;
      rows_since_flush = 0;
    }
  }

  local.observe_ns = obs::ProfileNowNs() - observe_start_ns;
  if (report != nullptr) report->Accumulate(local);
  return store;
}

Result<Table> MaterializeSubexpression(const BlockContext& ctx, RelMask rels,
                                       const ExecutionResult& exec) {
  // Start from the lowest relation's top and join the remaining ones along
  // designed edges (any connected order is equivalent).
  std::vector<int> members = MaskToIndices(rels);
  auto top_table = [&](int rel) -> Result<Table> {
    const NodeId node = ctx.TopNode(rel);
    auto it = exec.node_outputs.find(node);
    if (it == exec.node_outputs.end()) {
      return Status::Internal("no cached output for relation top");
    }
    return it->second;
  };
  ETLOPT_ASSIGN_OR_RETURN(Table acc, top_table(members[0]));
  RelMask done = RelMask{1} << members[0];
  while (done != rels) {
    bool progressed = false;
    for (int rel : members) {
      const RelMask bit = RelMask{1} << rel;
      if (done & bit) continue;
      const int edge = ctx.graph().CrossingEdge(done, bit);
      if (edge < 0) continue;
      const AttrId attr = ctx.graph().edges()[static_cast<size_t>(edge)].attr;
      ETLOPT_ASSIGN_OR_RETURN(Table next, top_table(rel));
      acc = HashJoin(acc, next, attr, nullptr);
      done |= bit;
      progressed = true;
    }
    if (!progressed) {
      return Status::InvalidArgument("SE is not connected");
    }
  }
  return acc;
}

namespace {

// The distinct fixed-width tuples of int64 values fed to Add, each with the
// sum of the counts it was fed with: the tuples lie back to back in one buffer,
// found through an open-addressing index of group numbers (int32, as in
// Histogram). The index starts sized for `expected` groups, at most 4096.
class TupleGroups {
 public:
  TupleGroups(size_t width, int64_t expected)
      : width_(width),
        index_(std::bit_ceil(static_cast<size_t>(
                   2 * std::clamp<int64_t>(expected, 8, 4096))),
               -1) {}

  void Add(const int64_t* tuple, int64_t count) {
    const size_t mask = index_.size() - 1;
    for (size_t i = Hash(tuple) & mask;; i = (i + 1) & mask) {
      const int32_t g = index_[i];
      if (g < 0) {
        index_[i] = static_cast<int32_t>(size());
        tuples_.insert(tuples_.end(), tuple, tuple + width_);
        counts_.push_back(count);
        if (2 * counts_.size() > index_.size()) Grow();
        return;
      }
      if (std::equal(tuple, tuple + width_, Tuple(g))) {
        counts_[static_cast<size_t>(g)] += count;
        return;
      }
    }
  }

  int64_t size() const { return static_cast<int64_t>(counts_.size()); }
  const int64_t* Tuple(int64_t g) const {
    return tuples_.data() + static_cast<size_t>(g) * width_;
  }
  int64_t Count(int64_t g) const { return counts_[static_cast<size_t>(g)]; }

 private:
  uint64_t Hash(const int64_t* tuple) const {
    uint64_t h = 0;
    for (size_t i = 0; i < width_; ++i) {
      h = (h ^ static_cast<uint64_t>(tuple[i])) * 0x9e3779b97f4a7c15ULL;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    return h ^ (h >> 33);
  }

  void Grow() {
    index_.assign(index_.size() * 2, -1);
    const size_t mask = index_.size() - 1;
    for (int64_t g = 0; g < size(); ++g) {
      size_t i = Hash(Tuple(g)) & mask;
      while (index_[i] >= 0) i = (i + 1) & mask;
      index_[i] = static_cast<int32_t>(g);
    }
  }

  size_t width_;
  std::vector<int64_t> tuples_;
  std::vector<int64_t> counts_;
  std::vector<int32_t> index_;  // group number per slot, -1 when empty
};

// Multiplies factor(0) .. factor(n - 1) into `product`; false when the
// product overflows int64. A zero factor (no join partner) makes the product
// 0 even when the factors before it overflowed.
template <typename Factor>
bool FactorProduct(size_t n, Factor&& factor, int64_t& product) {
  product = 1;
  bool wrapped = false;
  for (size_t i = 0; i < n; ++i) {
    const int64_t m = factor(i);
    if (m == 0) {
      product = 0;
      return true;
    }
    wrapped |= __builtin_mul_overflow(product, m, &product);
  }
  return !wrapped;
}

// Counts SE cardinalities without materializing any join (Yannakakis-style
// message passing over the join forest). An SE rooted at its lowest
// relation has as many rows as the sum, over the root top's rows, of the
// product of the messages the root's neighbours in the SE send it. The
// message a child relation sends its parent is a flat histogram on their
// edge attribute: per key, how many rows of the child's side of the SE join
// to a parent row carrying that key. A message depends only on (child,
// parent, child-side sub-mask), so the SEs of one plan space share them.
//
// The SEs of one root are counted together in one pass over the root's
// top. Each distinct (key column, message) pair they read is a slot; the
// pass looks every slot's message up once per row (once per distinct key
// where all slots read one key column) and groups the rows by their tuple
// of slot values. An SE's count is then the sum, over the groups, of the
// group's row count times the product of the SE's own slot values.
// Messages from foreign-key lookups take few values, so a star centre's
// rows fall into few groups even where their key tuples are all distinct.
class TruthCounter {
 public:
  TruthCounter(const BlockContext& ctx, const ExecutionResult& exec)
      : ctx_(ctx), exec_(exec) {}

  // Counts every SE of `ses` (each connected, with `root` its lowest
  // relation) into `cards`.
  Status CountRoot(int root, const std::vector<RelMask>& ses,
                   std::unordered_map<RelMask, int64_t>& cards) {
    ETLOPT_ASSIGN_OR_RETURN(const Table* top, Top(root));
    // The slots, and per SE the slots it reads (se_slots[first[i]..
    // first[i + 1])).
    std::vector<Incoming> slots;
    std::vector<size_t> se_slots;
    std::vector<size_t> first = {0};
    for (RelMask se : ses) {
      ETLOPT_RETURN_IF_ERROR(
          ForEachIncoming(root, se, se, [&](const Incoming& in) {
            const auto it = std::find(slots.begin(), slots.end(), in);
            se_slots.push_back(static_cast<size_t>(it - slots.begin()));
            if (it == slots.end()) slots.push_back(in);
          }));
      first.push_back(se_slots.size());
    }

    TupleGroups groups(slots.size(), top->num_rows());
    std::vector<int64_t> values(slots.size());
    const bool one_column =
        !slots.empty() &&
        std::all_of(slots.begin(), slots.end(), [&](const Incoming& in) {
          return in.keys == slots[0].keys;
        });
    if (one_column) {
      // A chain end: every slot reads one key column, so a row's values
      // follow from its key. Group the rows by key first and look the
      // slots up once per distinct key.
      TupleGroups keys(1, top->num_rows());
      for (int64_t row = 0; row < top->num_rows(); ++row) {
        keys.Add(&slots[0].keys[row], 1);
      }
      for (int64_t g = 0; g < keys.size(); ++g) {
        for (size_t s = 0; s < slots.size(); ++s) {
          values[s] = slots[s].message->Get1(keys.Tuple(g)[0]);
        }
        groups.Add(values.data(), keys.Count(g));
      }
    } else {
      for (int64_t row = 0; row < top->num_rows(); ++row) {
        for (size_t s = 0; s < slots.size(); ++s) {
          values[s] = slots[s].message->Get1(slots[s].keys[row]);
        }
        groups.Add(values.data(), 1);
      }
    }
    num_groups_ += groups.size();

    for (size_t i = 0; i < ses.size(); ++i) {
      int64_t total = 0;
      const size_t* own = se_slots.data() + first[i];
      for (int64_t g = 0; g < groups.size(); ++g) {
        const int64_t* tuple = groups.Tuple(g);
        int64_t product = 0;
        int64_t weight = 0;
        if (!FactorProduct(
                first[i + 1] - first[i],
                [&](size_t k) { return tuple[own[k]]; }, product) ||
            __builtin_mul_overflow(groups.Count(g), product, &weight) ||
            __builtin_add_overflow(total, weight, &total)) {
          return Overflow(ses[i]);
        }
      }
      cards[ses[i]] = total;
    }
    return Status::OK();
  }

  int64_t num_messages() const {
    return static_cast<int64_t>(messages_.size());
  }
  // The groups of all CountRoot passes so far.
  int64_t num_groups() const { return num_groups_; }

 private:
  struct Incoming {
    const Value* keys = nullptr;  // the receiving top's edge key column
    const Histogram* message = nullptr;

    bool operator==(const Incoming&) const = default;
  };

  static Status Overflow(RelMask se) {
    return Status::OutOfRange("ground-truth count of SE " +
                              std::to_string(se) + " overflows int64");
  }

  Result<const Table*> Top(int rel) const {
    auto it = exec_.node_outputs.find(ctx_.TopNode(rel));
    if (it == exec_.node_outputs.end()) {
      return Status::Internal("no cached output for relation top");
    }
    return &it->second;
  }

  static Result<const Value*> KeyColumn(const Table& top, AttrId attr) {
    const int index = top.schema().IndexOf(attr);
    if (index < 0) {
      return Status::Internal("join key missing from relation top");
    }
    return top.column_data(index);
  }

  // Calls visit(incoming) for each message `rel`'s neighbours in `sub`
  // send it, with `rel`'s key column on their edge.
  template <typename Visit>
  Status ForEachIncoming(int rel, RelMask sub, RelMask se, Visit&& visit) {
    ETLOPT_ASSIGN_OR_RETURN(const Table* top, Top(rel));
    const RelMask rest = sub & ~(RelMask{1} << rel);
    for (int ei : ctx_.graph().edges_of(rel)) {
      const JoinEdge& edge = ctx_.graph().edges()[static_cast<size_t>(ei)];
      const int child = edge.a == rel ? edge.b : edge.a;
      if (((rest >> child) & 1) == 0) continue;
      Incoming in;
      ETLOPT_ASSIGN_OR_RETURN(in.keys, KeyColumn(*top, edge.attr));
      ETLOPT_ASSIGN_OR_RETURN(
          in.message,
          Message(child, rel, edge.attr,
                  ctx_.graph().Component(child, rest), se));
      visit(in);
    }
    return Status::OK();
  }

  // The message `child` sends `parent` over their edge on `attr`, where
  // `sub` is the child's side of the SE being counted: per row of the
  // child's top, the product of the messages the child's own neighbours in
  // `sub` send it, summed per key. A product or total beyond int64 fails
  // the count of `se` with OutOfRange.
  Result<const Histogram*> Message(int child, int parent, AttrId attr,
                                   RelMask sub, RelMask se) {
    const auto key = std::make_tuple(child, parent, sub);
    if (auto it = messages_.find(key); it != messages_.end()) {
      return &it->second;
    }
    ETLOPT_ASSIGN_OR_RETURN(const Table* top, Top(child));
    ETLOPT_ASSIGN_OR_RETURN(const Value* keys, KeyColumn(*top, attr));
    std::vector<Incoming> incoming;
    ETLOPT_RETURN_IF_ERROR(ForEachIncoming(
        child, sub, se, [&incoming](const Incoming& in) {
          incoming.push_back(in);
        }));
    Histogram message(AttrMask{1} << attr);
    // The message's total bounds each bucket, so checking it suffices.
    int64_t total = 0;
    for (int64_t row = 0; row < top->num_rows(); ++row) {
      int64_t weight = 0;
      if (!FactorProduct(
              incoming.size(),
              [&](size_t i) {
                return incoming[i].message->Get1(incoming[i].keys[row]);
              },
              weight) ||
          __builtin_add_overflow(total, weight, &total)) {
        return Overflow(se);
      }
      message.Add1(keys[row], weight);  // a weight of 0 adds no bucket
    }
    return &messages_.emplace(key, std::move(message)).first->second;
  }

  const BlockContext& ctx_;
  const ExecutionResult& exec_;
  std::map<std::tuple<int, int, RelMask>, Histogram> messages_;
  int64_t num_groups_ = 0;
};

}  // namespace

Result<std::unordered_map<RelMask, int64_t>> ComputeGroundTruthCards(
    const BlockContext& ctx, const std::vector<RelMask>& subexpressions,
    const ExecutionResult& exec) {
  obs::ScopedSpan span("engine.ground_truth");
  std::map<int, std::vector<RelMask>> by_root;
  for (RelMask se : subexpressions) {
    if (!ctx.graph().IsConnected(se)) {
      return Status::InvalidArgument("SE is not connected");
    }
    by_root[LowestBit(se)].push_back(se);
  }
  TruthCounter counter(ctx, exec);
  std::unordered_map<RelMask, int64_t> cards;
  for (const auto& [root, ses] : by_root) {
    ETLOPT_RETURN_IF_ERROR(counter.CountRoot(root, ses, cards));
  }
  if (span.active()) {
    span.Arg("subexpressions", static_cast<int64_t>(subexpressions.size()));
    span.Arg("messages", counter.num_messages());
    span.Arg("groups", counter.num_groups());
  }
  return cards;
}

}  // namespace etlopt
