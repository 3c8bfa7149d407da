#include "engine/parallel/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/parallel/partition.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/common.h"
#include "util/fault.h"
#include "util/logging.h"

namespace etlopt {
namespace parallel {
namespace {

// Where a node executes. kPre nodes run serially before the partition
// phase (sources, and chains feeding broadcast build sides); kPartitioned
// nodes run per-partition on the pool; kPost nodes run serially on the
// gathered outputs after the merge barrier.
enum class Mode : uint8_t { kPre = 0, kPartitioned, kPost };

struct NodeClass {
  Mode mode = Mode::kPre;
  // True while partition placement still equals hash(partition attr) of the
  // row's current key value — the precondition for co-partitioned joins. A
  // transform that rewrites the key in place clears it.
  bool copart = false;
};

std::vector<NodeClass> Classify(const Workflow& wf, AttrId p) {
  std::vector<NodeClass> classes(static_cast<size_t>(wf.num_nodes()));
  for (const WorkflowNode& node : wf.nodes()) {
    NodeClass cls;
    auto in_class = [&](int i) -> const NodeClass& {
      return classes[static_cast<size_t>(node.inputs[static_cast<size_t>(i)])];
    };
    switch (node.kind) {
      case OpKind::kSource:
        cls.mode = node.source_schema.Contains(p) ? Mode::kPartitioned
                                                  : Mode::kPre;
        cls.copart = cls.mode == Mode::kPartitioned;
        break;
      case OpKind::kFilter:
      case OpKind::kProject:
      case OpKind::kMaterialize:
      case OpKind::kSink:
        cls = in_class(0);
        break;
      case OpKind::kTransform:
        if (node.transform.is_aggregate) {
          // Blocking reduction whose surviving rows depend on input order:
          // runs serially on the gathered (serial-order) input.
          cls.mode =
              in_class(0).mode == Mode::kPre ? Mode::kPre : Mode::kPost;
          cls.copart = false;
        } else {
          cls = in_class(0);
          // Rewriting the partition key in place invalidates placement.
          if (node.transform.output_attr == p) cls.copart = false;
        }
        break;
      case OpKind::kAggregate:
        cls.mode = in_class(0).mode == Mode::kPre ? Mode::kPre : Mode::kPost;
        cls.copart = false;
        break;
      case OpKind::kJoin: {
        const NodeClass& left = in_class(0);
        const NodeClass& right = in_class(1);
        if (left.mode == Mode::kPre && right.mode == Mode::kPre) {
          cls.mode = Mode::kPre;
        } else if (left.mode == Mode::kPartitioned &&
                   ((right.mode == Mode::kPartitioned && node.join.attr == p &&
                     left.copart && right.copart) ||
                    right.mode == Mode::kPre)) {
          // Co-partitioned on the partition key, or partitioned probe
          // against a broadcast build side computed in the pre phase.
          cls.mode = Mode::kPartitioned;
          cls.copart = left.copart;
        } else {
          cls.mode = Mode::kPost;
        }
        break;
      }
    }
    classes[static_cast<size_t>(node.id)] = cls;
  }
  return classes;
}

int CountPartitionedOperators(const Workflow& wf,
                              const std::vector<NodeClass>& classes) {
  int count = 0;
  for (const WorkflowNode& node : wf.nodes()) {
    if (node.kind != OpKind::kSource &&
        classes[static_cast<size_t>(node.id)].mode == Mode::kPartitioned) {
      ++count;
    }
  }
  return count;
}

// The candidate key that partitions the most operators wins; ties go to the
// smallest attribute id so the choice is stable run to run. Returns
// kInvalidAttr when no candidate partitions any non-source operator.
AttrId ChoosePartitionAttr(const Workflow& wf,
                           std::vector<NodeClass>* best_classes) {
  std::vector<AttrId> candidates;
  for (const WorkflowNode& node : wf.nodes()) {
    if (node.kind == OpKind::kJoin) candidates.push_back(node.join.attr);
    if (node.kind == OpKind::kSource) {
      const auto& attrs = node.source_schema.attrs();
      candidates.insert(candidates.end(), attrs.begin(), attrs.end());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  AttrId best = kInvalidAttr;
  int best_score = 0;
  for (AttrId a : candidates) {
    std::vector<NodeClass> classes = Classify(wf, a);
    const int score = CountPartitionedOperators(wf, classes);
    if (score > best_score) {
      best_score = score;
      best = a;
      *best_classes = std::move(classes);
    }
  }
  return best;
}

// One partition's share of a node's output: its rows, in serial order, and
// each row's rank — its position in the serial output of the node's rank
// space. Ranks ascend within a slice, and the slices of one node hold
// disjoint ranks. Nodes that keep their parent's rows (project, transform,
// sink) share the parent's rank vector instead of copying it.
using Ranks = std::shared_ptr<const std::vector<int64_t>>;

struct Slice {
  Table table;
  Ranks rank;  // null for a partition that dropped out before this node
};

// A partitioned node's product of the partition phase.
struct NodeRun {
  std::vector<Slice> slices;  // one per partition
  // Ranks lie in [0, rank_space). Sources and joins emit dense ranks;
  // filters keep their parent's, which leaves gaps.
  int64_t rank_space = 0;
  int64_t rows = 0;     // summed over the published slices
  int64_t self_ns = 0;  // summed over the workers (profiling)
  // The serial-order output, when something reads it that way, and a
  // join's reject tables (JoinRejectSides), gathered at the barrier.
  NodeProduct product;
};

// The ranks of the rows `sel` of a slice.
Ranks SelectRanks(const Ranks& rank, const SelVector& sel) {
  auto selected = std::make_shared<std::vector<int64_t>>();
  GatherColumn(*rank, sel, selected.get());
  return selected;
}

// The rows `sel` of a slice, with their ranks.
Slice SelectRows(const Slice& in, const SelVector& sel) {
  return Slice{Table::Gather(in.table, sel), SelectRanks(in.rank, sel)};
}

// A run of one partition's probe rows, probed as one task, so a partition
// holding heavy keys spreads over the workers.
constexpr int64_t kMorselRows = int64_t{1} << 14;

struct Morsel {
  int partition = 0;
  int64_t begin = 0;  // probe rows [begin, end) of the partition's slice
  int64_t end = 0;
  int64_t out_rows = 0;
  int64_t out_at = 0;  // the morsel's first output row in its partition
};

// The merge barrier: reassembles slices into one table in serial order.
// Row i of a slice lands at the dense position of its rank. Ranks that
// cover [0, rank_space) are positions already; sparse ones (a filter's, or
// those of a partition that crashed) are compacted through a bitmap over
// the rank space and a prefix sum of its word popcounts. The scatter runs
// on the pool in blocks of output positions: positions ascend within a
// slice, so a block's rows form one run per slice, and every block is
// written by one worker while it is cache-resident.
Status GatherByRank(const Schema& schema, const std::vector<Slice>& slices,
                    int64_t rank_space, ThreadPool* pool, Table* out) {
  int64_t total = 0;
  for (const Slice& s : slices) total += s.table.num_rows();
  const int num_slices = static_cast<int>(slices.size());
  std::vector<SelVector> compacted(slices.size());
  if (total != rank_space) {
    RowBits present = MakeRowBits(rank_space);
    for (const Slice& s : slices) {
      if (s.rank == nullptr) continue;
      for (int64_t r : *s.rank) SetBit(&present, r);
    }
    std::vector<int64_t> before(present.size());
    int64_t running = 0;
    for (size_t w = 0; w < present.size(); ++w) {
      before[w] = running;
      running += std::popcount(present[w]);
    }
    ETLOPT_RETURN_IF_ERROR(pool->ParallelFor(num_slices, [&](int p) -> Status {
      const Slice& s = slices[static_cast<size_t>(p)];
      if (s.rank == nullptr) return Status::OK();
      SelVector& pos = compacted[static_cast<size_t>(p)];
      pos.resize(s.rank->size());
      for (size_t i = 0; i < pos.size(); ++i) {
        const int64_t r = (*s.rank)[i];
        const size_t w = static_cast<size_t>(r >> 6);
        const uint64_t below = (uint64_t{1} << (r & 63)) - 1;
        pos[i] = before[w] + std::popcount(present[w] & below);
      }
      return Status::OK();
    }));
  }
  std::vector<const SelVector*> positions(slices.size(), nullptr);
  for (size_t p = 0; p < slices.size(); ++p) {
    if (slices[p].rank == nullptr) continue;
    positions[p] = total != rank_space ? &compacted[p] : slices[p].rank.get();
  }

  const int num_cols = schema.size();
  std::vector<ColumnPtr> cols(static_cast<size_t>(num_cols));
  ETLOPT_RETURN_IF_ERROR(pool->ParallelFor(num_cols, [&](int c) -> Status {
    cols[static_cast<size_t>(c)] =
        std::make_shared<Column>(static_cast<size_t>(total));
    return Status::OK();
  }));
  constexpr int64_t kBlock = int64_t{1} << 15;
  const int64_t num_blocks = (total + kBlock - 1) / kBlock;
  ETLOPT_RETURN_IF_ERROR(pool->ParallelFor(
      static_cast<int>(num_blocks), [&](int b) -> Status {
        const int64_t lo = b * kBlock;
        const int64_t hi = std::min(total, lo + kBlock);
        for (size_t p = 0; p < slices.size(); ++p) {
          if (positions[p] == nullptr) continue;
          const SelVector& pos = *positions[p];
          const auto first = std::lower_bound(pos.begin(), pos.end(), lo);
          const auto last = std::lower_bound(first, pos.end(), hi);
          const int64_t a = first - pos.begin();
          const int64_t e = last - pos.begin();
          for (int c = 0; c < num_cols; ++c) {
            Value* dst = cols[static_cast<size_t>(c)]->data();
            const Value* src = slices[p].table.column_data(c);
            for (int64_t i = a; i < e; ++i) dst[pos[i]] = src[i];
          }
        }
        return Status::OK();
      }));
  *out = Table::FromColumns(schema, std::move(cols), total);
  return Status::OK();
}

// The partitioned chain, run node by node across the partitions: one
// ParallelFor per node, and per join a probe pass over morsels, a
// prefix-sum barrier and a pass that ranks and materializes the matches.
// Within a partition, nodes run (and consult partition-scoped faults) in
// chain order; a partition that crashes drops out from its failure node on.
class PartitionPhase {
 public:
  PartitionPhase(const Workflow* wf, const std::vector<NodeClass>* classes,
                 int num_partitions, ThreadPool* pool,
                 const NodeStepContext* ctx)
      : wf_(wf),
        classes_(classes),
        num_partitions_(num_partitions),
        pool_(pool),
        ctx_(ctx),
        runs_(wf->nodes().size()),
        alive_(static_cast<size_t>(num_partitions), 1),
        failed_node_(static_cast<size_t>(num_partitions), kInvalidNode) {}

  NodeRun& run(NodeId id) { return runs_[static_cast<size_t>(id)]; }
  bool completed(int p) const { return alive_[static_cast<size_t>(p)] != 0; }
  NodeId failed_node(int p) const {
    return failed_node_[static_cast<size_t>(p)];
  }

  // Seeds a partitioned source: its slices, ranked by source row index.
  void AddSource(NodeId id, TablePartitions parts) {
    NodeRun& r = run(id);
    r.slices.resize(static_cast<size_t>(num_partitions_));
    for (int p = 0; p < num_partitions_; ++p) {
      const size_t sp = static_cast<size_t>(p);
      r.rows += parts.parts[sp].num_rows();
      r.slices[sp] = Slice{std::move(parts.parts[sp]),
                           std::make_shared<std::vector<int64_t>>(
                               std::move(parts.row_index[sp]))};
    }
    r.rank_space = r.rows;
  }

  Status RunNode(const WorkflowNode& node) {
    NodeRun& r = run(node.id);
    r.slices.resize(static_cast<size_t>(num_partitions_));
    ETLOPT_RETURN_IF_ERROR(node.kind == OpKind::kJoin ? RunJoin(node)
                                                      : RunUnary(node));
    for (const Slice& s : r.slices) r.rows += s.table.num_rows();
    return Status::OK();
  }

  // Gathers `slices` into serial order, timing the barrier.
  Status Gather(const Schema& schema, const std::vector<Slice>& slices,
                int64_t rank_space, Table* out) {
    const int64_t start = obs::ProfileNowNs();
    const Status status = GatherByRank(schema, slices, rank_space, pool_, out);
    ctx_->result->merge_ns += obs::ProfileNowNs() - start;
    return status;
  }

 private:
  bool partitioned(NodeId id) const {
    return (*classes_)[static_cast<size_t>(id)].mode == Mode::kPartitioned;
  }
  int64_t Now() const { return ctx_->profiling ? obs::ProfileNowNs() : 0; }

  // Partition-scoped crash faults mirror the serial crash point: after the
  // operator ran, before its slice is published — the partition's salvage
  // surface is its completed prefix.
  bool Crashes(const WorkflowNode& node, int p) {
    if (ctx_->inj == nullptr) return false;
    const size_t sp = static_cast<size_t>(p);
    int64_t slice_rows_in = 0;
    for (NodeId in : node.inputs) {
      if (partitioned(in)) slice_rows_in += run(in).slices[sp].table.num_rows();
    }
    if (ctx_->inj->OnPartition(std::to_string(p),
                               std::max<int64_t>(slice_rows_in, 1)) !=
        fault::Kind::kCrash) {
      return false;
    }
    alive_[sp] = 0;
    failed_node_[sp] = node.id;
    return true;
  }

  Status RunUnary(const WorkflowNode& node) {
    NodeRun& r = run(node.id);
    const NodeRun& in_run = run(node.inputs[0]);
    const Schema& out_schema = wf_->output_schema(node.id);
    r.rank_space = in_run.rank_space;
    std::atomic<int64_t> ns{0};
    ETLOPT_RETURN_IF_ERROR(
        pool_->ParallelFor(num_partitions_, [&](int p) -> Status {
          const size_t sp = static_cast<size_t>(p);
          if (!completed(p)) return Status::OK();
          const Slice& in = in_run.slices[sp];
          obs::ScopedSpan op_span(OpKindName(node.kind));
          const int64_t start = Now();
          // The serial kernel on the slice: a filter's kept rows take
          // their ranks along, every other row operator keeps all rows and
          // shares its parent's ranks.
          SelVector sel;
          Slice out{ApplyRowOperator(node, out_schema, in.table, &sel),
                    in.rank};
          if (node.kind == OpKind::kFilter) {
            out.rank = SelectRanks(in.rank, sel);
          }
          ns.fetch_add(Now() - start, std::memory_order_relaxed);
          if (op_span.active()) {
            op_span.Arg("node", static_cast<int64_t>(node.id));
            op_span.Arg("partition", static_cast<int64_t>(p));
            op_span.Arg("rows_out", out.table.num_rows());
          }
          if (Crashes(node, p)) return Status::OK();
          r.slices[sp] = std::move(out);
          return Status::OK();
        }));
    r.self_ns += ns.load();
    return Status::OK();
  }

  // A partitioned join, over morsels of each partition's probe slice.
  // Pass 1 writes each probe row's match count at its rank in a vector over
  // the probe rank space (probe rows own distinct ranks, so morsels write
  // without contention); a prefix sum turns counts into offsets. Pass 2
  // probes again and gives the j-th match of a probe row the rank
  // offset[probe rank] + j: the serial emission order (probe order x
  // build-insertion order), exact because a co-partitioned build holds all
  // of a key's rows in one partition and a broadcast build holds all rows.
  // A reject side nobody reads (JoinRejectSides) costs nothing: no hit
  // marks, no reject scan, no merge barrier.
  Status RunJoin(const WorkflowNode& node) {
    const size_t num_parts = static_cast<size_t>(num_partitions_);
    const RejectSides sides = JoinRejectSides(*ctx_->options, node);
    NodeRun& r = run(node.id);
    const NodeRun& left = run(node.inputs[0]);
    const NodeRun* right = partitioned(node.inputs[1])
                               ? &run(node.inputs[1])
                               : nullptr;  // null: a broadcast build
    const Schema& left_schema = wf_->output_schema(node.inputs[0]);
    const Schema& out_schema = wf_->output_schema(node.id);
    const int lkey = left_schema.IndexOf(node.join.attr);
    const int rkey = wf_->output_schema(node.inputs[1]).IndexOf(node.join.attr);
    ETLOPT_CHECK_MSG(lkey >= 0 && rkey >= 0, "join key missing from an input");
    const Table* broadcast =
        right != nullptr ? nullptr
                         : &ctx_->result->node_outputs.at(node.inputs[1]);
    auto build_side = [&](size_t p) -> const Table& {
      return right != nullptr ? right->slices[p].table : *broadcast;
    };
    std::atomic<int64_t> ns{0};
    auto timed = [&](int64_t start) {
      ns.fetch_add(Now() - start, std::memory_order_relaxed);
    };

    // Every running partition probes and emits. When the right rejects are
    // built, one that crashed earlier still marks the build rows its
    // published probe slice hits: broadcast right rejects are taken against
    // every probe row the barrier holds.
    std::vector<char> emits(num_parts, 0);
    std::vector<Morsel> morsels;
    for (size_t p = 0; p < num_parts; ++p) {
      const Slice& ls = left.slices[p];
      emits[p] = completed(static_cast<int>(p));
      if (ls.rank == nullptr ||
          (emits[p] == 0 && (right != nullptr || !sides.right))) {
        continue;
      }
      const int64_t n = ls.table.num_rows();
      for (int64_t lo = 0; lo < n; lo += kMorselRows) {
        morsels.push_back(
            Morsel{static_cast<int>(p), lo, std::min(n, lo + kMorselRows)});
      }
    }

    // Build sides: one table per partition when co-partitioned, one shared
    // table (lookups are read-only) for a broadcast build.
    std::vector<std::optional<JoinHashTable>> tables(right ? num_parts : 1);
    std::vector<RowBits> hit(tables.size());
    int64_t start = Now();
    if (right != nullptr) {
      ETLOPT_RETURN_IF_ERROR(
          pool_->ParallelFor(num_partitions_, [&](int p) -> Status {
            const size_t sp = static_cast<size_t>(p);
            if (emits[sp] == 0) return Status::OK();
            const int64_t task_start = Now();
            const Table& rt = build_side(sp);
            tables[sp].emplace(rt.column_data(rkey), rt.num_rows());
            if (sides.right) hit[sp] = MakeRowBits(rt.num_rows());
            timed(task_start);
            return Status::OK();
          }));
    } else {
      tables[0].emplace(broadcast->column_data(rkey), broadcast->num_rows());
      if (sides.right) hit[0] = MakeRowBits(broadcast->num_rows());
      timed(start);
    }

    // Pass 1: count matches, mark build rows hit.
    std::vector<int64_t> offsets(static_cast<size_t>(left.rank_space), 0);
    ETLOPT_RETURN_IF_ERROR(pool_->ParallelFor(
        static_cast<int>(morsels.size()), [&](int i) -> Status {
          Morsel& m = morsels[static_cast<size_t>(i)];
          const size_t sp = static_cast<size_t>(m.partition);
          const size_t t = right != nullptr ? sp : 0;
          const int64_t task_start = Now();
          const Value* lkeys = left.slices[sp].table.column_data(lkey);
          const std::vector<int64_t>& lrank = *left.slices[sp].rank;
          for (int64_t l = m.begin; l < m.end; ++l) {
            const JoinHashTable::RowRange range = tables[t]->Lookup(lkeys[l]);
            if (range.empty()) continue;
            if (sides.right) MarkHit(range, &hit[t]);
            if (emits[sp] == 0) continue;
            offsets[static_cast<size_t>(lrank[static_cast<size_t>(l)])] =
                range.size();
            m.out_rows += range.size();
          }
          timed(task_start);
          return Status::OK();
        }));

    // Partition-scoped faults, after the partition's probe: a crashed
    // partition takes its counts back.
    start = Now();
    for (size_t p = 0; p < num_parts; ++p) {
      if (emits[p] == 0 || !Crashes(node, static_cast<int>(p))) continue;
      emits[p] = 0;
      for (int64_t rank : *left.slices[p].rank) {
        offsets[static_cast<size_t>(rank)] = 0;
      }
    }

    // Rejects, per surviving partition: left rows without a match keep
    // their probe ranks; build rows of a co-partitioned join whose key no
    // probe row hit keep their build ranks.
    const bool slice_rrejects = sides.right && right != nullptr;
    std::vector<Slice> rejects(num_parts);
    std::vector<Slice> rrejects(num_parts);
    if (sides.left || slice_rrejects) {
      ETLOPT_RETURN_IF_ERROR(
          pool_->ParallelFor(num_partitions_, [&](int p) -> Status {
            const size_t sp = static_cast<size_t>(p);
            if (emits[sp] == 0) return Status::OK();
            const int64_t task_start = Now();
            if (sides.left) {
              const Slice& ls = left.slices[sp];
              SelVector unmatched;
              for (int64_t l = 0; l < ls.table.num_rows(); ++l) {
                const int64_t rank = (*ls.rank)[static_cast<size_t>(l)];
                if (offsets[static_cast<size_t>(rank)] == 0) {
                  unmatched.push_back(l);
                }
              }
              rejects[sp] = SelectRows(ls, unmatched);
            }
            if (slice_rrejects) {
              const Slice& rs = right->slices[sp];
              rrejects[sp] =
                  SelectRows(rs, ClearRows(hit[sp], rs.table.num_rows()));
            }
            timed(task_start);
            return Status::OK();
          }));
    }

    // Offsets, and each surviving partition's output laid out morsel by
    // morsel, its columns (and ranks) allocated in parallel.
    int64_t total = 0;
    for (int64_t& offset : offsets) {
      const int64_t count = offset;
      offset = total;
      total += count;
    }
    r.rank_space = total;
    std::vector<int64_t> out_rows(num_parts, 0);
    for (Morsel& m : morsels) {
      m.out_at = out_rows[static_cast<size_t>(m.partition)];
      out_rows[static_cast<size_t>(m.partition)] += m.out_rows;
    }
    const int num_left = left_schema.size();
    const size_t num_cols = static_cast<size_t>(out_schema.size()) + 1;
    std::vector<ColumnPtr> cols(num_parts * num_cols);  // ranks last
    ETLOPT_RETURN_IF_ERROR(pool_->ParallelFor(
        static_cast<int>(cols.size()), [&](int i) -> Status {
          const size_t sp = static_cast<size_t>(i) / num_cols;
          if (emits[sp] == 0) return Status::OK();
          cols[static_cast<size_t>(i)] =
              std::make_shared<Column>(static_cast<size_t>(out_rows[sp]));
          return Status::OK();
        }));
    timed(start);

    // Pass 2: probe again; rank and materialize each morsel's matches at
    // its place in the partition's output.
    ETLOPT_RETURN_IF_ERROR(pool_->ParallelFor(
        static_cast<int>(morsels.size()), [&](int i) -> Status {
          const Morsel& m = morsels[static_cast<size_t>(i)];
          const size_t sp = static_cast<size_t>(m.partition);
          if (emits[sp] == 0) return Status::OK();
          obs::ScopedSpan op_span(OpKindName(node.kind));
          const int64_t task_start = Now();
          const Table& lt = left.slices[sp].table;
          const std::vector<int64_t>& lrank = *left.slices[sp].rank;
          const Table& rt = build_side(sp);
          const JoinHashTable& ht = *tables[right != nullptr ? sp : 0];
          const Value* lkeys = lt.column_data(lkey);
          ColumnPtr* out = &cols[sp * num_cols];
          SelVector lsel;
          SelVector rsel;
          lsel.reserve(static_cast<size_t>(m.out_rows));
          rsel.reserve(static_cast<size_t>(m.out_rows));
          Value* rank = out[num_cols - 1]->data() + m.out_at;
          for (int64_t l = m.begin; l < m.end; ++l) {
            const JoinHashTable::RowRange range = ht.Lookup(lkeys[l]);
            const int64_t offset =
                offsets[static_cast<size_t>(lrank[static_cast<size_t>(l)])];
            for (int64_t j = 0; j < range.size(); ++j) {
              *rank++ = offset + j;
              lsel.push_back(l);
              rsel.push_back(range.begin[j]);
            }
          }
          int c = 0;
          for (; c < num_left; ++c) {
            const Value* src = lt.column_data(c);
            Value* dst = out[c]->data() + m.out_at;
            for (size_t k = 0; k < lsel.size(); ++k) dst[k] = src[lsel[k]];
          }
          for (int rc = 0; rc < rt.num_columns(); ++rc) {
            if (rc == rkey) continue;
            const Value* src = rt.column_data(rc);
            Value* dst = out[c++]->data() + m.out_at;
            for (size_t k = 0; k < rsel.size(); ++k) dst[k] = src[rsel[k]];
          }
          timed(task_start);
          if (op_span.active()) {
            op_span.Arg("node", static_cast<int64_t>(node.id));
            op_span.Arg("partition", static_cast<int64_t>(m.partition));
            op_span.Arg("rows_out", m.out_rows);
          }
          return Status::OK();
        }));
    r.self_ns += ns.load();

    for (size_t p = 0; p < num_parts; ++p) {
      if (emits[p] == 0) continue;
      std::vector<ColumnPtr> out(cols.begin() + p * num_cols,
                                 cols.begin() + (p + 1) * num_cols - 1);
      r.slices[p] = Slice{Table::FromColumns(out_schema, std::move(out),
                                             out_rows[p]),
                          std::move(cols[(p + 1) * num_cols - 1])};
    }
    if (sides.left) {
      ETLOPT_RETURN_IF_ERROR(Gather(left_schema, rejects, left.rank_space,
                                    &r.product.rejects.emplace()));
    }
    if (!sides.right) return Status::OK();
    if (right != nullptr) {
      return Gather(wf_->output_schema(node.inputs[1]), rrejects,
                    right->rank_space, &r.product.right_rejects.emplace());
    }
    // Broadcast: the build rows no partition's probe keys hit, in build
    // order.
    r.product.right_rejects =
        Table::Gather(*broadcast, ClearRows(hit[0], broadcast->num_rows()));
    return Status::OK();
  }

  const Workflow* wf_;
  const std::vector<NodeClass>* classes_;
  int num_partitions_;
  ThreadPool* pool_;
  const NodeStepContext* ctx_;
  std::vector<NodeRun> runs_;
  std::vector<char> alive_;  // char, not bool: partitions write their own
  std::vector<NodeId> failed_node_;
};

}  // namespace

ParallelExecutor::ParallelExecutor(const Workflow* workflow,
                                   ParallelOptions options)
    : wf_(workflow), options_(std::move(options)) {
  ETLOPT_CHECK(wf_ != nullptr);
}

Result<ParallelResult> ParallelExecutor::Execute(const SourceMap& sources,
                                                 ThreadPool* pool) const {
  PinAllocatorThresholds();
  ParallelResult pres;
  const int threads = std::max(1, options_.num_threads);
  std::vector<NodeClass> classes;
  AttrId part_attr = kInvalidAttr;
  if (threads > 1) part_attr = ChoosePartitionAttr(*wf_, &classes);
  if (threads <= 1 || part_attr == kInvalidAttr) {
    // Nothing to fan out: the serial path, bit for bit.
    Executor serial(wf_, options_.executor);
    ETLOPT_ASSIGN_OR_RETURN(pres.exec, serial.Execute(sources));
    return pres;
  }
  const int num_partitions =
      options_.num_partitions > 0 ? options_.num_partitions : threads;
  pres.partition_attr = part_attr;
  pres.used_parallel_path = true;

  ExecutionResult& result = pres.exec;
  obs::ScopedSpan exec_span("engine.parallel_execute");
  exec_span.Arg("workflow", wf_->name());
  exec_span.Arg("nodes", static_cast<int64_t>(wf_->nodes().size()));
  exec_span.Arg("workers", static_cast<int64_t>(threads));
  exec_span.Arg("partitions", static_cast<int64_t>(num_partitions));
  result.num_workers = threads;
  result.partitions_total = num_partitions;
  const NodeStepContext ctx(wf_, &sources, &options_.executor, &result);

  auto cls = [&](NodeId id) -> const NodeClass& {
    return classes[static_cast<size_t>(id)];
  };
  auto partitioned_source = [&](const WorkflowNode& node) {
    return node.kind == OpKind::kSource &&
           cls(node.id).mode == Mode::kPartitioned;
  };

  // Output retention. A node's slices go once its last partition-local
  // consumer ran (a node without one, once gathered). Unless the caller
  // retains every output, a node's output leaves node_outputs once its last
  // consumer ran (the serial rule, OutputRelease), and a partitioned node
  // is gathered only when something reads it in serial order: a target, a
  // post-phase consumer, or the caller (no consumer).
  const bool retain = options_.executor.retain_node_outputs;
  OutputRelease release(*wf_, retain);
  const size_t num_nodes = wf_->nodes().size();
  std::vector<int> local_reads(num_nodes, 0);
  std::vector<char> consumed(num_nodes, 0);
  std::vector<char> serial_read(num_nodes, 0);
  for (const WorkflowNode& node : wf_->nodes()) {
    for (NodeId in : node.inputs) {
      const size_t si = static_cast<size_t>(in);
      consumed[si] = 1;
      if (cls(node.id).mode == Mode::kPartitioned) ++local_reads[si];
      if (cls(node.id).mode == Mode::kPost) serial_read[si] = 1;
    }
  }
  auto needs_gather = [&](const WorkflowNode& node) {
    const size_t si = static_cast<size_t>(node.id);
    return retain || !node.target_name.empty() || serial_read[si] != 0 ||
           consumed[si] == 0;
  };
  // Rows of every node's (serial) output, for the row and byte accounting
  // of partitioned nodes, whose inputs need not be gathered.
  std::vector<int64_t> rows(num_nodes, 0);
  auto input_size = [&](const WorkflowNode& node) {
    NodeInputSize in;
    for (NodeId id : node.inputs) {
      const int64_t r = rows[static_cast<size_t>(id)];
      in.rows += r;
      in.bytes += r * 8 * wf_->output_schema(id).size();
    }
    return in;
  };

  // ---- pre phase: sources and broadcast chains, fully serial -------------
  // Source reads keep the exact serial semantics (retry/backoff, row
  // quarantine, error-rate aborts, watermarks); a partitioned source's
  // published output is partitioned afterwards.
  for (const WorkflowNode& node : wf_->nodes()) {
    if (cls(node.id).mode == Mode::kPre || partitioned_source(node)) {
      ETLOPT_RETURN_IF_ERROR(ExecuteNodeStep(ctx, node));
      if (result.aborted()) break;
      rows[static_cast<size_t>(node.id)] =
          result.node_outputs.at(node.id).num_rows();
      release.After(node, &result);
    }
  }

  std::optional<ThreadPool> local_pool;
  if (pool == nullptr) {
    local_pool.emplace(threads);
    pool = &*local_pool;
  }
  PartitionPhase phase(wf_, &classes, num_partitions, pool, &ctx);

  if (!result.aborted()) {
    // ---- partition the partitioned sources -------------------------------
    result.partition_rows.assign(static_cast<size_t>(num_partitions), 0);
    int64_t total_rows = 0;
    for (const WorkflowNode& node : wf_->nodes()) {
      if (!partitioned_source(node)) continue;
      TablePartitions parts = HashPartition(result.node_outputs.at(node.id),
                                            part_attr, num_partitions, pool);
      for (int p = 0; p < num_partitions; ++p) {
        const int64_t n = parts.parts[static_cast<size_t>(p)].num_rows();
        result.partition_rows[static_cast<size_t>(p)] += n;
        total_rows += n;
      }
      phase.AddSource(node.id, std::move(parts));
    }
    const int64_t max_rows = *std::max_element(result.partition_rows.begin(),
                                               result.partition_rows.end());
    result.partition_skew =
        total_rows > 0 ? static_cast<double>(max_rows) * num_partitions /
                             static_cast<double>(total_rows)
                       : 0.0;

    // ---- partition phase: the chain, node by node ------------------------
    for (const WorkflowNode& node : wf_->nodes()) {
      if (cls(node.id).mode != Mode::kPartitioned || partitioned_source(node)) {
        continue;
      }
      ETLOPT_RETURN_IF_ERROR(phase.RunNode(node));
      NodeRun& run = phase.run(node.id);
      rows[static_cast<size_t>(node.id)] = run.rows;
      if (needs_gather(node)) {
        const NodeRun& in_run = phase.run(node.inputs[0]);
        if ((node.kind == OpKind::kSink ||
             node.kind == OpKind::kMaterialize) &&
            in_run.product.output.has_value() && in_run.rows == run.rows) {
          // A target holds its input's rows: share the gathered columns,
          // as the serial executor does.
          run.product.output = *in_run.product.output;
        } else {
          ETLOPT_RETURN_IF_ERROR(phase.Gather(
              wf_->output_schema(node.id), run.slices, run.rank_space,
              &run.product.output.emplace()));
        }
      }
      for (NodeId in : node.inputs) {
        if (--local_reads[static_cast<size_t>(in)] == 0) {
          phase.run(in).slices = {};
        }
      }
      if (local_reads[static_cast<size_t>(node.id)] == 0 &&
          run.product.output.has_value()) {
        run.slices = {};
      }
      release.After(node, &result);
    }
  }

  // Earliest partition failure (by chain position, then partition index):
  // the run's abort point.
  bool partition_crashed = false;
  NodeId crash_node = kInvalidNode;
  int crash_partition = -1;
  for (int p = 0; p < num_partitions; ++p) {
    if (phase.completed(p)) {
      ++result.partitions_completed;
    } else if (!partition_crashed || phase.failed_node(p) < crash_node) {
      partition_crashed = true;
      crash_node = phase.failed_node(p);
      crash_partition = p;
    }
  }
  if (result.aborted()) result.partitions_completed = 0;

  // ---- merge barrier + post phase, interleaved in plan order -------------
  if (!result.aborted()) {
    for (const WorkflowNode& node : wf_->nodes()) {
      const NodeClass& c = cls(node.id);
      if (c.mode == Mode::kPre || partitioned_source(node)) continue;
      if (partition_crashed && node.id >= crash_node && !result.aborted()) {
        AbortRun(ctx, AbortKind::kCrash,
                 "injected crash fault at partition " +
                     std::to_string(crash_partition) + " (" +
                     OpFaultName(wf_->node(crash_node)) + ")",
                 wf_->node(crash_node));
      }
      if (result.aborted() && !partition_crashed) {
        // An operator-scoped abort (injected crash or guard monitor, both
        // fired from FinishNodeStep) deliberately leaves the failed node
        // unpublished, so downstream nodes have no merge surface: the
        // salvage stops at the completed prefix.
        continue;
      }
      if (c.mode == Mode::kPost) {
        if (result.aborted()) continue;
        ETLOPT_RETURN_IF_ERROR(ExecuteNodeStep(ctx, node));
        if (result.aborted()) continue;
        rows[static_cast<size_t>(node.id)] =
            result.node_outputs.at(node.id).num_rows();
        release.After(node, &result);
        continue;
      }
      NodeRun& run = phase.run(node.id);
      if (!result.aborted()) {
        FinishNodeStep(ctx, node, input_size(node), run.rows, run.self_ns,
                       &run.product);
      } else if (partition_crashed) {
        // Salvage: publish what the completed partitions produced — the
        // partition-granular analog of the serial completed-prefix rule.
        PublishNodeProduct(node, &run.product, &result);
        ++result.nodes_partial;
      }
    }
  }

  if (result.aborted() && exec_span.active()) {
    exec_span.Arg("abort", AbortKindName(result.abort_kind));
    exec_span.Arg("nodes_completed",
                  static_cast<int64_t>(result.nodes_completed));
  }
  return pres;
}

}  // namespace parallel
}  // namespace etlopt
