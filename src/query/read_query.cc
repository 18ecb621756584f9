#include <algorithm>
#include <functional>
#include <utility>

#include "common/bytes.h"
#include "common/strings.h"
#include "query/executor.h"
#include "replication/link_object.h"
#include "storage/read_ahead.h"
#include "telemetry/workload_profiler.h"

namespace fieldrep {

namespace {
/// Record tag for output-file tuples (distinct from object type tags and
/// the RecordFile relocation stubs).
constexpr uint16_t kOutputRecordTag = 0xFF02;

std::string SerializeOutputRow(const std::vector<Value>& row, uint32_t pad) {
  std::string out;
  PutU16(&out, kOutputRecordTag);
  PutU16(&out, static_cast<uint16_t>(row.size()));
  for (const Value& v : row) EncodeTaggedValue(v, &out);
  if (out.size() < pad) out.resize(pad, '\0');
  return out;
}

Oid RefOrInvalid(const Value& v) {
  return v.is_ref() ? v.as_ref() : Oid::Invalid();
}

struct PendingReplica {
  size_t row;
  Oid replica_oid;
};
struct PendingJoin {
  size_t row;
  Oid current;
};

const Oid& ReplicaOidOf(const PendingReplica& p) { return p.replica_oid; }
const Oid& JoinOidOf(const PendingJoin& p) { return p.current; }

/// Splits `n` sorted items into at most `parts` contiguous [begin, end)
/// ranges without splitting a page across ranges: a range boundary is
/// moved forward while the item before it addresses the same page. With a
/// buffer-resident pool this makes the logical I/O counters independent
/// of which worker processes which range — every page is fetched by
/// exactly one range's access stream plus single-flight-deduplicated
/// concurrent hits.
std::vector<std::pair<size_t, size_t>> PageAlignedRanges(
    size_t n, size_t parts, const std::function<PageId(size_t)>& page_of) {
  std::vector<std::pair<size_t, size_t>> ranges;
  if (n == 0 || parts == 0) return ranges;
  const size_t target = (n + parts - 1) / parts;
  size_t start = 0;
  while (start < n) {
    size_t end = std::min(start + target, n);
    while (end < n && page_of(end) == page_of(end - 1)) ++end;
    ranges.emplace_back(start, end);
    start = end;
  }
  return ranges;
}
}  // namespace

Status Executor::RunReadStagesSerial(ReadResult* result, ObjectSet* set,
                                     const std::vector<ColumnPlan>& plans,
                                     bool needs_recheck,
                                     const std::optional<BoundClause>& clause,
                                     const std::vector<Oid>& oids,
                                     StageTracer* tracer) {
  // Stage 0: fetch head objects in physical order; evaluate attribute and
  // in-place-replica columns; queue separate-replica reads and joins.
  std::vector<std::vector<PendingReplica>> pending_replicas(plans.size());
  std::vector<std::vector<PendingJoin>> pending_joins(plans.size());

  // Read-ahead: every stage below visits its OIDs in sorted (physical)
  // order, so it knows its whole page list before the first read, and a
  // cursor keeps that list announced to the pool ahead of the loop.
  // Announcing is best-effort — the on-demand reads keep the results and
  // the logical I/O counters exact.
  BufferPool* pool = set->file().pool();
  ReadAheadCursor heads_ahead(pool, oids);
  for (size_t i = 0; i < oids.size(); ++i) {
    heads_ahead.Advance(i);
    const Oid& oid = oids[i];
    Object object;
    FIELDREP_RETURN_IF_ERROR(set->Read(oid, &object));
    if (needs_recheck && clause.has_value()) {
      FIELDREP_ASSIGN_OR_RETURN(Value value,
                                EvaluateColumn(clause->plan, object));
      FIELDREP_ASSIGN_OR_RETURN(bool match, clause->predicate.Matches(value));
      if (!match) continue;
    }
    ++result->heads_scanned;
    size_t row_index = result->rows.size();
    std::vector<Value> row(plans.size(), Value::Null());
    for (size_t c = 0; c < plans.size(); ++c) {
      const ColumnPlan& plan = plans[c];
      switch (plan.kind) {
        case ColumnPlan::Kind::kAttr:
          row[c] = object.field(plan.attr_index);
          break;
        case ColumnPlan::Kind::kReplica: {
          if (plan.path->strategy == ReplicationStrategy::kInPlace) {
            const ReplicaValueSlot* slot =
                object.FindReplicaValues(plan.path->id);
            if (slot != nullptr &&
                plan.replica_pos < static_cast<int>(slot->values.size())) {
              row[c] = slot->values[plan.replica_pos];
            }
          } else {
            const ReplicaRefSlot* slot = object.FindReplicaRef(plan.path->id);
            if (slot != nullptr) {
              pending_replicas[c].push_back({row_index, slot->replica_oid});
            }
          }
          break;
        }
        case ColumnPlan::Kind::kJoin: {
          Oid start;
          if (plan.path != nullptr) {
            // Replicated prefix: the next-hop OID comes from the hidden
            // replica slot at zero I/O cost.
            const ReplicaValueSlot* slot =
                object.FindReplicaValues(plan.path->id);
            if (slot != nullptr &&
                plan.replica_pos < static_cast<int>(slot->values.size())) {
              start = RefOrInvalid(slot->values[plan.replica_pos]);
            }
          } else {
            start = RefOrInvalid(object.field(plan.start_attr));
          }
          if (start.valid()) pending_joins[c].push_back({row_index, start});
          break;
        }
      }
    }
    result->rows.push_back(std::move(row));
  }
  tracer->EndStage("heads", oids.size());

  // Stage 1: separate-replica columns — batched, sorted by replica OID so
  // the S' file is read in clustered order.
  uint64_t replica_reads = 0;
  for (size_t c = 0; c < plans.size(); ++c) {
    if (pending_replicas[c].empty()) continue;
    const ColumnPlan& plan = plans[c];
    std::sort(pending_replicas[c].begin(), pending_replicas[c].end(),
              [](const PendingReplica& a, const PendingReplica& b) {
                return a.replica_oid < b.replica_oid;
              });
    FIELDREP_ASSIGN_OR_RETURN(
        RecordFile * file, sets_->GetAuxFile(plan.path->replica_set_file));
    ReadAheadCursor ahead(pool, pending_replicas[c], 0,
                          pending_replicas[c].size(), ReplicaOidOf);
    for (size_t i = 0; i < pending_replicas[c].size(); ++i) {
      ahead.Advance(i);
      const PendingReplica& pending = pending_replicas[c][i];
      std::string payload;
      FIELDREP_RETURN_IF_ERROR(file->Read(pending.replica_oid, &payload));
      ReplicaRecord record;
      FIELDREP_RETURN_IF_ERROR(record.Deserialize(payload));
      if (plan.replica_pos < static_cast<int>(record.values.size())) {
        result->rows[pending.row][c] = record.values[plan.replica_pos];
      }
      ++replica_reads;
    }
  }
  tracer->EndStage("replicas", replica_reads);

  // Stage 2: functional joins — level by level, each level visited in
  // sorted OID order (the optimal-join discipline of Section 6.2).
  uint64_t join_reads = 0;
  for (size_t c = 0; c < plans.size(); ++c) {
    if (pending_joins[c].empty()) continue;
    const ColumnPlan& plan = plans[c];
    std::vector<PendingJoin> frontier = std::move(pending_joins[c]);
    for (size_t hop = 0; hop < plan.hop_attrs.size(); ++hop) {
      bool last = (hop + 1 == plan.hop_attrs.size());
      std::sort(frontier.begin(), frontier.end(),
                [](const PendingJoin& a, const PendingJoin& b) {
                  return a.current < b.current;
                });
      std::vector<PendingJoin> next;
      ReadAheadCursor ahead(pool, frontier, 0, frontier.size(), JoinOidOf);
      for (size_t i = 0; i < frontier.size(); ++i) {
        ahead.Advance(i);
        const PendingJoin& pending = frontier[i];
        Object target;
        FIELDREP_RETURN_IF_ERROR(ReadObjectAt(pending.current, &target));
        ++join_reads;
        const Value& v = target.field(plan.hop_attrs[hop]);
        if (last) {
          result->rows[pending.row][c] = v;
        } else {
          Oid next_oid = RefOrInvalid(v);
          if (next_oid.valid()) next.push_back({pending.row, next_oid});
        }
      }
      if (!last) frontier = std::move(next);
    }
  }
  tracer->EndStage("joins", join_reads);
  return Status::OK();
}

Status Executor::RunReadStagesParallel(
    ReadResult* result, ObjectSet* set,
    const std::vector<ColumnPlan>& plans, bool needs_recheck,
    const std::optional<BoundClause>& clause, const std::vector<Oid>& oids,
    StageTracer* tracer) {
  // Each worker range runs its own read-ahead cursor (see the serial
  // stages); the pool-wide read-ahead budget bounds them together.
  BufferPool* pool = set->file().pool();
  const size_t nworkers = workers_->size();

  // Stage 0 fan-out: page-aligned ranges of the sorted head OIDs. Each
  // worker runs the serial stage-0 loop over its range with worker-local
  // row/pending accumulators (row indices local to the range); the merge
  // below concatenates them in range order, so the result rows come out
  // in exactly the serial order.
  std::vector<std::pair<size_t, size_t>> ranges = PageAlignedRanges(
      oids.size(), nworkers, [&](size_t i) { return oids[i].page_id; });

  struct Stage0Out {
    std::vector<std::vector<Value>> rows;
    uint64_t heads = 0;
    std::vector<std::vector<PendingReplica>> pending_replicas;
    std::vector<std::vector<PendingJoin>> pending_joins;
    Status status;
  };
  std::vector<Stage0Out> outs(ranges.size());
  {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(ranges.size());
    for (size_t r = 0; r < ranges.size(); ++r) {
      outs[r].pending_replicas.resize(plans.size());
      outs[r].pending_joins.resize(plans.size());
      tasks.emplace_back([&, r] {
        Stage0Out& out = outs[r];
        const size_t begin = ranges[r].first;
        const size_t end = ranges[r].second;
        out.status = [&]() -> Status {
          ReadAheadCursor ahead(pool, oids, begin, end,
                                [](const Oid& oid) -> const Oid& {
                                  return oid;
                                });
          for (size_t i = begin; i < end; ++i) {
            ahead.Advance(i);
            const Oid& oid = oids[i];
            Object object;
            FIELDREP_RETURN_IF_ERROR(set->Read(oid, &object));
            if (needs_recheck && clause.has_value()) {
              FIELDREP_ASSIGN_OR_RETURN(Value value,
                                        EvaluateColumn(clause->plan, object));
              FIELDREP_ASSIGN_OR_RETURN(bool match,
                                        clause->predicate.Matches(value));
              if (!match) continue;
            }
            ++out.heads;
            size_t row_index = out.rows.size();
            std::vector<Value> row(plans.size(), Value::Null());
            for (size_t c = 0; c < plans.size(); ++c) {
              const ColumnPlan& plan = plans[c];
              switch (plan.kind) {
                case ColumnPlan::Kind::kAttr:
                  row[c] = object.field(plan.attr_index);
                  break;
                case ColumnPlan::Kind::kReplica: {
                  if (plan.path->strategy == ReplicationStrategy::kInPlace) {
                    const ReplicaValueSlot* slot =
                        object.FindReplicaValues(plan.path->id);
                    if (slot != nullptr &&
                        plan.replica_pos <
                            static_cast<int>(slot->values.size())) {
                      row[c] = slot->values[plan.replica_pos];
                    }
                  } else {
                    const ReplicaRefSlot* slot =
                        object.FindReplicaRef(plan.path->id);
                    if (slot != nullptr) {
                      out.pending_replicas[c].push_back(
                          {row_index, slot->replica_oid});
                    }
                  }
                  break;
                }
                case ColumnPlan::Kind::kJoin: {
                  Oid start;
                  if (plan.path != nullptr) {
                    const ReplicaValueSlot* slot =
                        object.FindReplicaValues(plan.path->id);
                    if (slot != nullptr &&
                        plan.replica_pos <
                            static_cast<int>(slot->values.size())) {
                      start = RefOrInvalid(slot->values[plan.replica_pos]);
                    }
                  } else {
                    start = RefOrInvalid(object.field(plan.start_attr));
                  }
                  if (start.valid()) {
                    out.pending_joins[c].push_back({row_index, start});
                  }
                  break;
                }
              }
            }
            out.rows.push_back(std::move(row));
          }
          return Status::OK();
        }();
      });
    }
    workers_->RunBatch(std::move(tasks));
  }
  for (const Stage0Out& out : outs) {
    FIELDREP_RETURN_IF_ERROR(out.status);
  }

  // Merge in range order; local row indices shift by the range's base.
  std::vector<std::vector<PendingReplica>> pending_replicas(plans.size());
  std::vector<std::vector<PendingJoin>> pending_joins(plans.size());
  for (Stage0Out& out : outs) {
    const size_t base = result->rows.size();
    result->heads_scanned += out.heads;
    for (std::vector<Value>& row : out.rows) {
      result->rows.push_back(std::move(row));
    }
    for (size_t c = 0; c < plans.size(); ++c) {
      for (const PendingReplica& p : out.pending_replicas[c]) {
        pending_replicas[c].push_back({base + p.row, p.replica_oid});
      }
      for (const PendingJoin& p : out.pending_joins[c]) {
        pending_joins[c].push_back({base + p.row, p.current});
      }
    }
  }
  tracer->EndStage("heads", oids.size());

  // Stage 1: separate-replica columns. Globally sorted by replica OID
  // (the serial clustered-read order), then page-aligned ranges; each
  // entry writes its own result cell, so workers touch disjoint memory.
  uint64_t replica_reads = 0;
  for (size_t c = 0; c < plans.size(); ++c) {
    if (pending_replicas[c].empty()) continue;
    const ColumnPlan& plan = plans[c];
    std::vector<PendingReplica>& pending = pending_replicas[c];
    std::sort(pending.begin(), pending.end(),
              [](const PendingReplica& a, const PendingReplica& b) {
                return a.replica_oid < b.replica_oid;
              });
    FIELDREP_ASSIGN_OR_RETURN(
        RecordFile * file, sets_->GetAuxFile(plan.path->replica_set_file));
    std::vector<std::pair<size_t, size_t>> col_ranges =
        PageAlignedRanges(pending.size(), nworkers, [&](size_t i) {
          return pending[i].replica_oid.page_id;
        });
    std::vector<Status> statuses(col_ranges.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(col_ranges.size());
    for (size_t r = 0; r < col_ranges.size(); ++r) {
      tasks.emplace_back([&, r] {
        const size_t begin = col_ranges[r].first;
        const size_t end = col_ranges[r].second;
        statuses[r] = [&]() -> Status {
          ReadAheadCursor ahead(pool, pending, begin, end, ReplicaOidOf);
          for (size_t i = begin; i < end; ++i) {
            ahead.Advance(i);
            const PendingReplica& entry = pending[i];
            std::string payload;
            FIELDREP_RETURN_IF_ERROR(file->Read(entry.replica_oid, &payload));
            ReplicaRecord record;
            FIELDREP_RETURN_IF_ERROR(record.Deserialize(payload));
            if (plan.replica_pos < static_cast<int>(record.values.size())) {
              result->rows[entry.row][c] = record.values[plan.replica_pos];
            }
          }
          return Status::OK();
        }();
      });
    }
    workers_->RunBatch(std::move(tasks));
    for (const Status& s : statuses) {
      FIELDREP_RETURN_IF_ERROR(s);
    }
    replica_reads += pending.size();
  }
  tracer->EndStage("replicas", replica_reads);

  // Stage 2: functional joins, level by level. Each level sorts the
  // frontier globally (the optimal-join discipline), fans out over
  // page-aligned ranges, and concatenates the workers' next-frontier
  // vectors in range order; the next level re-sorts, so concatenation
  // order never affects the outcome.
  uint64_t join_reads = 0;
  for (size_t c = 0; c < plans.size(); ++c) {
    if (pending_joins[c].empty()) continue;
    const ColumnPlan& plan = plans[c];
    std::vector<PendingJoin> frontier = std::move(pending_joins[c]);
    for (size_t hop = 0; hop < plan.hop_attrs.size(); ++hop) {
      bool last = (hop + 1 == plan.hop_attrs.size());
      std::sort(frontier.begin(), frontier.end(),
                [](const PendingJoin& a, const PendingJoin& b) {
                  return a.current < b.current;
                });
      std::vector<std::pair<size_t, size_t>> hop_ranges = PageAlignedRanges(
          frontier.size(), nworkers,
          [&](size_t i) { return frontier[i].current.page_id; });
      std::vector<Status> statuses(hop_ranges.size());
      std::vector<std::vector<PendingJoin>> nexts(hop_ranges.size());
      std::vector<std::function<void()>> tasks;
      tasks.reserve(hop_ranges.size());
      for (size_t r = 0; r < hop_ranges.size(); ++r) {
        tasks.emplace_back([&, r, hop, last] {
          const size_t begin = hop_ranges[r].first;
          const size_t end = hop_ranges[r].second;
          statuses[r] = [&]() -> Status {
            ReadAheadCursor ahead(pool, frontier, begin, end, JoinOidOf);
            for (size_t i = begin; i < end; ++i) {
              ahead.Advance(i);
              const PendingJoin& entry = frontier[i];
              Object target;
              FIELDREP_RETURN_IF_ERROR(ReadObjectAt(entry.current, &target));
              const Value& v = target.field(plan.hop_attrs[hop]);
              if (last) {
                result->rows[entry.row][c] = v;
              } else {
                Oid next_oid = RefOrInvalid(v);
                if (next_oid.valid()) nexts[r].push_back({entry.row, next_oid});
              }
            }
            return Status::OK();
          }();
        });
      }
      workers_->RunBatch(std::move(tasks));
      for (const Status& s : statuses) {
        FIELDREP_RETURN_IF_ERROR(s);
      }
      join_reads += frontier.size();
      if (!last) {
        frontier.clear();
        for (std::vector<PendingJoin>& next : nexts) {
          frontier.insert(frontier.end(), next.begin(), next.end());
        }
      }
    }
  }
  tracer->EndStage("joins", join_reads);
  return Status::OK();
}

Status Executor::ExecuteRead(const ReadQuery& query, ReadResult* result,
                             QueryTrace* trace) {
  *result = ReadResult();
  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * set, sets_->GetSet(query.set_name));
  StageTracer tracer(trace, set->file().pool());
  if (trace != nullptr) {
    trace->kind = QueryTrace::Kind::kRead;
    trace->set_name = query.set_name;
  }

  // Plan projections.
  std::vector<ColumnPlan> plans;
  plans.reserve(query.projections.size());
  for (const std::string& projection : query.projections) {
    ColumnPlan plan;
    FIELDREP_RETURN_IF_ERROR(PlanColumn(*set, query.set_name,
                                        query.use_replication, projection,
                                        &plan));
    // "Not propagated until needed": reading through a deferred path is
    // the need.
    FIELDREP_RETURN_IF_ERROR(FlushDeferredForPlan(plan));
    plans.push_back(std::move(plan));
  }
  result->access.reserve(plans.size());
  for (const ColumnPlan& plan : plans) {
    switch (plan.kind) {
      case ColumnPlan::Kind::kAttr:
        result->access.push_back(ReadResult::Access::kAttribute);
        break;
      case ColumnPlan::Kind::kReplica:
        result->access.push_back(
            plan.path->strategy == ReplicationStrategy::kInPlace
                ? ReadResult::Access::kReplicaInPlace
                : ReadResult::Access::kReplicaSeparate);
        break;
      case ColumnPlan::Kind::kJoin:
        result->access.push_back(ReadResult::Access::kJoin);
        break;
    }
  }
  if (trace != nullptr) {
    trace->strategies.reserve(result->access.size());
    for (ReadResult::Access a : result->access) {
      switch (a) {
        case ReadResult::Access::kAttribute:
          trace->strategies.push_back("attr");
          break;
        case ReadResult::Access::kReplicaInPlace:
          trace->strategies.push_back("replica-inplace");
          break;
        case ReadResult::Access::kReplicaSeparate:
          trace->strategies.push_back("replica-separate");
          break;
        case ReadResult::Access::kJoin:
          trace->strategies.push_back("join");
          break;
      }
    }
  }
  tracer.EndStage("plan", plans.size());

  // Resolve the clause to sorted head OIDs.
  bool needs_recheck = false;
  std::optional<BoundClause> clause;
  std::vector<Oid> oids;
  FIELDREP_RETURN_IF_ERROR(CollectTargets(
      set, query.predicate, query.set_name, query.use_replication,
      &result->used_index, &needs_recheck, &clause, &oids));
  if (trace != nullptr) trace->used_index = result->used_index;
  tracer.EndStage("collect", oids.size());

  // With one worker (or no pool) run the pre-parallelism serial code
  // unchanged; the parallel path requires at least two items to split.
  const bool parallel =
      workers_ != nullptr && workers_->size() > 1 && oids.size() > 1;
  if (parallel) {
    if (trace != nullptr) {
      trace->parallel_ranges = PageAlignedRanges(
          oids.size(), workers_->size(),
          [&](size_t i) { return oids[i].page_id; }).size();
    }
    FIELDREP_RETURN_IF_ERROR(RunReadStagesParallel(
        result, set, plans, needs_recheck, clause, oids, &tracer));
  } else {
    FIELDREP_RETURN_IF_ERROR(RunReadStagesSerial(
        result, set, plans, needs_recheck, clause, oids, &tracer));
  }
  // Stage 3: spool result tuples to the output file T. Always serial —
  // output insertion is a mutation, so it holds the output lock (the
  // only lock a read query ever takes; set locks stay reader-free).
  if (query.write_output) {
    MutexLock write_lock(output_mu_);
    FIELDREP_ASSIGN_OR_RETURN(RecordFile * out, OutputFileLocked());
    for (const std::vector<Value>& row : result->rows) {
      Oid ignored;
      FIELDREP_RETURN_IF_ERROR(
          out->Insert(SerializeOutputRow(row, query.output_pad), &ignored));
      ++result->rows_written;
    }
    tracer.EndStage("output", result->rows_written);
  }
  if (trace != nullptr) {
    trace->rows = result->rows.size();
  }
  tracer.Finish();

  // Workload profile: one record per replicated-path or join projection,
  // keyed by the catalog path spec when one exists (so read-side and
  // propagation activity aggregate under the same key).
  if (profiler_ != nullptr) {
    for (size_t c = 0; c < plans.size(); ++c) {
      const ColumnPlan& plan = plans[c];
      if (plan.kind == ColumnPlan::Kind::kAttr) continue;
      const bool from_replica = plan.kind == ColumnPlan::Kind::kReplica;
      const std::string spec =
          plan.path != nullptr ? plan.path->spec
                               : query.set_name + "." + query.projections[c];
      profiler_->RecordPathRead(spec, from_replica, result->rows.size());
    }
  }
  return Status::OK();
}

}  // namespace fieldrep
