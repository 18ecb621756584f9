#include <algorithm>

#include "common/strings.h"
#include "query/executor.h"
#include "storage/read_ahead.h"

namespace fieldrep {

Status Executor::ExecuteUpdate(const UpdateQuery& query,
                               UpdateResult* result, QueryTrace* trace) {
  *result = UpdateResult();
  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * set, sets_->GetSet(query.set_name));
  StageTracer tracer(trace, set->file().pool());
  if (trace != nullptr) {
    trace->kind = QueryTrace::Kind::kUpdate;
    trace->set_name = query.set_name;
  }

  // Bind assignments to attribute indices up front.
  std::vector<std::pair<int, Value>> assignments;
  assignments.reserve(query.assignments.size());
  for (const auto& [attr_name, value] : query.assignments) {
    int attr = set->type().FindAttribute(attr_name);
    if (attr < 0) {
      return Status::InvalidArgument("type " + set->type().name() +
                                     " has no attribute " + attr_name);
    }
    if (trace != nullptr) trace->strategies.push_back(attr_name);
    assignments.emplace_back(attr, value);
  }
  tracer.EndStage("plan", assignments.size());

  bool needs_recheck = false;
  std::optional<BoundClause> clause;
  std::vector<Oid> oids;
  FIELDREP_RETURN_IF_ERROR(CollectTargets(
      set, query.predicate, query.set_name, /*use_replication=*/true,
      &result->used_index, &needs_recheck, &clause, &oids));
  if (trace != nullptr) trace->used_index = result->used_index;
  tracer.EndStage("collect", oids.size());

  // Announce the targets' pages ahead of the per-object first pass; the
  // replication manager then propagates the whole set's terminal values
  // at once (DESIGN.md §9).
  ReadAheadCursor ahead(set->file().pool(), oids);
  auto admit = [&](size_t i) -> Result<bool> {
    ahead.Advance(i);
    if (!needs_recheck || !clause.has_value()) return true;
    Object object;
    FIELDREP_RETURN_IF_ERROR(set->Read(oids[i], &object));
    FIELDREP_ASSIGN_OR_RETURN(Value value,
                              EvaluateColumn(clause->plan, object));
    return clause->predicate.Matches(value);
  };
  FIELDREP_RETURN_IF_ERROR(replication_->UpdateFields(
      query.set_name, oids, assignments, admit, &result->objects_updated));
  tracer.EndStage("update", result->objects_updated);
  if (trace != nullptr) trace->rows = result->objects_updated;
  tracer.Finish();
  return Status::OK();
}

}  // namespace fieldrep
