#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"
#include "replication/mutation_context.h"
#include "replication/replication_manager.h"
#include "storage/buffer_pool.h"
#include "telemetry/metrics.h"
#include "telemetry/workload_profiler.h"
#include "wal/wal_manager.h"

namespace fieldrep {

namespace {
int PositionOf(const std::vector<int>& fields, int attr_index) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (fields[i] == attr_index) return static_cast<int>(i);
  }
  return -1;
}

constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

void ReplicationManager::PendingInsert(uint16_t path_id, uint64_t packed) {
  MutexLock lock(pending_mu_);
  if (pending_.insert({path_id, packed}).second) {
    pending_count_.fetch_add(1, kRelaxed);
    deferred_queued_.fetch_add(1, kRelaxed);
  }
}

void ReplicationManager::PendingErase(uint16_t path_id, uint64_t packed) {
  MutexLock lock(pending_mu_);
  if (pending_.erase({path_id, packed}) != 0) {
    pending_count_.fetch_sub(1, kRelaxed);
  }
}

ReplicationManager::Telemetry ReplicationManager::telemetry() const {
  Telemetry t;
  t.propagations = propagations_.load(kRelaxed);
  t.heads_updated = heads_updated_.load(kRelaxed);
  t.link_traversals = link_traversals_.load(kRelaxed);
  t.separate_replica_writes = separate_replica_writes_.load(kRelaxed);
  t.deferred_queued = deferred_queued_.load(kRelaxed);
  t.deferred_flushed = deferred_flushed_.load(kRelaxed);
  return t;
}

void ReplicationManager::CollectMetrics(std::vector<MetricSample>* out) const {
  auto add = [out](const char* name, const char* help, MetricKind kind,
                   double value) {
    MetricSample s;
    s.name = name;
    s.help = help;
    s.kind = kind;
    s.value = value;
    out->push_back(std::move(s));
  };
  const Telemetry t = telemetry();
  add("fieldrep_replication_propagations_total",
      "Terminal-value propagations executed.", MetricKind::kCounter,
      static_cast<double>(t.propagations));
  add("fieldrep_replication_heads_updated_total",
      "Head replica slots rewritten.", MetricKind::kCounter,
      static_cast<double>(t.heads_updated));
  add("fieldrep_replication_link_traversals_total",
      "Link-object member expansions (link-file fetches).",
      MetricKind::kCounter, static_cast<double>(t.link_traversals));
  add("fieldrep_replication_separate_replica_writes_total",
      "Shared S' replica record updates.", MetricKind::kCounter,
      static_cast<double>(t.separate_replica_writes));
  add("fieldrep_replication_deferred_queued_total",
      "Propagations queued by deferred paths.", MetricKind::kCounter,
      static_cast<double>(t.deferred_queued));
  add("fieldrep_replication_deferred_flushed_total",
      "Queued propagations drained by flushes.", MetricKind::kCounter,
      static_cast<double>(t.deferred_flushed));
  add("fieldrep_replication_pending_propagations",
      "Deferred propagations awaiting a flush.", MetricKind::kGauge,
      static_cast<double>(pending_count_.load(kRelaxed)));
}

// ---------------------------------------------------------------------------
// Head collection
// ---------------------------------------------------------------------------

Status ReplicationManager::CollectHeadsFromLevel(
    const ReplicationPathInfo& path, uint16_t level, const Oid& oid,
    MutationContext* ctx, std::vector<Oid>* heads) {
  heads->clear();
  if (path.collapsed) {
    // The single collapsed link maps the terminal straight to the heads.
    Object* image;
    FIELDREP_RETURN_IF_ERROR(ctx->Get(oid, &image));
    link_traversals_.fetch_add(1, kRelaxed);
    return ops_.GetMembers(path.link_sequence[0], *image, heads);
  }
  // Walk the inverted path downward: the frontier starts at `level` and the
  // members of each frontier object's link object sit one level closer to
  // the head set. Frontiers stay sorted so objects are visited in
  // clustered order, as the paper's sorted link objects intend.
  std::vector<Oid> frontier = {oid};
  for (uint16_t i = level; i >= 1; --i) {
    if (pool_ != nullptr && frontier.size() > 1) {
      // Best-effort read-ahead over the sorted frontier; a failed batch
      // just falls back to on-demand fetches below.
      (void)pool_->PrefetchOidPages(frontier);
    }
    std::vector<Oid> next;
    for (const Oid& owner : frontier) {
      Object* image;
      FIELDREP_RETURN_IF_ERROR(ctx->Get(owner, &image));
      std::vector<Oid> members;
      link_traversals_.fetch_add(1, kRelaxed);
      FIELDREP_RETURN_IF_ERROR(
          ops_.GetMembers(path.link_sequence[i - 1], *image, &members));
      next.insert(next.end(), members.begin(), members.end());
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  *heads = std::move(frontier);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Value propagation
// ---------------------------------------------------------------------------

Status ReplicationManager::UpdateHeadSlots(const ReplicationPathInfo& path,
                                           const std::vector<Oid>& heads,
                                           const std::vector<Value>& values,
                                           int value_pos,
                                           MutationContext* ctx) {
  for (const Oid& head : heads) {
    Object* image;
    FIELDREP_RETURN_IF_ERROR(ctx->Get(head, &image));
    std::vector<Value> old_values;
    if (const ReplicaValueSlot* slot = image->FindReplicaValues(path.id)) {
      old_values = slot->values;
    }
    std::vector<Value> new_values;
    if (value_pos < 0) {
      new_values = values;
    } else {
      new_values = old_values;
      new_values.resize(path.bound.terminal_fields.size(), Value::Null());
      new_values[value_pos] = values[0];
    }
    image->SetReplicaValues(path.id, new_values);
    FIELDREP_RETURN_IF_ERROR(ops_.WriteObject(head, *image));
    heads_updated_.fetch_add(1, kRelaxed);
    if (indexes_ != nullptr) {
      FIELDREP_RETURN_IF_ERROR(indexes_->OnReplicaValuesChanged(
          path.bound.set_name, head, path.id, old_values, new_values));
    }
  }
  return Status::OK();
}

Status ReplicationManager::RepointHeadRefs(const ReplicationPathInfo& path,
                                           const std::vector<Oid>& heads,
                                           const Oid& replica_oid,
                                           MutationContext* ctx) {
  for (const Oid& head : heads) {
    Object* image;
    FIELDREP_RETURN_IF_ERROR(ctx->Get(head, &image));
    if (replica_oid.valid()) {
      ReplicaRefSlot slot;
      slot.path_id = path.id;
      slot.replica_oid = replica_oid;
      image->SetReplicaRef(slot);
    } else {
      image->RemoveReplicaRef(path.id);
    }
    FIELDREP_RETURN_IF_ERROR(ops_.WriteObject(head, *image));
  }
  return Status::OK();
}

Status ReplicationManager::PropagateTerminalValue(const std::string& set_name,
                                                  const Oid& oid,
                                                  Object* object,
                                                  int attr_index,
                                                  MutationContext* ctx,
                                                  bool* propagated) {
  if (propagated != nullptr) *propagated = false;
  // In-place paths: the link IDs stored in the object say exactly which
  // paths it terminates (Section 4.1.3 — "the link ID(s) stored in O ...
  // can be used to determine which updates to O need to be propagated").
  // Iterate over a snapshot because head-slot writes may touch this image.
  // The fan-out is collected first and applied after one read-ahead batch
  // for every page it touches (all paths' heads and the S' records),
  // instead of a round trip per path.
  struct InPlaceWork {
    const ReplicationPathInfo* path;
    int pos;
    std::vector<Oid> heads;
  };
  struct SeparateWork {
    const ReplicationPathInfo* path;
    int pos;
    Oid replica_oid;
  };
  std::vector<InPlaceWork> in_place;
  std::vector<SeparateWork> separate;
  std::vector<uint8_t> link_ids;
  for (const LinkRef& ref : object->link_refs()) link_ids.push_back(ref.link_id);
  std::set<uint16_t> done;
  for (uint8_t link_id : link_ids) {
    const LinkInfo* link = catalog_->link_registry().GetLink(link_id);
    if (link == nullptr) continue;
    for (uint16_t path_id : link->path_ids) {
      const ReplicationPathInfo* path = catalog_->GetPath(path_id);
      if (path == nullptr) continue;
      if (path->strategy != ReplicationStrategy::kInPlace) continue;
      if (path->link_sequence.empty() ||
          path->link_sequence.back() != link_id) {
        continue;  // this object is interior, not terminal, for this path
      }
      int pos = PositionOf(path->bound.terminal_fields, attr_index);
      if (pos < 0) continue;
      if (!done.insert(path_id).second) continue;
      if (path->deferred) {
        // Section 8 future work: queue the (path, terminal) pair; the
        // fan-out happens at the next read through this path.
        PendingInsert(path_id, oid.Packed());
        if (propagated != nullptr) *propagated = true;
        continue;
      }
      InPlaceWork work{path, pos, {}};
      FIELDREP_RETURN_IF_ERROR(CollectHeadsFromLevel(
          *path, static_cast<uint16_t>(path->bound.level()), oid, ctx,
          &work.heads));
      in_place.push_back(std::move(work));
    }
  }

  // Separate paths: the terminal-side replica slot points at the shared S'
  // record; "updates to O1.name are propagated by simply retrieving the
  // object R1 and updating it" (Section 5.2).
  for (const ReplicaRefSlot& slot : object->replica_refs()) {
    const ReplicationPathInfo* path = catalog_->GetPath(slot.path_id);
    if (path == nullptr) continue;
    if (path->strategy != ReplicationStrategy::kSeparate) continue;
    if (path->bound.set_name == set_name) continue;  // head-side slot
    int pos = PositionOf(path->bound.terminal_fields, attr_index);
    if (pos < 0) continue;
    separate.push_back({path, pos, slot.replica_oid});
  }

  if (pool_ != nullptr) {
    // Best-effort; a failed batch falls back to on-demand fetches below.
    std::vector<Oid> touched;
    for (const InPlaceWork& work : in_place) {
      touched.insert(touched.end(), work.heads.begin(), work.heads.end());
    }
    for (const SeparateWork& work : separate) {
      touched.push_back(work.replica_oid);
    }
    if (touched.size() > 1) (void)pool_->PrefetchOidPages(touched);
  }

  for (const InPlaceWork& work : in_place) {
    FIELDREP_RETURN_IF_ERROR(UpdateHeadSlots(
        *work.path, work.heads, {object->field(attr_index)}, work.pos, ctx));
    propagations_.fetch_add(1, kRelaxed);
    if (profiler_ != nullptr) {
      profiler_->RecordPropagation(work.path->spec, work.heads.size());
    }
    if (propagated != nullptr) *propagated = true;
  }

  for (const SeparateWork& work : separate) {
    const ReplicationPathInfo* path = work.path;
    const int pos = work.pos;
    FIELDREP_ASSIGN_OR_RETURN(RecordFile * file,
                              sets_->GetAuxFile(path->replica_set_file));
    std::string payload;
    FIELDREP_RETURN_IF_ERROR(file->Read(work.replica_oid, &payload));
    ReplicaRecord record;
    FIELDREP_RETURN_IF_ERROR(record.Deserialize(payload));
    if (pos < static_cast<int>(record.values.size())) {
      record.values[pos] = object->field(attr_index);
    }
    FIELDREP_RETURN_IF_ERROR(file->Update(work.replica_oid,
                                          record.Serialize()));
    propagations_.fetch_add(1, kRelaxed);
    separate_replica_writes_.fetch_add(1, kRelaxed);
    if (profiler_ != nullptr) {
      // A separate-strategy propagation rewrites the shared S' record;
      // no head slots are touched.
      profiler_->RecordPropagation(path->spec, 0);
    }
    if (propagated != nullptr) *propagated = true;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Deferred propagation (Section 8 future work)
// ---------------------------------------------------------------------------

Status ReplicationManager::FlushPendingPropagation(uint16_t path_id) {
  WalTransaction txn(wal_);
  FIELDREP_RETURN_IF_ERROR(txn.begin_status());
  const ReplicationPathInfo* path = catalog_->GetPath(path_id);
  if (path == nullptr) {
    return Status::NotFound(StringPrintf("no replication path %u", path_id));
  }
  // Snapshot this path's queue up front, never holding pending_mu_
  // across the propagation work below. The set ordering visits terminals
  // in physical order.
  std::vector<uint64_t> terminals;
  {
    MutexLock lock(pending_mu_);
    for (auto it = pending_.lower_bound({path_id, 0});
         it != pending_.end() && it->first == path_id; ++it) {
      terminals.push_back(it->second);
    }
  }
  if (pool_ != nullptr && terminals.size() > 1) {
    // The queue orders terminals physically; warm their pages in one batch.
    std::vector<Oid> terminal_oids;
    terminal_oids.reserve(terminals.size());
    for (uint64_t packed : terminals) {
      terminal_oids.push_back(Oid::FromPacked(packed));
    }
    (void)pool_->PrefetchOidPages(terminal_oids);
  }
  for (uint64_t packed : terminals) {
    Oid terminal = Oid::FromPacked(packed);
    MutationContext ctx(&ops_);
    Object* terminal_obj;
    Status read = ctx.Get(terminal, &terminal_obj);
    if (read.IsNotFound()) {
      // Terminal deleted after its update was queued; nothing references
      // it any more (deletion requires no link objects), so nothing to do.
      PendingErase(path_id, packed);
      continue;
    }
    FIELDREP_RETURN_IF_ERROR(read);
    std::vector<Oid> heads;
    FIELDREP_RETURN_IF_ERROR(CollectHeadsFromLevel(
        *path, static_cast<uint16_t>(path->bound.level()), terminal, &ctx,
        &heads));
    std::vector<Value> values;
    FIELDREP_RETURN_IF_ERROR(
        ReadTerminalValues(*path, terminal, &ctx, &values));
    if (pool_ != nullptr && heads.size() > 1) {
      // Heads arrive sorted (clustered order), so the fan-out touches
      // their pages as one ascending sweep: announce them up front.
      (void)pool_->PrefetchOidPages(heads);
    }
    FIELDREP_RETURN_IF_ERROR(UpdateHeadSlots(*path, heads, values, -1, &ctx));
    PendingErase(path_id, packed);
    propagations_.fetch_add(1, kRelaxed);
    deferred_flushed_.fetch_add(1, kRelaxed);
    if (profiler_ != nullptr) {
      profiler_->RecordPropagation(path->spec, heads.size());
    }
  }
  return txn.Commit();
}

Status ReplicationManager::FlushAllPendingPropagation() {
  std::set<uint16_t> paths;
  {
    MutexLock lock(pending_mu_);
    for (const auto& [path_id, packed] : pending_) paths.insert(path_id);
  }
  for (uint16_t path_id : paths) {
    FIELDREP_RETURN_IF_ERROR(FlushPendingPropagation(path_id));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Inverse functions (Section 8 future work)
// ---------------------------------------------------------------------------

Status ReplicationManager::FindReferencers(const std::string& referencing_set,
                                           const std::string& ref_attr,
                                           const Oid& target,
                                           std::vector<Oid>* referencers,
                                           bool* via_link) {
  referencers->clear();
  if (via_link != nullptr) *via_link = false;
  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * set, sets_->GetSet(referencing_set));
  int attr_index = set->type().FindAttribute(ref_attr);
  if (attr_index < 0 || !set->type().attribute(attr_index).is_ref()) {
    return Status::InvalidArgument("set " + referencing_set +
                                   " has no reference attribute " + ref_attr);
  }
  // A level-1 link of some replication path headed at this set over this
  // attribute holds exactly the inverse mapping.
  const LinkRegistry& registry = catalog_->link_registry();
  for (uint8_t link_id : registry.AllLinkIds()) {
    const LinkInfo* link = registry.GetLink(link_id);
    if (link == nullptr || link->collapsed) continue;
    if (link->level != 1 || link->head_set != referencing_set ||
        link->attr_name != ref_attr) {
      continue;
    }
    Object target_obj;
    FIELDREP_RETURN_IF_ERROR(ops_.ReadObject(target, &target_obj));
    FIELDREP_RETURN_IF_ERROR(ops_.GetMembers(link_id, target_obj,
                                             referencers));
    if (via_link != nullptr) *via_link = true;
    return Status::OK();
  }
  // No inverted path covers the attribute: scan.
  return set->Scan([&](const Oid& oid, const Object& object) {
    const Value& v = object.field(attr_index);
    if (v.is_ref() && v.as_ref() == target) referencers->push_back(oid);
    return true;
  });
}

// ---------------------------------------------------------------------------
// Query support
// ---------------------------------------------------------------------------

Status ReplicationManager::ReadReplicatedValues(
    const ReplicationPathInfo& path, const Object& head,
    std::vector<Value>* values) const {
  values->assign(path.bound.terminal_fields.size(), Value::Null());
  if (path.strategy == ReplicationStrategy::kInPlace) {
    const ReplicaValueSlot* slot = head.FindReplicaValues(path.id);
    if (slot != nullptr) *values = slot->values;
    return Status::OK();
  }
  const ReplicaRefSlot* slot = head.FindReplicaRef(path.id);
  if (slot == nullptr) return Status::OK();  // broken chain: nulls
  FIELDREP_ASSIGN_OR_RETURN(RecordFile * file,
                            sets_->GetAuxFile(path.replica_set_file));
  std::string payload;
  FIELDREP_RETURN_IF_ERROR(file->Read(slot->replica_oid, &payload));
  ReplicaRecord record;
  FIELDREP_RETURN_IF_ERROR(record.Deserialize(payload));
  *values = record.values;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

Status ReplicationManager::VerifyPathToReport(uint16_t path_id,
                                              CheckReport* report) {
  const ReplicationPathInfo* path_ptr = catalog_->GetPath(path_id);
  if (path_ptr == nullptr) {
    return Status::NotFound(StringPrintf("no replication path %u", path_id));
  }
  const ReplicationPathInfo& path = *path_ptr;
  const std::string context = "path " + path.spec;

  // Read-only mode never drains the deferred queue; queued propagations
  // make value lag legitimate, so value comparisons are skipped (link
  // maintenance stays eager even in deferred mode and is still checked).
  bool values_lagging = false;
  if (path.deferred) {
    {
      MutexLock lock(pending_mu_);
      auto it = pending_.lower_bound({path_id, 0});
      values_lagging = it != pending_.end() && it->first == path_id;
    }
    if (values_lagging) {
      report->AddInfo(CheckLayer::kReplication, context,
                      "deferred propagations pending; replica values not "
                      "compared");
    }
  }

  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * head_set,
                            sets_->GetSet(path.bound.set_name));
  std::vector<Oid> heads;
  FIELDREP_RETURN_IF_ERROR(head_set->file().ListOids(&heads));

  const size_t n = path.bound.level();
  std::map<uint64_t, uint32_t> expected_refcounts;  // terminal -> heads
  // Exact expected membership per (link index, owner): catches stale
  // members left behind, not just missing ones.
  std::vector<std::map<uint64_t, std::set<uint64_t>>> expected_members(
      path.link_sequence.size());
  for (const Oid& head : heads) {
    MutationContext ctx(&ops_);
    std::vector<Oid> chain;
    FIELDREP_RETURN_IF_ERROR(BuildChain(path, head, &ctx, &chain));
    for (size_t li = 0; li < path.link_sequence.size(); ++li) {
      const size_t owner_level = path.collapsed ? 2 : li + 1;
      const size_t member_level = path.collapsed ? 0 : li;
      if (chain[owner_level].valid() && chain[member_level].valid()) {
        expected_members[li][chain[owner_level].Packed()].insert(
            chain[member_level].Packed());
      }
    }

    // Expected replica values by forward traversal.
    Object* head_img;
    FIELDREP_RETURN_IF_ERROR(ctx.Get(head, &head_img));
    if (!values_lagging) {
      std::vector<Value> expected;
      FIELDREP_RETURN_IF_ERROR(ReadTerminalValues(path, chain[n], &ctx,
                                                  &expected));
      std::vector<Value> actual;
      FIELDREP_RETURN_IF_ERROR(ReadReplicatedValues(path, *head_img,
                                                    &actual));
      if (actual != expected) {
        report->AddError(CheckLayer::kReplication, context,
                         "stale replica: stored values disagree with "
                         "forward traversal",
                         kInvalidPageId, head);
      }
    }

    // Link membership along the chain.
    if (path.strategy == ReplicationStrategy::kInPlace && path.collapsed) {
      if (chain[2].valid()) {
        Object* owner;
        FIELDREP_RETURN_IF_ERROR(ctx.Get(chain[2], &owner));
        std::vector<LinkEntry> entries;
        FIELDREP_RETURN_IF_ERROR(
            ops_.GetEntries(path.link_sequence[0], *owner, &entries));
        bool found = false;
        for (const LinkEntry& entry : entries) {
          if (entry.member == head && entry.tag == chain[1]) found = true;
        }
        if (!found) {
          report->AddError(CheckLayer::kReplication, context,
                           "collapsed link object missing this head's "
                           "tagged entry",
                           kInvalidPageId, head);
        }
      }
    } else {
      size_t links = path.link_sequence.size();
      for (size_t i = 1; i <= links; ++i) {
        if (!chain[i].valid()) break;
        Object* owner;
        FIELDREP_RETURN_IF_ERROR(ctx.Get(chain[i], &owner));
        std::vector<Oid> members;
        FIELDREP_RETURN_IF_ERROR(
            ops_.GetMembers(path.link_sequence[i - 1], *owner, &members));
        if (!std::binary_search(members.begin(), members.end(),
                                chain[i - 1])) {
          report->AddError(
              CheckLayer::kReplication, context,
              StringPrintf("link %u missing member %s in owner %s",
                           path.link_sequence[i - 1],
                           chain[i - 1].ToString().c_str(),
                           chain[i].ToString().c_str()),
              kInvalidPageId, head);
        }
      }
    }

    if (path.strategy == ReplicationStrategy::kSeparate && chain[n].valid()) {
      ++expected_refcounts[chain[n].Packed()];
      // Head and terminal must point at the same replica record.
      Object* terminal;
      FIELDREP_RETURN_IF_ERROR(ctx.Get(chain[n], &terminal));
      const ReplicaRefSlot* head_slot = head_img->FindReplicaRef(path.id);
      const ReplicaRefSlot* term_slot = terminal->FindReplicaRef(path.id);
      if (head_slot == nullptr || term_slot == nullptr ||
          head_slot->replica_oid != term_slot->replica_oid) {
        report->AddError(CheckLayer::kReplication, context,
                         "head and terminal disagree on the shared S' "
                         "record",
                         kInvalidPageId, head);
      }
    }
  }

  // Exact link membership: every owner's link object holds precisely the
  // members the forward chains imply — no extras, no omissions.
  for (size_t li = 0; li < path.link_sequence.size(); ++li) {
    for (const auto& [owner_packed, members] : expected_members[li]) {
      Oid owner = Oid::FromPacked(owner_packed);
      Object owner_obj;
      FIELDREP_RETURN_IF_ERROR(ops_.ReadObject(owner, &owner_obj));
      std::vector<Oid> actual;
      FIELDREP_RETURN_IF_ERROR(
          ops_.GetMembers(path.link_sequence[li], owner_obj, &actual));
      std::set<uint64_t> actual_set;
      for (const Oid& member : actual) actual_set.insert(member.Packed());
      if (actual_set != members) {
        report->AddError(
            CheckLayer::kReplication, context,
            StringPrintf("link %u membership mismatch: stored %zu members, "
                         "forward chains imply %zu",
                         path.link_sequence[li], actual_set.size(),
                         members.size()),
            kInvalidPageId, owner);
      }
    }
  }

  if (path.strategy == ReplicationStrategy::kSeparate) {
    for (const auto& [terminal_packed, count] : expected_refcounts) {
      Oid terminal = Oid::FromPacked(terminal_packed);
      Object terminal_obj;
      FIELDREP_RETURN_IF_ERROR(ops_.ReadObject(terminal, &terminal_obj));
      const ReplicaRefSlot* slot = terminal_obj.FindReplicaRef(path.id);
      if (slot == nullptr || slot->refcount != count) {
        report->AddError(
            CheckLayer::kReplication, context,
            StringPrintf("refcount mismatch: stored %u, %u heads reach the "
                         "terminal",
                         slot == nullptr ? 0 : slot->refcount, count),
            kInvalidPageId, terminal);
      }
    }
  }
  return Status::OK();
}

Status ReplicationManager::VerifyPathConsistency(uint16_t path_id) {
  const ReplicationPathInfo* path = catalog_->GetPath(path_id);
  if (path == nullptr) {
    return Status::NotFound(StringPrintf("no replication path %u", path_id));
  }
  if (path->deferred) {
    // Deferred mode's invariant is "consistent after a flush".
    FIELDREP_RETURN_IF_ERROR(FlushPendingPropagation(path_id));
  }
  CheckReport report;
  FIELDREP_RETURN_IF_ERROR(VerifyPathToReport(path_id, &report));
  for (const CheckFinding& finding : report.findings) {
    if (finding.severity == CheckSeverity::kError) {
      return Status::Internal(finding.ToString());
    }
  }
  return Status::OK();
}

}  // namespace fieldrep
