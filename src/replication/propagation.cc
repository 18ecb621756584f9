#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/strings.h"
#include "replication/mutation_context.h"
#include "replication/replication_manager.h"
#include "storage/buffer_pool.h"
#include "storage/read_ahead.h"
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

const Oid& OidOfOid(const Oid& oid) { return oid; }

/// A read-ahead cursor over `items` (consumed in order), or none for a
/// list of one: a lone page is read by its consumer's own fetch, where a
/// batch of one would only add a round trip.
template <typename Item, typename OidOf>
std::optional<ReadAheadCursor> CursorOver(BufferPool* pool,
                                          const std::vector<Item>& items,
                                          OidOf oid_of) {
  if (pool == nullptr || items.size() < 2) return std::nullopt;
  return std::optional<ReadAheadCursor>(std::in_place, pool, items, 0,
                                        items.size(), oid_of);
}
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

Status ReplicationManager::ExpandToHeads(const std::vector<HeadWalk>& walks,
                                         MutationContext* ctx,
                                         std::vector<std::vector<Oid>>* heads) {
  heads->assign(walks.size(), {});
  // One link expansion: `owner` sits at `level` of walks[walk]'s path.
  struct Step {
    size_t walk;
    uint16_t level;
    Oid owner;
    Oid link_oid;  ///< invalid while unknown, inlined or absent
  };
  auto link_of = [&walks](const Step& step) {
    const ReplicationPathInfo& path = *walks[step.walk].path;
    // The single collapsed link maps the terminal straight to the heads.
    return path.collapsed ? path.link_sequence[0]
                          : path.link_sequence[step.level - 1];
  };
  std::vector<Step> round;
  for (size_t i = 0; i < walks.size(); ++i) {
    round.push_back({i, walks[i].level, walks[i].owner, Oid::Invalid()});
  }
  // Walk the inverted paths downward: the members of each owner's link
  // object sit one level closer to the head set. Each round visits its
  // owners and then their link objects in sorted (clustered) order, as
  // the paper's sorted link objects intend.
  while (!round.empty()) {
    std::vector<Oid> owners;
    for (const Step& step : round) {
      if (!ctx->Contains(step.owner)) owners.push_back(step.owner);
    }
    std::sort(owners.begin(), owners.end());
    owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
    auto owners_ahead = CursorOver(pool_, owners, OidOfOid);
    for (size_t i = 0; i < owners.size(); ++i) {
      if (owners_ahead) owners_ahead->Advance(i);
      Object* image;
      FIELDREP_RETURN_IF_ERROR(ctx->Get(owners[i], &image));
    }

    for (Step& step : round) {
      Object* image;
      FIELDREP_RETURN_IF_ERROR(ctx->Get(step.owner, &image));
      const LinkRef* ref = image->FindLinkRef(link_of(step));
      step.link_oid = ref != nullptr && !ref->inlined ? ref->link_oid
                                                      : Oid::Invalid();
    }
    std::stable_sort(round.begin(), round.end(),
                     [](const Step& a, const Step& b) {
                       return a.link_oid < b.link_oid;
                     });
    auto links_ahead = CursorOver(
        pool_, round, [](const Step& step) -> const Oid& {
          return step.link_oid;
        });
    std::vector<Step> next;
    std::vector<Oid> members;
    for (size_t i = 0; i < round.size(); ++i) {
      if (links_ahead) links_ahead->Advance(i);
      const Step& step = round[i];
      Object* image;
      FIELDREP_RETURN_IF_ERROR(ctx->Get(step.owner, &image));
      link_traversals_.fetch_add(1, kRelaxed);
      FIELDREP_RETURN_IF_ERROR(
          ops_.GetMembers(link_of(step), *image, &members));
      if (walks[step.walk].path->collapsed || step.level == 1) {
        std::vector<Oid>& out = (*heads)[step.walk];
        out.insert(out.end(), members.begin(), members.end());
        continue;
      }
      for (const Oid& member : members) {
        next.push_back({step.walk, static_cast<uint16_t>(step.level - 1),
                        member, Oid::Invalid()});
      }
    }
    round = std::move(next);
  }
  for (std::vector<Oid>& list : *heads) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Value propagation
// ---------------------------------------------------------------------------

Status ReplicationManager::SetHeadReplica(const ReplicationPathInfo& path,
                                          const Oid& head, Object* image,
                                          std::vector<Value> values) {
  std::vector<Value> old_values;
  if (const ReplicaValueSlot* slot = image->FindReplicaValues(path.id)) {
    old_values = slot->values;
  }
  image->SetReplicaValues(path.id, values);
  heads_updated_.fetch_add(1, kRelaxed);
  if (indexes_ == nullptr) return Status::OK();
  return indexes_->OnReplicaValuesChanged(path.bound.set_name, head, path.id,
                                          old_values, values);
}

Status ReplicationManager::UpdateHeadSlots(const ReplicationPathInfo& path,
                                           const std::vector<Oid>& heads,
                                           const std::vector<Value>& values,
                                           MutationContext* ctx) {
  for (const Oid& head : heads) {
    Object* image;
    FIELDREP_RETURN_IF_ERROR(ctx->Get(head, &image));
    FIELDREP_RETURN_IF_ERROR(SetHeadReplica(path, head, image, values));
    FIELDREP_RETURN_IF_ERROR(ops_.WriteObject(head, *image));
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

void ReplicationManager::ValuePropagation::Add(const ReplicationPathInfo& path,
                                               const Oid& terminal, int pos,
                                               const Oid& replica_oid) {
  auto [it, fresh] =
      index.try_emplace({path.id, terminal.Packed()}, fanouts.size());
  if (fresh) fanouts.push_back({&path, terminal, replica_oid, {}});
  std::vector<int>& positions = fanouts[it->second].positions;
  if (std::find(positions.begin(), positions.end(), pos) == positions.end()) {
    positions.push_back(pos);
  }
}

bool ReplicationManager::NoteValueChange(const std::string& set_name,
                                         const Oid& oid, const Object& object,
                                         int attr_index,
                                         ValuePropagation* out) {
  bool propagated = false;
  // In-place paths: the link IDs stored in the object say exactly which
  // paths it terminates (Section 4.1.3 — "the link ID(s) stored in O ...
  // can be used to determine which updates to O need to be propagated").
  for (const LinkRef& ref : object.link_refs()) {
    const LinkInfo* link = catalog_->link_registry().GetLink(ref.link_id);
    if (link == nullptr) continue;
    for (uint16_t path_id : link->path_ids) {
      const ReplicationPathInfo* path = catalog_->GetPath(path_id);
      if (path == nullptr) continue;
      if (path->strategy != ReplicationStrategy::kInPlace) continue;
      if (path->link_sequence.empty() ||
          path->link_sequence.back() != ref.link_id) {
        continue;  // this object is interior, not terminal, for this path
      }
      int pos = PositionOf(path->bound.terminal_fields, attr_index);
      if (pos < 0) continue;
      propagated = true;
      if (path->deferred) {
        // Section 8 future work: queue the (path, terminal) pair; the
        // fan-out happens at the next read through this path.
        PendingInsert(path_id, oid.Packed());
        continue;
      }
      out->Add(*path, oid, pos);
    }
  }

  // Separate paths: the terminal-side replica slot points at the shared S'
  // record; "updates to O1.name are propagated by simply retrieving the
  // object R1 and updating it" (Section 5.2).
  for (const ReplicaRefSlot& slot : object.replica_refs()) {
    const ReplicationPathInfo* path = catalog_->GetPath(slot.path_id);
    if (path == nullptr) continue;
    if (path->strategy != ReplicationStrategy::kSeparate) continue;
    if (path->bound.set_name == set_name) continue;  // head-side slot
    int pos = PositionOf(path->bound.terminal_fields, attr_index);
    if (pos < 0) continue;
    propagated = true;
    out->Add(*path, oid, pos, slot.replica_oid);
  }
  return propagated;
}

Status ReplicationManager::PropagateValues(const ValuePropagation& work,
                                           MutationContext* ctx) {
  const std::vector<Fanout>& fanouts = work.fanouts;
  auto in_place = [&fanouts](size_t i) {
    return fanouts[i].path->strategy == ReplicationStrategy::kInPlace;
  };
  // 1. Every in-place fan-out's heads, one path level of all of them at a
  // time.
  std::vector<HeadWalk> walks;
  std::vector<size_t> walked;  // fanouts index of each walk
  for (size_t i = 0; i < fanouts.size(); ++i) {
    if (!in_place(i)) continue;
    walks.push_back({fanouts[i].path,
                     static_cast<uint16_t>(fanouts[i].path->bound.level()),
                     fanouts[i].terminal});
    walked.push_back(i);
  }
  std::vector<std::vector<Oid>> walk_heads;
  FIELDREP_RETURN_IF_ERROR(ExpandToHeads(walks, ctx, &walk_heads));
  std::vector<std::vector<Oid>> heads(fanouts.size());
  for (size_t w = 0; w < walks.size(); ++w) {
    heads[walked[w]] = std::move(walk_heads[w]);
  }

  // 2. The union of those heads and the S' records, in OID order. A head
  // reached through several paths or terminals appears once per slot but
  // is loaded and written once. Heads and S' records live in different
  // files, so equal OIDs are always of one kind.
  struct Item {
    Oid oid;
    size_t fanout;
  };
  std::vector<Item> items;
  for (size_t i = 0; i < fanouts.size(); ++i) {
    if (!in_place(i)) items.push_back({fanouts[i].replica_oid, i});
    for (const Oid& head : heads[i]) items.push_back({head, i});
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) { return a.oid < b.oid; });

  // 3. Apply the list in physical order through one cursor.
  auto ahead = CursorOver(pool_, items, [](const Item& item) -> const Oid& {
    return item.oid;
  });
  for (size_t i = 0; i < items.size();) {
    if (ahead) ahead->Advance(i);
    const Oid oid = items[i].oid;
    size_t end = i + 1;
    while (end < items.size() && items[end].oid == oid) ++end;
    if (!in_place(items[i].fanout)) {
      // "Updates to O1.name are propagated by simply retrieving the object
      // R1 and updating it" (Section 5.2).
      const Fanout& fanout = fanouts[items[i].fanout];
      const ReplicationPathInfo& path = *fanout.path;
      Object* terminal;
      FIELDREP_RETURN_IF_ERROR(ctx->Get(fanout.terminal, &terminal));
      FIELDREP_ASSIGN_OR_RETURN(RecordFile * file,
                                sets_->GetAuxFile(path.replica_set_file));
      std::string payload;
      FIELDREP_RETURN_IF_ERROR(file->Read(oid, &payload));
      ReplicaRecord record;
      FIELDREP_RETURN_IF_ERROR(record.Deserialize(payload));
      for (int pos : fanout.positions) {
        if (pos < static_cast<int>(record.values.size())) {
          record.values[pos] =
              terminal->field(path.bound.terminal_fields[pos]);
        }
      }
      FIELDREP_RETURN_IF_ERROR(file->Update(oid, record.Serialize()));
      separate_replica_writes_.fetch_add(1, kRelaxed);
    } else {
      Object* image;
      FIELDREP_RETURN_IF_ERROR(ctx->Get(oid, &image));
      for (size_t k = i; k < end; ++k) {
        const Fanout& fanout = fanouts[items[k].fanout];
        const ReplicationPathInfo& path = *fanout.path;
        Object* terminal;
        FIELDREP_RETURN_IF_ERROR(ctx->Get(fanout.terminal, &terminal));
        std::vector<Value> values;
        if (const ReplicaValueSlot* slot = image->FindReplicaValues(path.id)) {
          values = slot->values;
        }
        values.resize(path.bound.terminal_fields.size(), Value::Null());
        for (int pos : fanout.positions) {
          values[pos] = terminal->field(path.bound.terminal_fields[pos]);
        }
        FIELDREP_RETURN_IF_ERROR(
            SetHeadReplica(path, oid, image, std::move(values)));
      }
      FIELDREP_RETURN_IF_ERROR(ops_.WriteObject(oid, *image));
    }
    i = end;
  }

  propagations_.fetch_add(fanouts.size(), kRelaxed);
  if (profiler_ != nullptr) {
    // A separate-strategy propagation rewrites the shared S' record and
    // touches no head slots.
    for (size_t i = 0; i < fanouts.size(); ++i) {
      profiler_->RecordPropagation(fanouts[i].path->spec, heads[i].size());
    }
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
  std::vector<Oid> terminals;
  {
    MutexLock lock(pending_mu_);
    for (auto it = pending_.lower_bound({path_id, 0});
         it != pending_.end() && it->first == path_id; ++it) {
      terminals.push_back(Oid::FromPacked(it->second));
    }
  }
  // The queued terminals are one statement's worth of fan-outs, each
  // refreshing every replicated field from the terminal's current values.
  MutationContext ctx(&ops_);
  ValuePropagation work;
  auto ahead = CursorOver(pool_, terminals, OidOfOid);
  for (size_t i = 0; i < terminals.size(); ++i) {
    if (ahead) ahead->Advance(i);
    Object* terminal;
    Status read = ctx.Get(terminals[i], &terminal);
    if (read.IsNotFound()) {
      // Terminal deleted after its update was queued; nothing references
      // it any more (deletion requires no link objects), so nothing to do.
      PendingErase(path_id, terminals[i].Packed());
      continue;
    }
    FIELDREP_RETURN_IF_ERROR(read);
    for (size_t pos = 0; pos < path->bound.terminal_fields.size(); ++pos) {
      work.Add(*path, terminals[i], static_cast<int>(pos));
    }
  }
  FIELDREP_RETURN_IF_ERROR(PropagateValues(work, &ctx));
  for (const Fanout& fanout : work.fanouts) {
    PendingErase(path_id, fanout.terminal.Packed());
    deferred_flushed_.fetch_add(1, kRelaxed);
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
