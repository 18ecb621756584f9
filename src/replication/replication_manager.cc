#include "replication/replication_manager.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "common/strings.h"
#include "replication/mutation_context.h"
#include "telemetry/workload_profiler.h"
#include "wal/wal_manager.h"

namespace fieldrep {

namespace {
/// Joins the first `count` step attribute names onto the set name:
/// the canonical key of a link prefix (Section 4.1.4).
std::string LinkKey(const BoundPath& bound, size_t count) {
  std::string key = bound.set_name;
  for (size_t i = 0; i < count; ++i) key += "." + bound.steps[i].attr_name;
  return key;
}

Oid RefOrInvalid(const Value& v) {
  return v.is_ref() ? v.as_ref() : Oid::Invalid();
}
}  // namespace

ReplicationManager::ReplicationManager(Catalog* catalog, SetProvider* sets,
                                       IndexManager* indexes)
    : catalog_(catalog),
      sets_(sets),
      indexes_(indexes),
      ops_(catalog, sets) {}

// ---------------------------------------------------------------------------
// Path lifecycle
// ---------------------------------------------------------------------------

Status ReplicationManager::CreatePath(const std::string& spec,
                                      const ReplicateOptions& options,
                                      uint16_t* path_id) {
  WalTransaction txn(wal_);
  FIELDREP_RETURN_IF_ERROR(txn.begin_status());
  BoundPath bound;
  FIELDREP_RETURN_IF_ERROR(catalog_->BindPath(spec, &bound));
  if (bound.level() < 1) {
    return Status::InvalidArgument(
        "replication path " + spec +
        " must traverse at least one reference attribute");
  }
  if (options.collapsed) {
    if (options.strategy != ReplicationStrategy::kInPlace) {
      return Status::NotSupported(
          "collapsed inverted paths require in-place replication");
    }
    if (bound.level() != 2) {
      return Status::NotSupported(
          "collapsed inverted paths are supported for 2-level paths "
          "(the configuration of Section 4.3.3)");
    }
  }
  FIELDREP_ASSIGN_OR_RETURN(const SetInfo* head_set,
                            catalog_->GetSet(bound.set_name));
  if (options.strategy == ReplicationStrategy::kSeparate &&
      bound.terminal_type == head_set->type_name) {
    return Status::NotSupported(
        "separate replication of a self-referencing path is not supported "
        "(head-side and terminal-side replica bookkeeping would collide)");
  }
  if (options.deferred &&
      options.strategy != ReplicationStrategy::kInPlace) {
    return Status::NotSupported(
        "deferred propagation applies to in-place replication (separate "
        "replication already touches only the shared replica record)");
  }
  if (options.cluster_links) {
    if (options.strategy != ReplicationStrategy::kInPlace ||
        options.collapsed || bound.level() < 2) {
      return Status::NotSupported(
          "link clustering (Section 4.3.2) applies to in-place, "
          "non-collapsed paths of two or more levels");
    }
  }

  ReplicationPathInfo info;
  info.spec = spec;
  info.bound = bound;
  info.strategy = options.strategy;
  info.collapsed = options.collapsed;
  info.inline_threshold = options.inline_threshold;
  info.deferred = options.deferred;
  info.cluster_links = options.cluster_links;
  uint16_t id;
  FIELDREP_RETURN_IF_ERROR(catalog_->RegisterReplicationPath(info, &id));
  *path_id = id;

  LinkRegistry& registry = catalog_->link_registry();
  std::vector<uint8_t> sequence;
  Status setup;
  if (options.collapsed) {
    // One link mapping terminal objects straight back to heads, entries
    // tagged with the intermediate object (Figure 6).
    uint8_t link_id;
    setup = registry.InternLink(
        LinkKey(bound, 2), bound.set_name, /*level=*/2,
        /*source_type=*/head_set->type_name,
        /*target_type=*/bound.steps[1].target_type,
        bound.steps[1].attr_name, /*collapsed=*/true, id, &link_id);
    if (setup.ok()) {
      LinkInfo* link = registry.GetMutableLink(link_id);
      link->inline_threshold = 0;  // tagged entries cannot inline
      FileId file_id;
      Result<RecordFile*> file = sets_->CreateAuxFile(&file_id);
      if (!file.ok()) {
        setup = file.status();
      } else {
        link->link_set_file = file_id;
        sequence.push_back(link_id);
      }
    }
  } else {
    size_t link_count = bound.level();
    if (options.strategy == ReplicationStrategy::kSeparate) {
      // An n-level path needs an (n-1)-level inverted path (Section 5.2).
      link_count -= 1;
    }
    FileId cluster_file = kInvalidFileId;
    for (size_t i = 1; i <= link_count && setup.ok(); ++i) {
      const PathStep& step = bound.steps[i - 1];
      uint8_t link_id;
      setup = registry.InternLink(LinkKey(bound, i), bound.set_name,
                                  static_cast<uint16_t>(i), step.source_type,
                                  step.target_type, step.attr_name,
                                  /*collapsed=*/false, id, &link_id);
      if (!setup.ok()) break;
      LinkInfo* link = registry.GetMutableLink(link_id);
      if (options.cluster_links) {
        // Section 4.3.2: every level shares one link file, grouped by
        // terminal chain. Sharing a link with another path would create
        // the clustering conflict the paper describes, so refuse.
        if (link->link_set_file != kInvalidFileId) {
          setup = Status::NotSupported(
              "link clustering cannot share link " + link->key +
              " with an existing path (conflicting clustering goals, "
              "Section 4.3.2)");
          break;
        }
        link->inline_threshold = options.inline_threshold;
        if (cluster_file == kInvalidFileId) {
          Result<RecordFile*> file = sets_->CreateAuxFile(&cluster_file);
          if (!file.ok()) {
            setup = file.status();
            break;
          }
        }
        link->link_set_file = cluster_file;
      } else if (link->link_set_file == kInvalidFileId) {
        // Newly created link: it adopts this path's options.
        link->inline_threshold = options.inline_threshold;
        FileId file_id;
        Result<RecordFile*> file = sets_->CreateAuxFile(&file_id);
        if (!file.ok()) {
          setup = file.status();
          break;
        }
        link->link_set_file = file_id;
      }
      sequence.push_back(link_id);
    }
  }
  if (setup.ok() && options.strategy == ReplicationStrategy::kSeparate) {
    FileId file_id;
    Result<RecordFile*> file = sets_->CreateAuxFile(&file_id);
    if (!file.ok()) {
      setup = file.status();
    } else {
      catalog_->GetMutablePath(id)->replica_set_file = file_id;
    }
  }
  if (!setup.ok()) {
    catalog_->DropReplicationPath(id).ok();
    return setup;
  }
  catalog_->GetMutablePath(id)->link_sequence = sequence;

  // Bulk build over the existing head set.
  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * set, sets_->GetSet(bound.set_name));
  std::vector<Oid> heads;
  FIELDREP_RETURN_IF_ERROR(set->file().ListOids(&heads));
  const ReplicationPathInfo* path = catalog_->GetPath(id);
  if (!heads.empty()) {
    FIELDREP_RETURN_IF_ERROR(BulkBuildPath(*path, heads));
  }
  return txn.Commit();
}

Status ReplicationManager::BulkBuildPath(const ReplicationPathInfo& path,
                                         const std::vector<Oid>& heads) {
  // One mutation context for the whole build: every touched object is
  // loaded once and written through. Memory is proportional to the number
  // of distinct objects on the path.
  MutationContext ctx(&ops_);
  const size_t n = path.bound.level();
  std::vector<std::vector<Oid>> chains(heads.size());
  for (size_t i = 0; i < heads.size(); ++i) {
    FIELDREP_RETURN_IF_ERROR(BuildChain(path, heads[i], &ctx, &chains[i]));
  }

  LinkRegistry& registry = catalog_->link_registry();

  // Gather the membership of every link this path must build, keyed by
  // packed owner OID so iteration visits owners in physical order.
  std::vector<std::map<uint64_t, LinkObjectData>> pending(
      path.link_sequence.size());
  std::vector<const LinkInfo*> links(path.link_sequence.size());
  for (size_t li = 0; li < path.link_sequence.size(); ++li) {
    uint8_t link_id = path.link_sequence[li];
    links[li] = registry.GetLink(link_id);
    if (links[li] == nullptr) {
      return Status::Internal("missing link during bulk build");
    }
    if (links[li]->path_ids.size() > 1) {
      // Shared with an older path from the same prefix: membership is
      // path-independent, so the structures already exist.
      continue;
    }
    const size_t owner_level = path.collapsed ? 2 : li + 1;
    const size_t member_level = path.collapsed ? 0 : li;
    for (const std::vector<Oid>& chain : chains) {
      const Oid& owner = chain[owner_level];
      const Oid& member = chain[member_level];
      if (!owner.valid() || !member.valid()) continue;
      auto [it, fresh] = pending[li].try_emplace(
          owner.Packed(),
          LinkObjectData(link_id, owner, links[li]->collapsed));
      it->second.AddMember(member,
                           path.collapsed ? chain[1] : Oid::Invalid());
    }
  }

  // Materializes one owner's link object (or inlines it) and stamps the
  // owner's (link-OID, link-ID) pair.
  auto emit_one = [&](size_t li, const Oid& owner,
                      LinkObjectData& data) -> Status {
    const LinkInfo* link = links[li];
    Object* owner_img;
    FIELDREP_RETURN_IF_ERROR(ctx.Get(owner, &owner_img));
    LinkRef ref;
    ref.link_id = link->id;
    if (!link->collapsed && data.size() <= link->inline_threshold) {
      ref.inlined = true;
      ref.inline_oids = data.Members();
    } else {
      FIELDREP_ASSIGN_OR_RETURN(LinkSet link_set, ops_.LinkSetFor(link->id));
      FIELDREP_RETURN_IF_ERROR(link_set.Create(data, &ref.link_oid));
    }
    owner_img->SetLinkRef(std::move(ref));
    return ops_.WriteObject(owner, *owner_img);
  };

  if (path.cluster_links && !path.collapsed &&
      path.link_sequence.size() >= 2) {
    // Section 4.3.2: emit link objects grouped by terminal chain — each
    // terminal's L_n immediately followed by the L_{n-1} objects of the
    // intermediates that reach it, and so on — so that propagating one
    // terminal update reads link objects that sit on the same page(s).
    // Reference chains form a forest (each object has one parent), so
    // every link object belongs to exactly one group.
    std::function<Status(size_t, const Oid&)> emit_group =
        [&](size_t li, const Oid& owner) -> Status {
      auto it = pending[li].find(owner.Packed());
      if (it == pending[li].end()) return Status::OK();
      LinkObjectData data = std::move(it->second);
      pending[li].erase(it);
      FIELDREP_RETURN_IF_ERROR(emit_one(li, owner, data));
      if (li >= 1) {
        for (const Oid& member : data.Members()) {
          FIELDREP_RETURN_IF_ERROR(emit_group(li - 1, member));
        }
      }
      return Status::OK();
    };
    const size_t top = path.link_sequence.size() - 1;
    // Iterate a snapshot of the top-level owners (emit_group mutates the
    // maps).
    std::vector<uint64_t> terminals;
    for (const auto& [owner_packed, data] : pending[top]) {
      terminals.push_back(owner_packed);
    }
    for (uint64_t owner_packed : terminals) {
      FIELDREP_RETURN_IF_ERROR(
          emit_group(top, Oid::FromPacked(owner_packed)));
    }
  } else {
    for (size_t li = 0; li < path.link_sequence.size(); ++li) {
      for (auto& [owner_packed, data] : pending[li]) {
        FIELDREP_RETURN_IF_ERROR(
            emit_one(li, Oid::FromPacked(owner_packed), data));
      }
    }
  }

  if (path.strategy == ReplicationStrategy::kInPlace) {
    for (size_t i = 0; i < heads.size(); ++i) {
      std::vector<Value> values;
      FIELDREP_RETURN_IF_ERROR(
          ReadTerminalValues(path, chains[i][n], &ctx, &values));
      Object* image;
      FIELDREP_RETURN_IF_ERROR(ctx.Get(heads[i], &image));
      image->SetReplicaValues(path.id, values);
      FIELDREP_RETURN_IF_ERROR(ops_.WriteObject(heads[i], *image));
      if (indexes_ != nullptr) {
        FIELDREP_RETURN_IF_ERROR(indexes_->OnReplicaValuesChanged(
            path.bound.set_name, heads[i], path.id, {}, values));
      }
    }
    return Status::OK();
  }

  // Separate: create replica records in terminal physical order with the
  // final refcounts, then point the heads at them.
  std::map<uint64_t, uint32_t> refcounts;
  for (const std::vector<Oid>& chain : chains) {
    if (chain[n].valid()) ++refcounts[chain[n].Packed()];
  }
  std::map<uint64_t, Oid> replica_of;
  for (const auto& [terminal_packed, count] : refcounts) {
    Oid terminal = Oid::FromPacked(terminal_packed);
    Object* terminal_img;
    FIELDREP_RETURN_IF_ERROR(ctx.Get(terminal, &terminal_img));
    Oid replica_oid;
    FIELDREP_RETURN_IF_ERROR(
        EnsureReplica(path, terminal, terminal_img, count, &replica_oid));
    replica_of[terminal_packed] = replica_oid;
  }
  for (size_t i = 0; i < heads.size(); ++i) {
    if (!chains[i][n].valid()) continue;
    Object* image;
    FIELDREP_RETURN_IF_ERROR(ctx.Get(heads[i], &image));
    ReplicaRefSlot slot;
    slot.path_id = path.id;
    slot.replica_oid = replica_of.at(chains[i][n].Packed());
    image->SetReplicaRef(slot);
    FIELDREP_RETURN_IF_ERROR(ops_.WriteObject(heads[i], *image));
  }
  return Status::OK();
}

Status ReplicationManager::DropPath(uint16_t path_id) {
  WalTransaction txn(wal_);
  FIELDREP_RETURN_IF_ERROR(txn.begin_status());
  const ReplicationPathInfo* found = catalog_->GetPath(path_id);
  if (found == nullptr) {
    return Status::NotFound(StringPrintf("no replication path %u", path_id));
  }
  // Abandon any queued deferred propagations for this path.
  {
    MutexLock pending_lock(pending_mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      it = (it->first == path_id) ? pending_.erase(it) : std::next(it);
    }
    pending_count_.store(pending_.size(), std::memory_order_relaxed);
  }
  ReplicationPathInfo path = *found;  // survives catalog removal below
  LinkRegistry& registry = catalog_->link_registry();

  // Links used only by this path disappear with it; shared links keep
  // their membership for the surviving paths.
  std::set<uint8_t> private_links;
  for (uint8_t link_id : path.link_sequence) {
    const LinkInfo* link = registry.GetLink(link_id);
    if (link != nullptr && link->path_ids.size() == 1) {
      private_links.insert(link_id);
    }
  }

  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * set,
                            sets_->GetSet(path.bound.set_name));
  std::vector<Oid> heads;
  FIELDREP_RETURN_IF_ERROR(set->file().ListOids(&heads));
  std::set<uint64_t> stripped;  // (link, owner) pairs already processed
  std::set<uint64_t> terminals_stripped;
  const size_t n = path.bound.level();
  for (const Oid& head : heads) {
    MutationContext ctx(&ops_);
    Object* image;
    FIELDREP_RETURN_IF_ERROR(ctx.Get(head, &image));
    std::vector<Oid> chain;
    FIELDREP_RETURN_IF_ERROR(BuildChain(path, head, &ctx, &chain));
    // Strip LinkRefs for private links from chain objects.
    for (size_t i = 0; i < path.link_sequence.size(); ++i) {
      uint8_t link_id = path.link_sequence[i];
      if (private_links.count(link_id) == 0) continue;
      size_t owner_level = path.collapsed ? 2 : i + 1;
      const Oid& owner = chain[owner_level];
      if (!owner.valid()) break;
      uint64_t key = (static_cast<uint64_t>(link_id) << 56) ^ owner.Packed();
      if (!stripped.insert(key).second) continue;
      Object* owner_img;
      FIELDREP_RETURN_IF_ERROR(ctx.Get(owner, &owner_img));
      if (owner_img->RemoveLinkRef(link_id)) {
        FIELDREP_RETURN_IF_ERROR(ops_.WriteObject(owner, *owner_img));
      }
    }
    if (path.strategy == ReplicationStrategy::kInPlace) {
      const ReplicaValueSlot* slot = image->FindReplicaValues(path.id);
      if (slot != nullptr) {
        std::vector<Value> old_values = slot->values;
        image->RemoveReplicaValues(path.id);
        FIELDREP_RETURN_IF_ERROR(ops_.WriteObject(head, *image));
        if (indexes_ != nullptr) {
          FIELDREP_RETURN_IF_ERROR(indexes_->OnReplicaValuesChanged(
              path.bound.set_name, head, path.id, old_values, {}));
        }
      }
    } else {
      image->RemoveReplicaRef(path.id);
      FIELDREP_RETURN_IF_ERROR(ops_.WriteObject(head, *image));
      const Oid& terminal = chain[n];
      if (terminal.valid() &&
          terminals_stripped.insert(terminal.Packed()).second) {
        Object* term_img;
        FIELDREP_RETURN_IF_ERROR(ctx.Get(terminal, &term_img));
        if (term_img->RemoveReplicaRef(path.id)) {
          FIELDREP_RETURN_IF_ERROR(ops_.WriteObject(terminal, *term_img));
        }
      }
    }
  }

  // Reclaim private link sets and the replica file.
  for (uint8_t link_id : private_links) {
    const LinkInfo* link = registry.GetLink(link_id);
    if (link != nullptr && link->link_set_file != kInvalidFileId) {
      FIELDREP_ASSIGN_OR_RETURN(RecordFile * file,
                                sets_->GetAuxFile(link->link_set_file));
      FIELDREP_RETURN_IF_ERROR(file->Truncate());
    }
  }
  if (path.replica_set_file != kInvalidFileId) {
    FIELDREP_ASSIGN_OR_RETURN(RecordFile * file,
                              sets_->GetAuxFile(path.replica_set_file));
    FIELDREP_RETURN_IF_ERROR(file->Truncate());
  }
  FIELDREP_RETURN_IF_ERROR(catalog_->DropReplicationPath(path_id));
  return txn.Commit();
}

// ---------------------------------------------------------------------------
// Chain / head bookkeeping
// ---------------------------------------------------------------------------

Status ReplicationManager::BuildChain(const ReplicationPathInfo& path,
                                      const Oid& head_oid,
                                      MutationContext* ctx,
                                      std::vector<Oid>* chain) {
  const size_t n = path.bound.level();
  chain->assign(n + 1, Oid::Invalid());
  (*chain)[0] = head_oid;
  for (size_t i = 1; i <= n; ++i) {
    Object* prev;
    FIELDREP_RETURN_IF_ERROR(ctx->Get((*chain)[i - 1], &prev));
    Oid next = RefOrInvalid(prev->field(path.bound.steps[i - 1].attr_index));
    if (!next.valid()) break;
    (*chain)[i] = next;
  }
  return Status::OK();
}

Status ReplicationManager::ReadTerminalValues(const ReplicationPathInfo& path,
                                              const Oid& terminal_oid,
                                              MutationContext* ctx,
                                              std::vector<Value>* values) {
  values->assign(path.bound.terminal_fields.size(), Value::Null());
  if (!terminal_oid.valid()) return Status::OK();
  Object* terminal;
  FIELDREP_RETURN_IF_ERROR(ctx->Get(terminal_oid, &terminal));
  for (size_t i = 0; i < path.bound.terminal_fields.size(); ++i) {
    (*values)[i] = terminal->field(path.bound.terminal_fields[i]);
  }
  return Status::OK();
}

Status ReplicationManager::EnsureReplica(const ReplicationPathInfo& path,
                                         const Oid& terminal_oid,
                                         Object* terminal_obj,
                                         uint32_t new_refs, Oid* replica_oid) {
  ReplicaRefSlot* slot = terminal_obj->FindReplicaRef(path.id);
  if (slot != nullptr) {
    slot->refcount += new_refs;
    *replica_oid = slot->replica_oid;
    return ops_.WriteObject(terminal_oid, *terminal_obj);
  }
  ReplicaRecord record;
  record.path_id = path.id;
  record.owner = terminal_oid;
  for (int field : path.bound.terminal_fields) {
    record.values.push_back(terminal_obj->field(field));
  }
  FIELDREP_ASSIGN_OR_RETURN(RecordFile * file,
                            sets_->GetAuxFile(path.replica_set_file));
  FIELDREP_RETURN_IF_ERROR(file->Insert(record.Serialize(), replica_oid));
  ReplicaRefSlot fresh;
  fresh.path_id = path.id;
  fresh.replica_oid = *replica_oid;
  fresh.refcount = new_refs;
  terminal_obj->SetReplicaRef(fresh);
  return ops_.WriteObject(terminal_oid, *terminal_obj);
}

Status ReplicationManager::ReleaseReplica(const ReplicationPathInfo& path,
                                          const Oid& terminal_oid,
                                          Object* terminal_obj,
                                          uint32_t released_refs) {
  ReplicaRefSlot* slot = terminal_obj->FindReplicaRef(path.id);
  if (slot == nullptr) return Status::OK();
  slot->refcount -= std::min(slot->refcount, released_refs);
  if (slot->refcount == 0) {
    FIELDREP_ASSIGN_OR_RETURN(RecordFile * file,
                              sets_->GetAuxFile(path.replica_set_file));
    FIELDREP_RETURN_IF_ERROR(file->Delete(slot->replica_oid));
    terminal_obj->RemoveReplicaRef(path.id);
  }
  return ops_.WriteObject(terminal_oid, *terminal_obj);
}

Status ReplicationManager::AddHeadToPath(const ReplicationPathInfo& path,
                                         const Oid& head_oid, Object* head_obj,
                                         MutationContext* ctx) {
  const size_t n = path.bound.level();
  std::vector<Oid> chain;
  FIELDREP_RETURN_IF_ERROR(BuildChain(path, head_oid, ctx, &chain));

  if (path.strategy == ReplicationStrategy::kInPlace) {
    if (path.collapsed) {
      if (chain[2].valid()) {
        Object* owner;
        FIELDREP_RETURN_IF_ERROR(ctx->Get(chain[2], &owner));
        FIELDREP_RETURN_IF_ERROR(ops_.AddMember(path.link_sequence[0],
                                                chain[2], owner, head_oid,
                                                /*tag=*/chain[1]));
      }
    } else {
      for (size_t i = 1; i <= n; ++i) {
        if (!chain[i].valid()) break;
        Object* owner;
        FIELDREP_RETURN_IF_ERROR(ctx->Get(chain[i], &owner));
        FIELDREP_RETURN_IF_ERROR(ops_.AddMember(path.link_sequence[i - 1],
                                                chain[i], owner,
                                                chain[i - 1]));
      }
    }
    std::vector<Value> values;
    FIELDREP_RETURN_IF_ERROR(ReadTerminalValues(path, chain[n], ctx, &values));
    std::vector<Value> old_values;
    if (const ReplicaValueSlot* slot = head_obj->FindReplicaValues(path.id)) {
      old_values = slot->values;
    }
    head_obj->SetReplicaValues(path.id, values);
    if (indexes_ != nullptr) {
      FIELDREP_RETURN_IF_ERROR(indexes_->OnReplicaValuesChanged(
          path.bound.set_name, head_oid, path.id, old_values, values));
    }
    return Status::OK();
  }

  // Separate replication.
  for (size_t i = 1; i + 1 <= n && i <= path.link_sequence.size(); ++i) {
    if (!chain[i].valid()) break;
    Object* owner;
    FIELDREP_RETURN_IF_ERROR(ctx->Get(chain[i], &owner));
    FIELDREP_RETURN_IF_ERROR(ops_.AddMember(path.link_sequence[i - 1],
                                            chain[i], owner, chain[i - 1]));
  }
  if (chain[n].valid()) {
    Object* terminal;
    FIELDREP_RETURN_IF_ERROR(ctx->Get(chain[n], &terminal));
    Oid replica_oid;
    FIELDREP_RETURN_IF_ERROR(
        EnsureReplica(path, chain[n], terminal, 1, &replica_oid));
    ReplicaRefSlot slot;
    slot.path_id = path.id;
    slot.replica_oid = replica_oid;
    head_obj->SetReplicaRef(slot);
  }
  return Status::OK();
}

Status ReplicationManager::RemoveHeadFromPath(const ReplicationPathInfo& path,
                                              const Oid& head_oid,
                                              Object* head_obj,
                                              MutationContext* ctx) {
  const size_t n = path.bound.level();
  std::vector<Oid> chain;
  FIELDREP_RETURN_IF_ERROR(BuildChain(path, head_oid, ctx, &chain));

  if (path.strategy == ReplicationStrategy::kInPlace) {
    if (path.collapsed) {
      if (chain[2].valid()) {
        Object* owner;
        FIELDREP_RETURN_IF_ERROR(ctx->Get(chain[2], &owner));
        bool on_path;
        FIELDREP_RETURN_IF_ERROR(ops_.RemoveMember(
            path.link_sequence[0], chain[2], owner, head_oid, &on_path));
      }
    } else {
      for (size_t i = 1; i <= n; ++i) {
        if (!chain[i].valid()) break;
        Object* owner;
        FIELDREP_RETURN_IF_ERROR(ctx->Get(chain[i], &owner));
        bool on_path;
        FIELDREP_RETURN_IF_ERROR(ops_.RemoveMember(path.link_sequence[i - 1],
                                                   chain[i], owner,
                                                   chain[i - 1], &on_path));
        // Ripple (Section 4.1.2): the owner leaves the next link only when
        // its own link object disappeared.
        if (on_path) break;
      }
    }
    std::vector<Value> old_values;
    if (const ReplicaValueSlot* slot = head_obj->FindReplicaValues(path.id)) {
      old_values = slot->values;
    }
    if (head_obj->RemoveReplicaValues(path.id) && indexes_ != nullptr) {
      FIELDREP_RETURN_IF_ERROR(indexes_->OnReplicaValuesChanged(
          path.bound.set_name, head_oid, path.id, old_values, {}));
    }
    return Status::OK();
  }

  // Separate replication.
  for (size_t i = 1; i + 1 <= n && i <= path.link_sequence.size(); ++i) {
    if (!chain[i].valid()) break;
    Object* owner;
    FIELDREP_RETURN_IF_ERROR(ctx->Get(chain[i], &owner));
    bool on_path;
    FIELDREP_RETURN_IF_ERROR(ops_.RemoveMember(path.link_sequence[i - 1],
                                               chain[i], owner, chain[i - 1],
                                               &on_path));
    if (on_path) break;
  }
  if (chain[n].valid() && head_obj->FindReplicaRef(path.id) != nullptr) {
    Object* terminal;
    FIELDREP_RETURN_IF_ERROR(ctx->Get(chain[n], &terminal));
    FIELDREP_RETURN_IF_ERROR(ReleaseReplica(path, chain[n], terminal, 1));
  }
  head_obj->RemoveReplicaRef(path.id);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Data mutations
// ---------------------------------------------------------------------------

Status ReplicationManager::CheckReferentialIntegrity(
    const TypeDescriptor& type, const Object& object) const {
  for (size_t i = 0; i < type.attribute_count(); ++i) {
    const AttributeDescriptor& attr = type.attribute(i);
    if (!attr.is_ref()) continue;
    const Value& v = object.field(i);
    if (v.is_null()) continue;
    if (!v.is_ref()) {
      return Status::InvalidArgument("attribute " + attr.name +
                                     " expects a reference value");
    }
    Oid target = v.as_ref();
    Result<const SetInfo*> set_info = catalog_->GetSetForFile(target.file_id);
    if (!set_info.ok()) {
      return Status::InvalidArgument("reference " + target.ToString() +
                                     " does not name an object set");
    }
    if (set_info.value()->type_name != attr.ref_type) {
      return Status::InvalidArgument(
          "attribute " + attr.name + " references type " + attr.ref_type +
          " but " + target.ToString() + " holds " +
          set_info.value()->type_name + " objects");
    }
    FIELDREP_ASSIGN_OR_RETURN(ObjectSet * target_set,
                              sets_->GetSet(set_info.value()->name));
    std::string ignored;
    Status exists = target_set->file().Read(target, &ignored);
    if (!exists.ok()) {
      return Status::InvalidArgument("dangling reference " +
                                     target.ToString() + " in attribute " +
                                     attr.name);
    }
  }
  return Status::OK();
}

Status ReplicationManager::InsertObject(const std::string& set_name,
                                        const Object& object, Oid* oid) {
  WalTransaction txn(wal_);
  FIELDREP_RETURN_IF_ERROR(txn.begin_status());
  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * set, sets_->GetSet(set_name));
  FIELDREP_RETURN_IF_ERROR(CheckReferentialIntegrity(set->type(), object));
  Object image = object;
  FIELDREP_RETURN_IF_ERROR(set->Insert(image, oid));
  image.set_type_tag(set->type().type_tag());

  MutationContext ctx(&ops_);
  ctx.Seed(*oid, &image);
  for (uint16_t path_id : catalog_->PathsHeadedAt(set_name)) {
    const ReplicationPathInfo* path = catalog_->GetPath(path_id);
    FIELDREP_RETURN_IF_ERROR(AddHeadToPath(*path, *oid, &image, &ctx));
  }
  FIELDREP_RETURN_IF_ERROR(ops_.WriteObject(*oid, image));
  if (indexes_ != nullptr) {
    FIELDREP_RETURN_IF_ERROR(indexes_->OnInsert(set_name, *oid, image));
  }
  return txn.Commit();
}

Status ReplicationManager::DeleteObject(const std::string& set_name,
                                        const Oid& oid) {
  WalTransaction txn(wal_);
  FIELDREP_RETURN_IF_ERROR(txn.begin_status());
  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * set, sets_->GetSet(set_name));
  MutationContext ctx(&ops_);
  Object* image;
  FIELDREP_RETURN_IF_ERROR(ctx.Get(oid, &image));

  // The paper's precondition: referenced objects cannot be deleted. An
  // object is referenced on a path exactly when it owns link objects, or
  // when its replica record is still shared.
  if (!image->link_refs().empty()) {
    return Status::FailedPrecondition(
        "object " + oid.ToString() +
        " is referenced on a replication path (it owns link objects)");
  }
  for (const ReplicaRefSlot& slot : image->replica_refs()) {
    const ReplicationPathInfo* path = catalog_->GetPath(slot.path_id);
    if (path == nullptr) continue;
    bool head_side = (path->bound.set_name == set_name);
    if (!head_side && slot.refcount > 0) {
      return Status::FailedPrecondition(
          "object " + oid.ToString() +
          " still anchors a shared replica record (refcount " +
          StringPrintf("%u", slot.refcount) + ")");
    }
  }

  for (uint16_t path_id : catalog_->PathsHeadedAt(set_name)) {
    const ReplicationPathInfo* path = catalog_->GetPath(path_id);
    FIELDREP_RETURN_IF_ERROR(RemoveHeadFromPath(*path, oid, image, &ctx));
  }
  if (indexes_ != nullptr) {
    FIELDREP_RETURN_IF_ERROR(indexes_->OnDelete(set_name, oid, *image));
  }
  FIELDREP_RETURN_IF_ERROR(set->Delete(oid));
  return txn.Commit();
}

Status ReplicationManager::UpdateField(const std::string& set_name,
                                       const Oid& oid, int attr_index,
                                       const Value& value) {
  return UpdateFields(set_name, {oid}, {{attr_index, value}});
}

Status ReplicationManager::UpdateFields(
    const std::string& set_name, const std::vector<Oid>& oids,
    const std::vector<std::pair<int, Value>>& updates,
    const std::function<Result<bool>(size_t)>& admit, uint64_t* updated) {
  if (updated != nullptr) *updated = 0;
  WalTransaction txn(wal_);
  FIELDREP_RETURN_IF_ERROR(txn.begin_status());
  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * set, sets_->GetSet(set_name));
  const TypeDescriptor& type = set->type();
  // One image per OID for the whole statement: a target that is also a
  // head (or a head reached twice) is never loaded twice.
  MutationContext ctx(&ops_);
  ValuePropagation values;

  // First pass, object by object: assignments, reference surgery and
  // index maintenance; value propagation is only noted.
  for (size_t i = 0; i < oids.size(); ++i) {
    if (admit) {
      FIELDREP_ASSIGN_OR_RETURN(bool take, admit(i));
      if (!take) continue;
    }
    const Oid& oid = oids[i];
    Object* image;
    FIELDREP_RETURN_IF_ERROR(ctx.Get(oid, &image));
    for (const auto& [attr_index, raw_value] : updates) {
      if (attr_index < 0 ||
          static_cast<size_t>(attr_index) >= type.attribute_count()) {
        return Status::InvalidArgument(
            StringPrintf("attribute index %d out of range", attr_index));
      }
      const AttributeDescriptor& attr = type.attribute(attr_index);
      FIELDREP_ASSIGN_OR_RETURN(Value value, raw_value.CoerceTo(attr));
      Value old_value = image->field(attr_index);

      if (attr.is_ref()) {
        // Validate the new target before any surgery.
        if (!value.is_null()) {
          Result<const SetInfo*> info =
              catalog_->GetSetForFile(value.as_ref().file_id);
          if (!info.ok() || info.value()->type_name != attr.ref_type) {
            return Status::InvalidArgument(
                "attribute " + attr.name + " cannot reference " +
                value.as_ref().ToString());
          }
        }
        FIELDREP_RETURN_IF_ERROR(
            HandleRefUpdate(set_name, oid, image, attr_index, value, &ctx));
      } else {
        image->set_field(attr_index, value);
      }
      if (indexes_ != nullptr) {
        FIELDREP_RETURN_IF_ERROR(indexes_->OnFieldUpdate(
            set_name, oid, old_value, value, attr_index));
      }
      const bool propagated =
          NoteValueChange(set_name, oid, *image, attr_index, &values);
      if (profiler_ != nullptr) {
        profiler_->RecordFieldUpdate(set_name + "." + attr.name, propagated);
      }
    }
    FIELDREP_RETURN_IF_ERROR(ops_.WriteObject(oid, *image));
    if (updated != nullptr) ++*updated;
  }

  // Second pass: every noted terminal value, set-at-a-time.
  FIELDREP_RETURN_IF_ERROR(PropagateValues(values, &ctx));
  return txn.Commit();
}

Status ReplicationManager::HandleRefUpdate(const std::string& set_name,
                                           const Oid& oid, Object* object,
                                           int attr_index, const Value& value,
                                           MutationContext* ctx) {
  Oid old_target = RefOrInvalid(object->field(attr_index));
  Oid new_target = RefOrInvalid(value);
  if (old_target == new_target) {
    object->set_field(attr_index, value);
    return Status::OK();
  }

  // Paths where this object is the head and this attribute is the first
  // hop: "update E.dept" = delete E + insert E (Section 4.1.1).
  std::vector<const ReplicationPathInfo*> head_paths;
  for (uint16_t path_id : catalog_->PathsHeadedAt(set_name)) {
    const ReplicationPathInfo* path = catalog_->GetPath(path_id);
    if (path != nullptr && path->bound.steps[0].attr_index == attr_index) {
      head_paths.push_back(path);
    }
  }
  for (const ReplicationPathInfo* path : head_paths) {
    FIELDREP_RETURN_IF_ERROR(RemoveHeadFromPath(*path, oid, object, ctx));
  }

  // Paths where this object is an interior link target and this attribute
  // is the next hop (Section 4.1.2's ripple; Section 5.2's repointing).
  struct InteriorWork {
    const ReplicationPathInfo* path;
    uint16_t level;
    std::vector<Oid> heads;
    Oid old_terminal;
  };
  std::vector<InteriorWork> interior;
  {
    std::set<std::pair<uint16_t, uint16_t>> seen;
    for (const LinkRef& ref : object->link_refs()) {
      const LinkInfo* link = catalog_->link_registry().GetLink(ref.link_id);
      if (link == nullptr || link->collapsed) continue;
      for (uint16_t path_id : link->path_ids) {
        const ReplicationPathInfo* path = catalog_->GetPath(path_id);
        if (path == nullptr) continue;
        uint16_t level = link->level;
        if (level >= path->bound.level()) continue;  // attr is terminal here
        if (path->bound.steps[level].attr_index != attr_index) continue;
        if (!seen.insert({path_id, level}).second) continue;
        interior.push_back({path, level, {}, Oid::Invalid()});
      }
    }
  }

  // Extends a partial chain (levels `level`..n) by following the path's
  // steps from `from`, reading through the mutation context.
  auto extend_chain = [&](const ReplicationPathInfo& path, uint16_t level,
                          const Oid& from,
                          std::vector<Oid>* chain) -> Status {
    size_t n = path.bound.level();
    chain->assign(n + 1, Oid::Invalid());
    (*chain)[level] = oid;
    if (!from.valid()) return Status::OK();
    (*chain)[level + 1] = from;
    for (size_t i = level + 2; i <= n; ++i) {
      Object* prev;
      FIELDREP_RETURN_IF_ERROR(ctx->Get((*chain)[i - 1], &prev));
      Oid next = RefOrInvalid(prev->field(path.bound.steps[i - 1].attr_index));
      if (!next.valid()) break;
      (*chain)[i] = next;
    }
    return Status::OK();
  };

  // Phase 1 (old target still in the field): collect heads, note the old
  // terminal, and unwind the upper part of the old chain.
  for (InteriorWork& work : interior) {
    const ReplicationPathInfo& path = *work.path;
    std::vector<std::vector<Oid>> heads;
    FIELDREP_RETURN_IF_ERROR(
        ExpandToHeads({{&path, work.level, oid}}, ctx, &heads));
    work.heads = std::move(heads[0]);
    std::vector<Oid> chain;
    FIELDREP_RETURN_IF_ERROR(extend_chain(path, work.level, old_target,
                                          &chain));
    work.old_terminal = chain[path.bound.level()];
    if (old_target.valid()) {
      size_t links = path.link_sequence.size();
      for (size_t i = work.level + 1; i <= links; ++i) {
        if (!chain[i].valid()) break;
        Object* owner;
        FIELDREP_RETURN_IF_ERROR(ctx->Get(chain[i], &owner));
        bool on_path;
        FIELDREP_RETURN_IF_ERROR(ops_.RemoveMember(path.link_sequence[i - 1],
                                                   chain[i], owner,
                                                   chain[i - 1], &on_path));
        if (on_path) break;
      }
    }
  }

  // Collapsed paths keep no link at the intermediate object, so dispatch by
  // shape: this object's type is the intermediate and the attribute is the
  // second hop (the D.org retargeting of Section 4.3.3 / Figure 6).
  struct CollapsedWork {
    const ReplicationPathInfo* path;
    std::vector<Oid> heads;
  };
  std::vector<CollapsedWork> collapsed;
  {
    FIELDREP_ASSIGN_OR_RETURN(ObjectSet * this_set, sets_->GetSet(set_name));
    for (uint16_t path_id : catalog_->AllPathIds()) {
      const ReplicationPathInfo* path = catalog_->GetPath(path_id);
      if (path == nullptr || !path->collapsed) continue;
      if (path->bound.steps[1].attr_index != attr_index) continue;
      if (path->bound.steps[0].target_type != this_set->type().name()) {
        continue;
      }
      CollapsedWork work{path, {}};
      if (old_target.valid()) {
        Object* old_owner;
        FIELDREP_RETURN_IF_ERROR(ctx->Get(old_target, &old_owner));
        FIELDREP_RETURN_IF_ERROR(ops_.RemoveTaggedMembers(
            path->link_sequence[0], old_target, old_owner, oid, &work.heads));
      } else {
        // The intermediate gains its first target: heads referencing it are
        // recorded nowhere in a collapsed path, so fall back to a head-set
        // scan (the price of collapsing; refs are assumed mostly static).
        FIELDREP_ASSIGN_OR_RETURN(ObjectSet * head_set,
                                  sets_->GetSet(path->bound.set_name));
        int head_attr = path->bound.steps[0].attr_index;
        std::vector<Oid>* heads = &work.heads;
        FIELDREP_RETURN_IF_ERROR(head_set->Scan(
            [&](const Oid& head_oid, const Object& head_obj) {
              if (RefOrInvalid(head_obj.field(head_attr)) == oid) {
                heads->push_back(head_oid);
              }
              return true;
            }));
      }
      collapsed.push_back(std::move(work));
    }
  }

  object->set_field(attr_index, value);

  // Phase 2 (new target in the field): rebuild the upper chain, refresh
  // replicas.
  for (InteriorWork& work : interior) {
    const ReplicationPathInfo& path = *work.path;
    size_t n = path.bound.level();
    std::vector<Oid> chain;
    FIELDREP_RETURN_IF_ERROR(extend_chain(path, work.level, new_target,
                                          &chain));
    if (new_target.valid()) {
      size_t links = path.link_sequence.size();
      for (size_t i = work.level + 1; i <= links; ++i) {
        if (!chain[i].valid()) break;
        Object* owner;
        FIELDREP_RETURN_IF_ERROR(ctx->Get(chain[i], &owner));
        FIELDREP_RETURN_IF_ERROR(ops_.AddMember(path.link_sequence[i - 1],
                                                chain[i], owner,
                                                chain[i - 1]));
      }
    }
    if (path.strategy == ReplicationStrategy::kInPlace) {
      // Every collected head reaches the terminal through this object, so
      // they all hold the old terminal's values; when the new terminal's
      // values are identical, no head needs touching.
      std::vector<Value> old_values, values;
      FIELDREP_RETURN_IF_ERROR(
          ReadTerminalValues(path, work.old_terminal, ctx, &old_values));
      FIELDREP_RETURN_IF_ERROR(
          ReadTerminalValues(path, chain[n], ctx, &values));
      if (path.deferred && chain[n].valid()) {
        // Queue the refresh; the eventual flush of the new terminal
        // re-derives exactly these heads through the rebuilt links.
        PendingInsert(path.id, chain[n].Packed());
      } else if (values != old_values) {
        FIELDREP_RETURN_IF_ERROR(
            UpdateHeadSlots(path, work.heads, values, ctx));
      }
    } else if (chain[n] == work.old_terminal) {
      // Same terminal through a different intermediate: the shared replica
      // record and every head pointer stay valid.
    } else {
      if (!work.heads.empty() && work.old_terminal.valid()) {
        Object* old_term;
        FIELDREP_RETURN_IF_ERROR(ctx->Get(work.old_terminal, &old_term));
        FIELDREP_RETURN_IF_ERROR(
            ReleaseReplica(path, work.old_terminal, old_term,
                           static_cast<uint32_t>(work.heads.size())));
      }
      Oid replica_oid = Oid::Invalid();
      if (!work.heads.empty() && chain[n].valid()) {
        Object* new_term;
        FIELDREP_RETURN_IF_ERROR(ctx->Get(chain[n], &new_term));
        FIELDREP_RETURN_IF_ERROR(
            EnsureReplica(path, chain[n], new_term,
                          static_cast<uint32_t>(work.heads.size()),
                          &replica_oid));
      }
      FIELDREP_RETURN_IF_ERROR(
          RepointHeadRefs(path, work.heads, replica_oid, ctx));
    }
  }
  for (CollapsedWork& work : collapsed) {
    const ReplicationPathInfo& path = *work.path;
    if (new_target.valid() && !work.heads.empty()) {
      Object* new_owner;
      FIELDREP_RETURN_IF_ERROR(ctx->Get(new_target, &new_owner));
      FIELDREP_RETURN_IF_ERROR(ops_.AddMembers(
          path.link_sequence[0], new_target, new_owner, work.heads, oid));
    }
    std::vector<Value> old_values, values;
    FIELDREP_RETURN_IF_ERROR(
        ReadTerminalValues(path, old_target, ctx, &old_values));
    FIELDREP_RETURN_IF_ERROR(
        ReadTerminalValues(path, new_target, ctx, &values));
    if (path.deferred && new_target.valid()) {
      PendingInsert(path.id, new_target.Packed());
    } else if (values != old_values) {
      FIELDREP_RETURN_IF_ERROR(
          UpdateHeadSlots(path, work.heads, values, ctx));
    }
  }

  for (const ReplicationPathInfo* path : head_paths) {
    FIELDREP_RETURN_IF_ERROR(AddHeadToPath(*path, oid, object, ctx));
  }
  return Status::OK();
}

}  // namespace fieldrep
