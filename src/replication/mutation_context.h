#ifndef FIELDREP_REPLICATION_MUTATION_CONTEXT_H_
#define FIELDREP_REPLICATION_MUTATION_CONTEXT_H_

#include <deque>
#include <unordered_map>

#include "common/status.h"
#include "objects/object.h"
#include "replication/inverted_path.h"
#include "replication/replication_manager.h"
#include "storage/oid.h"

namespace fieldrep {

/// \brief Per-mutation object cache guaranteeing a single in-memory image
/// per OID.
///
/// Replication maintenance touches the same object from several directions
/// (in-flight update target, link owner, chain intermediate, propagation
/// head). Loading it twice would lose writes, so every object access during
/// one mutation goes through this cache; mutated images are written through
/// immediately by the code that mutates them. The deque keeps addresses
/// stable as the cache grows.
struct ReplicationManager::MutationContext {
  explicit MutationContext(InvertedPathOps* ops_in) : ops(ops_in) {}

  /// Returns the cached image for `oid`, loading it on first access.
  Status Get(const Oid& oid, Object** out) {
    auto it = index.find(oid.Packed());
    if (it != index.end()) {
      *out = it->second;
      return Status::OK();
    }
    Object loaded;
    FIELDREP_RETURN_IF_ERROR(ops->ReadObject(oid, &loaded));
    owned.push_back(std::move(loaded));
    Object* ptr = &owned.back();
    index.emplace(oid.Packed(), ptr);
    *out = ptr;
    return Status::OK();
  }

  /// Whether `oid`'s image is already loaded (a Get costs no fetch).
  bool Contains(const Oid& oid) const {
    return index.count(oid.Packed()) != 0;
  }

  /// Registers an externally owned image (the in-flight object of the
  /// current mutation) so every helper sees the same instance.
  void Seed(const Oid& oid, Object* object) {
    index[oid.Packed()] = object;
  }

  InvertedPathOps* ops;
  std::unordered_map<uint64_t, Object*> index;
  std::deque<Object> owned;
};

}  // namespace fieldrep

#endif  // FIELDREP_REPLICATION_MUTATION_CONTEXT_H_
