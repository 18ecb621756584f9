#include "index/btree.h"

#include <cstring>

#include "common/bytes.h"
#include "common/strings.h"
#include "storage/slotted_page.h"

namespace fieldrep {

namespace {

// Node layout (shares the 40-byte header budget with slotted pages):
//   u16 page_type (kBTreeLeaf / kBTreeInternal)
//   u16 count
//   u32 next_leaf (leaves only)
//   ... reserved to byte 40
// Leaf body:     count * 16-byte entries { i64 key, u64 val }
// Internal body: u32 child0, then count * 20-byte entries
//                { i64 key, u64 val, u32 child }
// Separator i is the smallest (key, val) in child i+1's subtree.

constexpr uint32_t kHeader = kPageHeaderBytes;
constexpr uint32_t kLeafEntryBytes = 16;
constexpr uint32_t kInternalEntryBytes = 20;
// Nodes transiently hold max+1 entries before a split, so capacity leaves
// room for one extra entry within the page.
constexpr uint32_t kLeafMax =
    kUserBytesPerPage / kLeafEntryBytes - 1;  // 252
constexpr uint32_t kInternalMax =
    (kUserBytesPerPage - 4) / kInternalEntryBytes - 1;  // 201
// Leaf pages a range scan reads ahead once the chain runs on to the
// physically next page (ScanRange).
constexpr uint32_t kLeafReadAheadRun = 16;

uint16_t NodeType(const uint8_t* p) { return DecodeU16(p); }
void SetNodeType(uint8_t* p, PageType t) {
  EncodeU16(p, static_cast<uint16_t>(t));
}
uint16_t Count(const uint8_t* p) { return DecodeU16(p + 2); }
void SetCount(uint8_t* p, uint16_t c) { EncodeU16(p + 2, c); }
PageId NextLeaf(const uint8_t* p) { return DecodeU32(p + 4); }
void SetNextLeaf(uint8_t* p, PageId id) { EncodeU32(p + 4, id); }

bool IsLeaf(const uint8_t* p) {
  return NodeType(p) == static_cast<uint16_t>(PageType::kBTreeLeaf);
}

// --- Leaf accessors ---------------------------------------------------------

int64_t LeafKey(const uint8_t* p, uint32_t i) {
  return DecodeI64(p + kHeader + i * kLeafEntryBytes);
}
uint64_t LeafVal(const uint8_t* p, uint32_t i) {
  return DecodeU64(p + kHeader + i * kLeafEntryBytes + 8);
}
void SetLeafEntry(uint8_t* p, uint32_t i, int64_t key, uint64_t val) {
  EncodeI64(p + kHeader + i * kLeafEntryBytes, key);
  EncodeU64(p + kHeader + i * kLeafEntryBytes + 8, val);
}
void LeafInsertAt(uint8_t* p, uint32_t i, int64_t key, uint64_t val) {
  uint16_t n = Count(p);
  std::memmove(p + kHeader + (i + 1) * kLeafEntryBytes,
               p + kHeader + i * kLeafEntryBytes,
               (n - i) * kLeafEntryBytes);
  SetLeafEntry(p, i, key, val);
  SetCount(p, n + 1);
}
void LeafRemoveAt(uint8_t* p, uint32_t i) {
  uint16_t n = Count(p);
  std::memmove(p + kHeader + i * kLeafEntryBytes,
               p + kHeader + (i + 1) * kLeafEntryBytes,
               (n - i - 1) * kLeafEntryBytes);
  SetCount(p, n - 1);
}

// --- Internal accessors -----------------------------------------------------

PageId Child0(const uint8_t* p) { return DecodeU32(p + kHeader); }
void SetChild0(uint8_t* p, PageId id) { EncodeU32(p + kHeader, id); }
int64_t IntKey(const uint8_t* p, uint32_t i) {
  return DecodeI64(p + kHeader + 4 + i * kInternalEntryBytes);
}
uint64_t IntVal(const uint8_t* p, uint32_t i) {
  return DecodeU64(p + kHeader + 4 + i * kInternalEntryBytes + 8);
}
PageId IntChild(const uint8_t* p, uint32_t i) {
  return DecodeU32(p + kHeader + 4 + i * kInternalEntryBytes + 16);
}
void SetIntEntry(uint8_t* p, uint32_t i, int64_t key, uint64_t val,
                 PageId child) {
  EncodeI64(p + kHeader + 4 + i * kInternalEntryBytes, key);
  EncodeU64(p + kHeader + 4 + i * kInternalEntryBytes + 8, val);
  EncodeU32(p + kHeader + 4 + i * kInternalEntryBytes + 16, child);
}
void IntInsertAt(uint8_t* p, uint32_t i, int64_t key, uint64_t val,
                 PageId child) {
  uint16_t n = Count(p);
  std::memmove(p + kHeader + 4 + (i + 1) * kInternalEntryBytes,
               p + kHeader + 4 + i * kInternalEntryBytes,
               (n - i) * kInternalEntryBytes);
  SetIntEntry(p, i, key, val, child);
  SetCount(p, n + 1);
}

// Lexicographic comparison of (key, val) pairs.
bool PairLess(int64_t k1, uint64_t v1, int64_t k2, uint64_t v2) {
  if (k1 != k2) return k1 < k2;
  return v1 < v2;
}

// First index i in the leaf with entry >= (key, val).
uint32_t LeafLowerBound(const uint8_t* p, int64_t key, uint64_t val) {
  uint32_t lo = 0, hi = Count(p);
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    if (PairLess(LeafKey(p, mid), LeafVal(p, mid), key, val)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Child index to descend into for (key, val): the number of separators
// <= (key, val).
uint32_t IntChildIndex(const uint8_t* p, int64_t key, uint64_t val) {
  uint32_t lo = 0, hi = Count(p);
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    // separator <= (key,val)  <=>  !((key,val) < separator)
    if (!PairLess(key, val, IntKey(p, mid), IntVal(p, mid))) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

PageId ChildAt(const uint8_t* p, uint32_t i) {
  return i == 0 ? Child0(p) : IntChild(p, i - 1);
}

}  // namespace

BTree::BTree(BufferPool* pool) : pool_(pool) {}

Status BTree::Init() {
  if (root_ != kInvalidPageId) {
    return Status::FailedPrecondition("btree already initialized");
  }
  PageGuard guard;
  FIELDREP_RETURN_IF_ERROR(pool_->NewPage(&guard));
  SetNodeType(guard.data(), PageType::kBTreeLeaf);
  SetCount(guard.data(), 0);
  SetNextLeaf(guard.data(), kInvalidPageId);
  guard.MarkDirty();
  root_ = guard.page_id();
  entry_count_ = 0;
  return Status::OK();
}

Status BTree::InsertRecursive(PageId node, int64_t key, uint64_t val,
                              SplitResult* result) {
  PageGuard guard;
  FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(node, &guard));
  uint8_t* p = guard.data();

  if (IsLeaf(p)) {
    uint32_t pos = LeafLowerBound(p, key, val);
    if (pos < Count(p) && LeafKey(p, pos) == key && LeafVal(p, pos) == val) {
      return Status::AlreadyExists(
          StringPrintf("entry (%lld, %llu) already in btree",
                       static_cast<long long>(key),
                       static_cast<unsigned long long>(val)));
    }
    LeafInsertAt(p, pos, key, val);
    guard.MarkDirty();
    if (Count(p) <= kLeafMax) {
      result->split = false;
      return Status::OK();
    }
    // Split: upper half moves to a new right sibling.
    PageGuard right_guard;
    FIELDREP_RETURN_IF_ERROR(pool_->NewPage(&right_guard));
    uint8_t* r = right_guard.data();
    SetNodeType(r, PageType::kBTreeLeaf);
    uint16_t n = Count(p);
    uint16_t keep = n / 2;
    uint16_t move = n - keep;
    std::memcpy(r + kHeader, p + kHeader + keep * kLeafEntryBytes,
                move * kLeafEntryBytes);
    SetCount(r, move);
    SetCount(p, keep);
    SetNextLeaf(r, NextLeaf(p));
    SetNextLeaf(p, right_guard.page_id());
    right_guard.MarkDirty();
    result->split = true;
    result->sep_key = LeafKey(r, 0);
    result->sep_val = LeafVal(r, 0);
    result->right = right_guard.page_id();
    return Status::OK();
  }

  uint32_t child_index = IntChildIndex(p, key, val);
  PageId child = ChildAt(p, child_index);
  guard.Release();  // avoid holding pins down the whole descent

  SplitResult child_split;
  FIELDREP_RETURN_IF_ERROR(InsertRecursive(child, key, val, &child_split));
  if (!child_split.split) {
    result->split = false;
    return Status::OK();
  }

  PageGuard again;
  FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(node, &again));
  p = again.data();
  IntInsertAt(p, child_index, child_split.sep_key, child_split.sep_val,
              child_split.right);
  again.MarkDirty();
  if (Count(p) <= kInternalMax) {
    result->split = false;
    return Status::OK();
  }
  // Split internal node: middle separator moves up.
  PageGuard right_guard;
  FIELDREP_RETURN_IF_ERROR(pool_->NewPage(&right_guard));
  uint8_t* r = right_guard.data();
  SetNodeType(r, PageType::kBTreeInternal);
  uint16_t n = Count(p);
  uint16_t mid = n / 2;  // separator index promoted upward
  result->split = true;
  result->sep_key = IntKey(p, mid);
  result->sep_val = IntVal(p, mid);
  result->right = right_guard.page_id();
  SetChild0(r, IntChild(p, mid));
  uint16_t move = n - mid - 1;
  std::memcpy(r + kHeader + 4,
              p + kHeader + 4 + (mid + 1) * kInternalEntryBytes,
              move * kInternalEntryBytes);
  SetCount(r, move);
  SetCount(p, mid);
  right_guard.MarkDirty();
  again.MarkDirty();
  return Status::OK();
}

Status BTree::Insert(int64_t key, Oid value) {
  if (root_ == kInvalidPageId) {
    return Status::FailedPrecondition("btree not initialized");
  }
  SplitResult split;
  FIELDREP_RETURN_IF_ERROR(
      InsertRecursive(root_, key, value.Packed(), &split));
  if (split.split) {
    PageGuard guard;
    FIELDREP_RETURN_IF_ERROR(pool_->NewPage(&guard));
    uint8_t* p = guard.data();
    SetNodeType(p, PageType::kBTreeInternal);
    SetChild0(p, root_);
    SetIntEntry(p, 0, split.sep_key, split.sep_val, split.right);
    SetCount(p, 1);
    guard.MarkDirty();
    root_ = guard.page_id();
  }
  ++entry_count_;
  return Status::OK();
}

Status BTree::FindLeaf(int64_t key, uint64_t val, PageId* leaf) const {
  // Shared latches, one node at a time: concurrent readers may descend
  // together. Structural modification (Insert/Delete) is writer-only and
  // must not run concurrently with reads (see DESIGN.md §10).
  PageId node = root_;
  for (;;) {
    PageGuard guard;
    FIELDREP_RETURN_IF_ERROR(
        pool_->FetchPage(node, &guard, LatchMode::kShared));
    const uint8_t* p = guard.data();
    if (IsLeaf(p)) {
      *leaf = node;
      return Status::OK();
    }
    node = ChildAt(p, IntChildIndex(p, key, val));
  }
}

Status BTree::Delete(int64_t key, Oid value) {
  if (root_ == kInvalidPageId) {
    return Status::FailedPrecondition("btree not initialized");
  }
  PageId leaf;
  FIELDREP_RETURN_IF_ERROR(FindLeaf(key, value.Packed(), &leaf));
  PageGuard guard;
  FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(leaf, &guard));
  uint8_t* p = guard.data();
  uint32_t pos = LeafLowerBound(p, key, value.Packed());
  if (pos >= Count(p) || LeafKey(p, pos) != key ||
      LeafVal(p, pos) != value.Packed()) {
    return Status::NotFound(
        StringPrintf("entry (%lld, %s) not in btree",
                     static_cast<long long>(key), value.ToString().c_str()));
  }
  LeafRemoveAt(p, pos);
  guard.MarkDirty();
  --entry_count_;
  return Status::OK();
}

Status BTree::Lookup(int64_t key, std::vector<Oid>* out) const {
  return ScanRange(key, key, [out](int64_t, Oid oid) {
    out->push_back(oid);
    return true;
  });
}

Status BTree::ScanRange(int64_t lo, int64_t hi,
                        const std::function<bool(int64_t, Oid)>& fn) const {
  if (root_ == kInvalidPageId) {
    return Status::FailedPrecondition("btree not initialized");
  }
  if (lo > hi) return Status::OK();
  PageId leaf;
  FIELDREP_RETURN_IF_ERROR(FindLeaf(lo, 0, &leaf));
  // Read-ahead along the leaf chain. Bulk-loaded trees allocate leaves in
  // mostly ascending page order (rightmost splits), so once the chain
  // advances to the physically next page we speculatively read a run
  // beyond it, within the pool's read-ahead budget. Read-ahead pages stay
  // logically uncharged until fetched, so a misprediction (or an early
  // scan stop) costs only physical I/O — never a page of the paper's cost
  // unit.
  PageId read_ahead_until = 0;  // pages below this were already announced
  std::vector<std::pair<int64_t, uint64_t>> entries;
  while (leaf != kInvalidPageId) {
    // Collect the leaf's entries under a shared latch, then run the
    // callbacks (and the read-ahead, which may block on victim writeback)
    // after releasing it: readers never block while holding a latch.
    entries.clear();
    bool done = false;
    PageId next;
    {
      PageGuard guard;
      FIELDREP_RETURN_IF_ERROR(
          pool_->FetchPage(leaf, &guard, LatchMode::kShared));
      const uint8_t* p = guard.data();
      uint16_t n = Count(p);
      uint32_t start = LeafLowerBound(p, lo, 0);
      for (uint32_t i = start; i < n; ++i) {
        int64_t key = LeafKey(p, i);
        if (key > hi) {
          done = true;
          break;
        }
        entries.emplace_back(key, LeafVal(p, i));
      }
      next = NextLeaf(p);
    }
    for (const auto& [key, val] : entries) {
      if (!fn(key, Oid::FromPacked(val))) return Status::OK();
    }
    if (done) return Status::OK();
    if (next != kInvalidPageId && next == leaf + 1 &&
        next + kLeafReadAheadRun > read_ahead_until) {
      std::vector<PageId> ahead(kLeafReadAheadRun);
      for (uint32_t i = 0; i < kLeafReadAheadRun; ++i) ahead[i] = next + i;
      size_t covered = 0;
      FIELDREP_RETURN_IF_ERROR(pool_->ReadAhead(ahead, &covered));
      read_ahead_until = next + static_cast<PageId>(covered);
    }
    leaf = next;
  }
  return Status::OK();
}

Result<uint32_t> BTree::Height() const {
  if (root_ == kInvalidPageId) return static_cast<uint32_t>(0);
  uint32_t height = 1;
  PageId node = root_;
  for (;;) {
    PageGuard guard;
    FIELDREP_RETURN_IF_ERROR(
        pool_->FetchPage(node, &guard, LatchMode::kShared));
    const uint8_t* p = guard.data();
    if (IsLeaf(p)) return height;
    node = Child0(p);
    ++height;
  }
}

Result<uint32_t> BTree::PageCount() const {
  uint32_t height_unused, pages = 0;
  FIELDREP_RETURN_IF_ERROR(CheckNode(root_, true, 0, 0, false, 0, 0, false,
                                     &height_unused, &pages));
  return pages;
}

std::string BTree::EncodeMetadata() const {
  std::string out;
  PutU32(&out, root_);
  PutU64(&out, entry_count_);
  return out;
}

Status BTree::DecodeMetadata(const std::string& encoded) {
  ByteReader reader(encoded);
  uint32_t root;
  uint64_t count;
  if (!reader.GetU32(&root) || !reader.GetU64(&count)) {
    return Status::Corruption("bad BTree metadata");
  }
  root_ = root;
  entry_count_ = count;
  return Status::OK();
}

Status BTree::CheckNode(PageId node, bool is_root, int64_t lo_key,
                        uint64_t lo_val, bool has_lo, int64_t hi_key,
                        uint64_t hi_val, bool has_hi, uint32_t* height,
                        uint32_t* pages) const {
  // Holds the parent's guard across the child recursion (unlike the hot
  // read paths), so this check must run quiesced — which integrity
  // checking always does. Shared mode keeps it off the WAL's
  // OnPageAccess path.
  PageGuard guard;
  FIELDREP_RETURN_IF_ERROR(
      pool_->FetchPage(node, &guard, LatchMode::kShared));
  const uint8_t* p = guard.data();
  ++*pages;
  uint16_t n = Count(p);
  if (IsLeaf(p)) {
    *height = 1;
    for (uint32_t i = 0; i < n; ++i) {
      if (i > 0 && !PairLess(LeafKey(p, i - 1), LeafVal(p, i - 1),
                             LeafKey(p, i), LeafVal(p, i))) {
        return Status::Corruption("leaf entries out of order");
      }
      if (has_lo &&
          PairLess(LeafKey(p, i), LeafVal(p, i), lo_key, lo_val)) {
        return Status::Corruption("leaf entry below subtree lower bound");
      }
      if (has_hi &&
          !PairLess(LeafKey(p, i), LeafVal(p, i), hi_key, hi_val)) {
        return Status::Corruption("leaf entry above subtree upper bound");
      }
    }
    return Status::OK();
  }
  if (n == 0 && !is_root) {
    return Status::Corruption("internal node with no separators");
  }
  for (uint32_t i = 1; i < n; ++i) {
    if (!PairLess(IntKey(p, i - 1), IntVal(p, i - 1), IntKey(p, i),
                  IntVal(p, i))) {
      return Status::Corruption("separators out of order");
    }
  }
  uint32_t child_height = 0;
  for (uint32_t i = 0; i <= n; ++i) {
    int64_t clo_key = (i == 0) ? lo_key : IntKey(p, i - 1);
    uint64_t clo_val = (i == 0) ? lo_val : IntVal(p, i - 1);
    bool chas_lo = (i == 0) ? has_lo : true;
    int64_t chi_key = (i == n) ? hi_key : IntKey(p, i);
    uint64_t chi_val = (i == n) ? hi_val : IntVal(p, i);
    bool chas_hi = (i == n) ? has_hi : true;
    uint32_t h;
    FIELDREP_RETURN_IF_ERROR(CheckNode(ChildAt(p, i), false, clo_key, clo_val,
                                       chas_lo, chi_key, chi_val, chas_hi, &h,
                                       pages));
    if (i == 0) {
      child_height = h;
    } else if (h != child_height) {
      return Status::Corruption("uneven subtree heights");
    }
  }
  *height = child_height + 1;
  return Status::OK();
}

Status BTree::CheckInvariants() const {
  if (root_ == kInvalidPageId) return Status::OK();
  uint32_t height, pages = 0;
  return CheckNode(root_, true, 0, 0, false, 0, 0, false, &height, &pages);
}

Result<int64_t> BTreeKeyForValue(const Value& value) {
  if (value.is_int32()) return static_cast<int64_t>(value.as_int32());
  if (value.is_int64()) return value.as_int64();
  if (value.is_double()) {
    // Order-preserving double -> int64 transform.
    double d = value.as_double();
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    if (bits & 0x8000000000000000ULL) {
      bits = ~bits;
    } else {
      bits |= 0x8000000000000000ULL;
    }
    return static_cast<int64_t>(bits ^ 0x8000000000000000ULL);
  }
  if (value.is_string()) {
    // Big-endian 8-byte prefix; distinct strings may collide, so lookups
    // post-filter by the actual attribute value.
    const std::string& s = value.as_string();
    uint64_t packed = 0;
    for (size_t i = 0; i < 8; ++i) {
      packed = (packed << 8) |
               (i < s.size() ? static_cast<uint8_t>(s[i]) : 0);
    }
    return static_cast<int64_t>(packed ^ 0x8000000000000000ULL);
  }
  if (value.is_ref()) return static_cast<int64_t>(value.as_ref().Packed());
  return Status::InvalidArgument("cannot index value " + value.ToString());
}

}  // namespace fieldrep
