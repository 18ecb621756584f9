#include "storage/record_file.h"

#include <algorithm>
#include <functional>

#include "common/bytes.h"
#include "common/strings.h"
#include "storage/slotted_page.h"

namespace fieldrep {

namespace {
// Relocation stub tags. Real payloads start with a small type tag, so these
// values cannot collide.
constexpr uint16_t kForwardTag = 0xFFFF;  // stub at the original slot
constexpr uint16_t kMovedTag = 0xFFFE;    // relocated body elsewhere

bool IsReservedPrefix(const std::string& payload) {
  if (payload.size() < 2) return false;
  uint16_t tag = DecodeU16(reinterpret_cast<const uint8_t*>(payload.data()));
  return tag == kForwardTag || tag == kMovedTag;
}

std::string MakeForwardStub(const Oid& target) {
  std::string out;
  PutU16(&out, kForwardTag);
  PutU64(&out, target.Packed());
  return out;
}

std::string MakeMovedBody(const Oid& original, const std::string& payload) {
  std::string out;
  PutU16(&out, kMovedTag);
  PutU64(&out, original.Packed());
  out.append(payload);
  return out;
}

// Classifies a raw cell. Returns kForwardTag/kMovedTag, or 0 for a plain
// record.
uint16_t CellKind(const std::string& cell) {
  if (cell.size() < 2) return 0;
  uint16_t tag = DecodeU16(reinterpret_cast<const uint8_t*>(cell.data()));
  if (tag == kForwardTag || tag == kMovedTag) return tag;
  return 0;
}

Oid StubTarget(const std::string& cell) {
  return Oid::FromPacked(DecodeU64(
      reinterpret_cast<const uint8_t*>(cell.data()) + 2));
}

/// Copies the cell `oid` addresses on `page` into `out`: NotFound for a
/// dead slot, Corruption when the slot directory points outside the cell
/// area.
Status ReadCell(const SlottedPage& page, const Oid& oid, std::string* out) {
  if (!page.IsLive(oid.slot)) {
    return Status::NotFound("no record at " + oid.ToString());
  }
  if (!page.ReadString(oid.slot, out)) {
    return Status::Corruption(StringPrintf(
        "page %u slot %u: cell [%u, +%u) lies outside the cell area",
        oid.page_id, oid.slot, page.SlotOffset(oid.slot),
        page.SlotLength(oid.slot)));
  }
  return Status::OK();
}
}  // namespace

RecordFile::RecordFile(BufferPool* pool, FileId file_id)
    : pool_(pool), file_id_(file_id) {}

Status RecordFile::CheckOid(const Oid& oid) const {
  if (!oid.valid() || oid.file_id != file_id_) {
    return Status::InvalidArgument(
        StringPrintf("oid %s does not belong to file %u",
                     oid.ToString().c_str(), file_id_));
  }
  return Status::OK();
}

Status RecordFile::AppendPage(PageId* page_id) {
  const PageId old_tail = last_page_.load(std::memory_order_relaxed);
  PageGuard guard;
  FIELDREP_RETURN_IF_ERROR(pool_->NewPage(&guard));
  SlottedPage::Init(guard.data(), PageType::kHeap);
  SlottedPage page(guard.data());
  page.set_prev_page(old_tail);
  guard.MarkDirty();
  *page_id = guard.page_id();
  if (old_tail != kInvalidPageId) {
    PageGuard tail;
    FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(old_tail, &tail));
    SlottedPage(tail.data()).set_next_page(*page_id);
    tail.MarkDirty();
  } else {
    first_page_.store(*page_id, std::memory_order_relaxed);
  }
  last_page_.store(*page_id, std::memory_order_relaxed);
  page_count_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(chain_mu_);
  if (chain_complete_) chain_cache_.push_back(*page_id);
  return Status::OK();
}

void RecordFile::NoteChainPage(size_t pos, PageId page_id) const {
  if (pos < chain_cache_.size()) {
    if (chain_cache_[pos] == page_id) return;
    // Stale suffix (should not happen — chains only grow — but stay safe).
    chain_cache_.resize(pos);
    chain_complete_ = false;
  }
  if (pos == chain_cache_.size()) chain_cache_.push_back(page_id);
}

void RecordFile::NoteFreeSpace(PageId page_id) {
  for (PageId hint : free_hints_) {
    if (hint == page_id) return;
  }
  if (free_hints_.size() >= 64) {
    free_hints_.erase(free_hints_.begin());
  }
  free_hints_.push_back(page_id);
}

Status RecordFile::InsertCell(const std::string& payload, Oid* oid) {
  if (payload.size() + 64 > kUserBytesPerPage) {
    return Status::InvalidArgument(
        StringPrintf("record of %zu bytes exceeds page capacity",
                     payload.size()));
  }
  if (last_page() == kInvalidPageId) {
    PageId ignored;
    FIELDREP_RETURN_IF_ERROR(AppendPage(&ignored));
  }
  // Candidate pages: the tail page first, then recent free-space hints.
  const PageId tail = last_page();
  std::vector<PageId> candidates = {tail};
  for (auto it = free_hints_.rbegin(); it != free_hints_.rend(); ++it) {
    if (*it != tail) candidates.push_back(*it);
  }
  for (PageId candidate : candidates) {
    PageGuard guard;
    FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(candidate, &guard));
    SlottedPage page(guard.data());
    // Honour the growth reserve: leave room for every resident record
    // (including this one) to grow by growth_reserve_ bytes.
    bool room = true;
    if (growth_reserve_ > 0) {
      uint64_t needed = payload.size() + 4 +
                        static_cast<uint64_t>(growth_reserve_) *
                            (page.live_count() + 1);
      room = page.FreeSpace() >= needed;
    }
    int slot = room ? page.Insert(payload) : -1;
    if (slot >= 0) {
      guard.MarkDirty();
      *oid = Oid(file_id_, candidate, static_cast<uint16_t>(slot));
      return Status::OK();
    }
    if (candidate != tail) {
      // Hint is stale (page is effectively full); drop it.
      free_hints_.erase(
          std::remove(free_hints_.begin(), free_hints_.end(), candidate),
          free_hints_.end());
    }
  }
  PageId fresh;
  FIELDREP_RETURN_IF_ERROR(AppendPage(&fresh));
  PageGuard guard;
  FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(fresh, &guard));
  SlottedPage page(guard.data());
  int slot = page.Insert(payload);
  if (slot < 0) {
    return Status::Internal("fresh page rejected record");
  }
  guard.MarkDirty();
  *oid = Oid(file_id_, fresh, static_cast<uint16_t>(slot));
  return Status::OK();
}

Status RecordFile::Insert(const std::string& payload, Oid* oid) {
  if (IsReservedPrefix(payload)) {
    return Status::InvalidArgument(
        "record payload begins with a reserved stub tag");
  }
  FIELDREP_RETURN_IF_ERROR(InsertCell(payload, oid));
  ++record_count_;
  return Status::OK();
}

Status RecordFile::Read(const Oid& oid, std::string* payload) const {
  FIELDREP_RETURN_IF_ERROR(CheckOid(oid));
  PageGuard guard;
  FIELDREP_RETURN_IF_ERROR(
      pool_->FetchPage(oid.page_id, &guard, LatchMode::kShared));
  SlottedPage page(guard.data());
  FIELDREP_RETURN_IF_ERROR(ReadCell(page, oid, payload));
  uint16_t kind = CellKind(*payload);
  if (kind == 0) return Status::OK();
  if (kind == kMovedTag) {
    // Direct read of a relocated body: strip the relocation header.
    payload->erase(0, 10);
    return Status::OK();
  }
  // Forwarding stub: follow it (after releasing the stub page — readers
  // never hold a latch while blocking on another).
  Oid target = StubTarget(*payload);
  guard.Release();
  PageGuard body_guard;
  FIELDREP_RETURN_IF_ERROR(
      pool_->FetchPage(target.page_id, &body_guard, LatchMode::kShared));
  SlottedPage body_page(body_guard.data());
  if (!body_page.IsLive(target.slot)) {
    return Status::Corruption("dangling forwarding stub at " + oid.ToString());
  }
  FIELDREP_RETURN_IF_ERROR(ReadCell(body_page, target, payload));
  if (CellKind(*payload) != kMovedTag) {
    return Status::Corruption("dangling forwarding stub at " + oid.ToString());
  }
  payload->erase(0, 10);
  return Status::OK();
}

Status RecordFile::Update(const Oid& oid, const std::string& payload) {
  FIELDREP_RETURN_IF_ERROR(CheckOid(oid));
  if (IsReservedPrefix(payload)) {
    return Status::InvalidArgument(
        "record payload begins with a reserved stub tag");
  }
  // Load the current cell to learn whether the record was relocated.
  std::string cell;
  Oid body_oid = oid;
  bool relocated = false;
  {
    PageGuard guard;
    FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(oid.page_id, &guard));
    SlottedPage page(guard.data());
    FIELDREP_RETURN_IF_ERROR(ReadCell(page, oid, &cell));
    uint16_t kind = CellKind(cell);
    if (kind == kForwardTag) {
      body_oid = StubTarget(cell);
      relocated = true;
    } else if (kind == kMovedTag) {
      return Status::InvalidArgument(
          "update must address a record's logical oid, not its body");
    } else {
      // Common case: try the in-place update right here.
      if (page.Update(oid.slot, payload)) {
        guard.MarkDirty();
        return Status::OK();
      }
    }
  }

  if (relocated) {
    // Try updating the relocated body in place.
    std::string body = MakeMovedBody(oid, payload);
    PageGuard guard;
    FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(body_oid.page_id, &guard));
    SlottedPage page(guard.data());
    if (page.Update(body_oid.slot, reinterpret_cast<const uint8_t*>(
                                       body.data()),
                    static_cast<uint32_t>(body.size()))) {
      guard.MarkDirty();
      return Status::OK();
    }
    // Body must move again: delete old body, insert a new one, repoint the
    // stub (the stub rewrite is same-size, so it cannot fail for space).
    page.Delete(body_oid.slot);
    guard.MarkDirty();
    guard.Release();
    NoteFreeSpace(body_oid.page_id);
    Oid new_body;
    FIELDREP_RETURN_IF_ERROR(InsertCell(body, &new_body));
    PageGuard stub_guard;
    FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(oid.page_id, &stub_guard));
    SlottedPage stub_page(stub_guard.data());
    if (!stub_page.Update(oid.slot, MakeForwardStub(new_body))) {
      return Status::Internal("failed to repoint forwarding stub");
    }
    stub_guard.MarkDirty();
    return Status::OK();
  }

  // The record outgrew its page: relocate the body and leave a stub.
  Oid body;
  FIELDREP_RETURN_IF_ERROR(InsertCell(MakeMovedBody(oid, payload), &body));
  PageGuard guard;
  FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(oid.page_id, &guard));
  SlottedPage page(guard.data());
  if (!page.Update(oid.slot, MakeForwardStub(body))) {
    return Status::Internal(
        "page cannot hold a 10-byte forwarding stub for " + oid.ToString());
  }
  guard.MarkDirty();
  return Status::OK();
}

Status RecordFile::Delete(const Oid& oid) {
  FIELDREP_RETURN_IF_ERROR(CheckOid(oid));
  std::string cell;
  PageGuard guard;
  FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(oid.page_id, &guard));
  SlottedPage page(guard.data());
  FIELDREP_RETURN_IF_ERROR(ReadCell(page, oid, &cell));
  uint16_t kind = CellKind(cell);
  if (kind == kMovedTag) {
    return Status::InvalidArgument(
        "delete must address a record's logical oid, not its body");
  }
  page.Delete(oid.slot);
  guard.MarkDirty();
  guard.Release();
  NoteFreeSpace(oid.page_id);
  if (kind == kForwardTag) {
    Oid body = StubTarget(cell);
    PageGuard body_guard;
    FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(body.page_id, &body_guard));
    SlottedPage body_page(body_guard.data());
    if (!body_page.Delete(body.slot)) {
      return Status::Corruption("dangling forwarding stub at " +
                                oid.ToString());
    }
    body_guard.MarkDirty();
    NoteFreeSpace(body.page_id);
  }
  --record_count_;
  return Status::OK();
}

Status RecordFile::Scan(
    const std::function<bool(const Oid&, const std::string&)>& fn) const {
  PageId current = first_page();
  std::string payload;
  const uint32_t window = pool_->read_ahead_window();
  size_t pos = 0;  // position of `current` in the chain
  std::vector<PageId> ahead_pages;
  std::vector<std::pair<Oid, std::string>> page_records;
  while (current != kInvalidPageId) {
    {
      MutexLock lock(chain_mu_);
      NoteChainPage(pos, current);
      // Read ahead: one window of upcoming chain pages per window of
      // progress. On the first scan after reopen the cache only reaches
      // the cursor, so nothing is prefetched — identical to window=0 —
      // and every later scan batches its reads. Copy the window out so
      // the prefetch itself runs without chain_mu_.
      if (window > 0 && pos % window == 0 && pos + 1 < chain_cache_.size()) {
        size_t ahead = std::min<size_t>(window, chain_cache_.size() - pos - 1);
        ahead_pages.assign(chain_cache_.begin() + pos + 1,
                           chain_cache_.begin() + pos + 1 + ahead);
      }
    }
    if (!ahead_pages.empty()) {
      FIELDREP_RETURN_IF_ERROR(pool_->Prefetch(ahead_pages));
      ahead_pages.clear();
    }
    // Collect the page's records under the (shared) latch, then run the
    // callbacks after releasing it: a callback may fetch other pages, and
    // readers must never block while holding a latch.
    page_records.clear();
    {
      PageGuard guard;
      FIELDREP_RETURN_IF_ERROR(
          pool_->FetchPage(current, &guard, LatchMode::kShared));
      SlottedPage page(guard.data());
      uint16_t n = page.slot_count();
      for (uint16_t slot = 0; slot < n; ++slot) {
        if (!page.IsLive(slot)) continue;
        if (!page.ReadString(slot, &payload)) continue;
        uint16_t kind = CellKind(payload);
        if (kind == kForwardTag) continue;  // body visited where it lives
        Oid oid(file_id_, current, slot);
        if (kind == kMovedTag) {
          oid = StubTarget(payload);  // logical oid embedded in the body
          payload.erase(0, 10);
        }
        page_records.emplace_back(oid, payload);
      }
      current = page.next_page();
    }
    for (const auto& [oid, record] : page_records) {
      if (!fn(oid, record)) return Status::OK();
    }
    ++pos;
  }
  // Walked the whole chain: the cache now covers it and AppendPage may
  // extend it incrementally.
  MutexLock lock(chain_mu_);
  chain_complete_ = true;
  return Status::OK();
}

Status RecordFile::ListOids(std::vector<Oid>* oids) const {
  oids->clear();
  return Scan([oids](const Oid& oid, const std::string&) {
    oids->push_back(oid);
    return true;
  });
}

Status RecordFile::Truncate() {
  PageId current = first_page();
  while (current != kInvalidPageId) {
    PageGuard guard;
    FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(current, &guard));
    SlottedPage page(guard.data());
    PageId next = page.next_page();
    SlottedPage::Init(guard.data(), PageType::kFree);
    guard.MarkDirty();
    current = next;
  }
  first_page_.store(kInvalidPageId, std::memory_order_relaxed);
  last_page_.store(kInvalidPageId, std::memory_order_relaxed);
  page_count_.store(0, std::memory_order_relaxed);
  record_count_.store(0, std::memory_order_relaxed);
  free_hints_.clear();
  MutexLock lock(chain_mu_);
  chain_cache_.clear();
  chain_complete_ = true;
  return Status::OK();
}

std::string RecordFile::EncodeMetadata() const {
  std::string out;
  PutU32(&out, first_page());
  PutU32(&out, last_page());
  PutU32(&out, page_count());
  PutU64(&out, record_count());
  return out;
}

Status RecordFile::DecodeMetadata(const std::string& encoded) {
  ByteReader reader(encoded);
  uint32_t first, last, pages;
  uint64_t records;
  if (!reader.GetU32(&first) || !reader.GetU32(&last) ||
      !reader.GetU32(&pages) || !reader.GetU64(&records)) {
    return Status::Corruption("bad RecordFile metadata");
  }
  first_page_.store(first, std::memory_order_relaxed);
  last_page_.store(last, std::memory_order_relaxed);
  page_count_.store(pages, std::memory_order_relaxed);
  record_count_.store(records, std::memory_order_relaxed);
  // The chain must be rediscovered by walking it; the first Scan does so.
  MutexLock lock(chain_mu_);
  chain_cache_.clear();
  chain_complete_ = (first == kInvalidPageId);
  return Status::OK();
}

}  // namespace fieldrep
