#include "storage/slotted_page.h"

#include <cassert>
#include <cstring>
#include <vector>

#include "check/invariant.h"
#include "common/bytes.h"

namespace fieldrep {

void SlottedPage::Init(uint8_t* data, PageType type) {
  std::memset(data, 0, kPageSize);
  EncodeU16(data + kTypeOffset, static_cast<uint16_t>(type));
  EncodeU16(data + kSlotCountOffset, 0);
  EncodeU16(data + kCellStartOffset, static_cast<uint16_t>(kPageSize));
  EncodeU16(data + kLiveCountOffset, 0);
  EncodeU32(data + kNextPageOffset, kInvalidPageId);
  EncodeU32(data + kPrevPageOffset, kInvalidPageId);
  EncodeU16(data + kFragBytesOffset, 0);
}

PageType SlottedPage::page_type() const {
  return static_cast<PageType>(DecodeU16(data_ + kTypeOffset));
}

uint16_t SlottedPage::slot_count() const {
  return DecodeU16(data_ + kSlotCountOffset);
}

uint16_t SlottedPage::live_count() const {
  return DecodeU16(data_ + kLiveCountOffset);
}

PageId SlottedPage::next_page() const {
  return DecodeU32(data_ + kNextPageOffset);
}

void SlottedPage::set_next_page(PageId id) {
  EncodeU32(data_ + kNextPageOffset, id);
}

PageId SlottedPage::prev_page() const {
  return DecodeU32(data_ + kPrevPageOffset);
}

void SlottedPage::set_prev_page(PageId id) {
  EncodeU32(data_ + kPrevPageOffset, id);
}

uint16_t SlottedPage::cell_start() const {
  return DecodeU16(data_ + kCellStartOffset);
}

void SlottedPage::set_cell_start(uint16_t v) {
  EncodeU16(data_ + kCellStartOffset, v);
}

uint16_t SlottedPage::frag_bytes() const {
  return DecodeU16(data_ + kFragBytesOffset);
}

void SlottedPage::set_frag_bytes(uint16_t v) {
  EncodeU16(data_ + kFragBytesOffset, v);
}

void SlottedPage::set_slot_count(uint16_t v) {
  EncodeU16(data_ + kSlotCountOffset, v);
}

void SlottedPage::set_live_count(uint16_t v) {
  EncodeU16(data_ + kLiveCountOffset, v);
}

uint16_t SlottedPage::SlotOffset(uint16_t slot) const {
  return DecodeU16(data_ + kPageHeaderBytes + slot * kSlotBytes);
}

uint16_t SlottedPage::SlotLength(uint16_t slot) const {
  return DecodeU16(data_ + kPageHeaderBytes + slot * kSlotBytes + 2);
}

void SlottedPage::SetSlot(uint16_t slot, uint16_t offset, uint16_t length) {
  EncodeU16(data_ + kPageHeaderBytes + slot * kSlotBytes, offset);
  EncodeU16(data_ + kPageHeaderBytes + slot * kSlotBytes + 2, length);
}

uint16_t SlottedPage::FindFreeSlot() const {
  uint16_t n = slot_count();
  for (uint16_t i = 0; i < n; ++i) {
    if (SlotOffset(i) == 0) return i;
  }
  return n;
}

uint32_t SlottedPage::FreeSpace() const {
  int64_t directory_end =
      kPageHeaderBytes + static_cast<int64_t>(slot_count()) * kSlotBytes;
  int64_t contiguous = static_cast<int64_t>(cell_start()) - directory_end;
  if (contiguous < 0) contiguous = 0;
  return static_cast<uint32_t>(contiguous + frag_bytes());
}

bool SlottedPage::HasRoomFor(uint32_t size) const {
  // Conservatively assume a new slot entry is needed.
  uint32_t need = size + kSlotBytes;
  return FreeSpace() >= need;
}

int SlottedPage::Insert(const uint8_t* payload, uint32_t size) {
  if (size > kPageSize) return -1;
  uint16_t slot = FindFreeSlot();
  bool new_slot = (slot == slot_count());
  // Signed arithmetic: the prospective directory can extend past
  // cell_start when the page is full.
  int64_t directory_end =
      kPageHeaderBytes +
      (static_cast<int64_t>(slot_count()) + (new_slot ? 1 : 0)) * kSlotBytes;
  int64_t contiguous = static_cast<int64_t>(cell_start()) - directory_end;
  if (contiguous < size) {
    int64_t total_free = contiguous + frag_bytes();
    if (total_free < size) return -1;
    Compact();
    directory_end = kPageHeaderBytes +
                    (static_cast<int64_t>(slot_count()) + (new_slot ? 1 : 0)) *
                        kSlotBytes;
    contiguous = static_cast<int64_t>(cell_start()) - directory_end;
    if (contiguous < size) return -1;
  }
  uint16_t offset = static_cast<uint16_t>(cell_start() - size);
  std::memcpy(data_ + offset, payload, size);
  set_cell_start(offset);
  if (new_slot) set_slot_count(slot_count() + 1);
  SetSlot(slot, offset, static_cast<uint16_t>(size));
  set_live_count(live_count() + 1);
  FIELDREP_INVARIANT(
      kPageHeaderBytes + slot_count() * kSlotBytes <= cell_start(),
      "slot directory ran into the cell area");
  return slot;
}

bool SlottedPage::IsLive(uint16_t slot) const {
  return slot < slot_count() && SlotOffset(slot) != 0;
}

bool SlottedPage::CellInBounds(uint16_t slot) const {
  const uint32_t directory_end =
      kPageHeaderBytes + static_cast<uint32_t>(slot_count()) * kSlotBytes;
  const uint32_t offset = SlotOffset(slot);
  return offset >= directory_end && offset + SlotLength(slot) <= kPageSize;
}

const uint8_t* SlottedPage::Read(uint16_t slot, uint32_t* size) const {
  if (!IsLive(slot) || !CellInBounds(slot)) return nullptr;
  *size = SlotLength(slot);
  return data_ + SlotOffset(slot);
}

bool SlottedPage::ReadString(uint16_t slot, std::string* out) const {
  uint32_t size;
  const uint8_t* p = Read(slot, &size);
  if (p == nullptr) return false;
  out->assign(reinterpret_cast<const char*>(p), size);
  return true;
}

bool SlottedPage::Update(uint16_t slot, const uint8_t* payload,
                         uint32_t size) {
  if (!IsLive(slot)) return false;
  uint16_t old_len = SlotLength(slot);
  if (size <= old_len) {
    // Shrink / same size in place; the tail of the old cell becomes
    // fragmentation.
    std::memcpy(data_ + SlotOffset(slot), payload, size);
    SetSlot(slot, SlotOffset(slot), static_cast<uint16_t>(size));
    set_frag_bytes(static_cast<uint16_t>(frag_bytes() + (old_len - size)));
    return true;
  }
  // Growth: free the old cell, then insert the new payload. Keep the slot
  // index stable.
  uint32_t directory_end =
      kPageHeaderBytes + static_cast<uint32_t>(slot_count()) * kSlotBytes;
  uint32_t contiguous = cell_start() - directory_end;
  uint32_t total_free = contiguous + frag_bytes() + old_len;
  if (total_free < size) return false;
  set_frag_bytes(static_cast<uint16_t>(frag_bytes() + old_len));
  SetSlot(slot, 0, 0);  // temporarily dead so Compact skips it
  if (cell_start() - directory_end < size) {
    Compact();
    directory_end =
        kPageHeaderBytes + static_cast<uint32_t>(slot_count()) * kSlotBytes;
  }
  assert(cell_start() - directory_end >= size);
  uint16_t offset = static_cast<uint16_t>(cell_start() - size);
  std::memcpy(data_ + offset, payload, size);
  set_cell_start(offset);
  SetSlot(slot, offset, static_cast<uint16_t>(size));
  return true;
}

bool SlottedPage::Delete(uint16_t slot) {
  if (!IsLive(slot)) return false;
  set_frag_bytes(static_cast<uint16_t>(frag_bytes() + SlotLength(slot)));
  SetSlot(slot, 0, 0);
  set_live_count(live_count() - 1);
  // Trailing tombstoned slots can be returned to the directory.
  uint16_t n = slot_count();
  while (n > 0 && SlotOffset(n - 1) == 0) --n;
  set_slot_count(n);
  FIELDREP_INVARIANT(live_count() <= slot_count(),
                     "more live records than directory slots");
  return true;
}

void SlottedPage::Compact() {
  struct LiveCell {
    uint16_t slot;
    uint16_t offset;
    uint16_t length;
  };
  std::vector<LiveCell> cells;
  uint16_t n = slot_count();
  cells.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    if (SlotOffset(i) != 0) cells.push_back({i, SlotOffset(i), SlotLength(i)});
  }
  // Copy live payloads out, then re-pack them against the end of the page.
  std::vector<uint8_t> scratch(kPageSize);
  uint32_t pos = kPageSize;
  for (const LiveCell& cell : cells) {
    pos -= cell.length;
    std::memcpy(scratch.data() + pos, data_ + cell.offset, cell.length);
  }
  std::memcpy(data_ + pos, scratch.data() + pos, kPageSize - pos);
  uint32_t cursor = kPageSize;
  for (const LiveCell& cell : cells) {
    cursor -= cell.length;
    SetSlot(cell.slot, static_cast<uint16_t>(cursor), cell.length);
  }
  set_cell_start(static_cast<uint16_t>(pos));
  set_frag_bytes(0);
  FIELDREP_INVARIANT(
      kPageHeaderBytes + slot_count() * kSlotBytes <= cell_start(),
      "compaction produced an overlapping layout");
}

}  // namespace fieldrep
