#ifndef FIELDREP_STORAGE_SLOTTED_PAGE_H_
#define FIELDREP_STORAGE_SLOTTED_PAGE_H_

#include <cstdint>
#include <string>

#include "storage/page.h"

namespace fieldrep {

/// Page types stored in the page header so that a raw page can be
/// interpreted safely.
enum class PageType : uint16_t {
  kFree = 0,
  kHeap = 1,
  kBTreeLeaf = 2,
  kBTreeInternal = 3,
  /// Database checkpoint-blob page (see Database::WriteStateToMetaPages):
  /// a 40-byte header followed by one raw chunk of the catalog/state blob.
  kMeta = 4,
};

/// \brief Non-owning view over one 4 KiB page laid out as a slotted page.
///
/// Layout:
///   [0, kPageHeaderBytes)            page header (type, slot count, links)
///   [kPageHeaderBytes, ...)          slot directory, 4 bytes per slot
///   [cell_start, kPageSize)          record payloads, growing downward
///
/// Slot indices are stable for the lifetime of a record (OIDs embed them);
/// deleted slots are tombstoned and reused by later inserts. Records may
/// shrink in place; growth triggers in-page compaction when the total free
/// space suffices, and otherwise fails so the caller can relocate.
class SlottedPage {
 public:
  /// Wraps existing page memory. The caller keeps `data` alive and, when
  /// mutating, marks the buffer-pool frame dirty.
  explicit SlottedPage(uint8_t* data) : data_(data) {}

  /// Formats `data` as an empty slotted page of the given type.
  static void Init(uint8_t* data, PageType type);

  PageType page_type() const;
  uint16_t slot_count() const;
  /// Number of live (non-tombstoned) records.
  uint16_t live_count() const;
  PageId next_page() const;
  void set_next_page(PageId id);
  PageId prev_page() const;
  void set_prev_page(PageId id);

  /// Bytes available for a new record, assuming it may need a new slot
  /// directory entry and counting reclaimable fragmentation.
  uint32_t FreeSpace() const;

  /// True if a record of `size` bytes can be inserted.
  bool HasRoomFor(uint32_t size) const;

  /// Inserts a record; returns the slot index or -1 if there is no room.
  int Insert(const uint8_t* payload, uint32_t size);
  int Insert(const std::string& payload) {
    return Insert(reinterpret_cast<const uint8_t*>(payload.data()),
                  static_cast<uint32_t>(payload.size()));
  }

  /// True if `slot` holds a live record.
  bool IsLive(uint16_t slot) const;

  /// True if live `slot`'s cell lies inside the cell area, between the end
  /// of the slot directory and the end of the page. False means the slot
  /// directory is corrupt.
  bool CellInBounds(uint16_t slot) const;

  /// Returns a pointer to the record payload and its size, or nullptr if
  /// the slot is out of range, tombstoned, or its cell is out of bounds.
  const uint8_t* Read(uint16_t slot, uint32_t* size) const;

  /// Copies the record payload into `out`; false on a dead slot.
  bool ReadString(uint16_t slot, std::string* out) const;

  /// Replaces the record in `slot`. Returns false when the page cannot hold
  /// the new size even after compaction (caller must relocate the record).
  bool Update(uint16_t slot, const uint8_t* payload, uint32_t size);
  bool Update(uint16_t slot, const std::string& payload) {
    return Update(slot, reinterpret_cast<const uint8_t*>(payload.data()),
                  static_cast<uint32_t>(payload.size()));
  }

  /// Tombstones the record in `slot`. Returns false on a dead slot.
  bool Delete(uint16_t slot);

  /// Rewrites the cell area to squeeze out fragmentation.
  void Compact();

  // Read-only structural accessors used by the integrity checker
  // (src/check) to validate the slot directory and free-space accounting
  // without going through the record API.
  uint16_t cell_start() const;
  uint16_t frag_bytes() const;
  /// Raw slot-directory entry; offset 0 marks a tombstoned slot. The caller
  /// must keep `slot < slot_count()`.
  uint16_t SlotOffset(uint16_t slot) const;
  uint16_t SlotLength(uint16_t slot) const;

 private:
  // Header field offsets (see layout comment above).
  static constexpr uint32_t kTypeOffset = 0;       // u16
  static constexpr uint32_t kSlotCountOffset = 2;  // u16
  static constexpr uint32_t kCellStartOffset = 4;  // u16
  static constexpr uint32_t kLiveCountOffset = 6;  // u16
  static constexpr uint32_t kNextPageOffset = 8;   // u32
  static constexpr uint32_t kPrevPageOffset = 12;  // u32
  static constexpr uint32_t kFragBytesOffset = 16; // u16

  static constexpr uint32_t kSlotBytes = 4;  // u16 offset + u16 length

  void set_cell_start(uint16_t v);
  void set_frag_bytes(uint16_t v);
  void set_slot_count(uint16_t v);
  void set_live_count(uint16_t v);

  void SetSlot(uint16_t slot, uint16_t offset, uint16_t length);

  /// First tombstoned slot index, or slot_count() if none.
  uint16_t FindFreeSlot() const;

  uint8_t* data_;
};

}  // namespace fieldrep

#endif  // FIELDREP_STORAGE_SLOTTED_PAGE_H_
