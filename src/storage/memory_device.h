#ifndef FIELDREP_STORAGE_MEMORY_DEVICE_H_
#define FIELDREP_STORAGE_MEMORY_DEVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/annotated_mutex.h"
#include "storage/storage_device.h"

namespace fieldrep {

/// \brief RAM-backed storage device.
///
/// Pages are stored in individually allocated 4 KiB blocks so that page
/// addresses stay stable as the device grows. A mutex guards the page
/// vector itself (it reallocates on growth); concurrent reads of distinct
/// pages copy from the stable blocks, and the buffer pool never issues
/// two concurrent transfers of the same page (single-flight installs,
/// in-flight markers during writeback), so per-page serialization is the
/// pool's job, not the device's.
class MemoryDevice : public StorageDevice {
 public:
  MemoryDevice() = default;

  MemoryDevice(const MemoryDevice&) = delete;
  MemoryDevice& operator=(const MemoryDevice&) = delete;

  Status ReadPage(PageId page_id, void* buf) override;
  Status WritePage(PageId page_id, const void* buf) override;
  Status AllocatePage(PageId* page_id) override;
  uint32_t page_count() const override {
    MutexLock lock(mu_);
    return static_cast<uint32_t>(pages_.size());
  }

 private:
  /// Returns the block for `page_id`, or nullptr if unallocated.
  uint8_t* PageBlock(PageId page_id) const;

  /// kDevice is a leaf rank: pool write-back and WAL log writes reach the
  /// device with victim/log locks held, and the device calls nothing back.
  mutable Mutex mu_{LockRank::kDevice, "memory_device.mu"};
  std::vector<std::unique_ptr<uint8_t[]>> pages_ GUARDED_BY(mu_);
};

/// Copies every page of the file at `path` into a fresh MemoryDevice, so a
/// tool can open a database over the copy and leave the file untouched.
/// NotFound when no file exists at `path` (none is created).
Result<std::unique_ptr<MemoryDevice>> SnapshotFileToMemory(
    const std::string& path);

}  // namespace fieldrep

#endif  // FIELDREP_STORAGE_MEMORY_DEVICE_H_
