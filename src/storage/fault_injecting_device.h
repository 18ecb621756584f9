#ifndef FIELDREP_STORAGE_FAULT_INJECTING_DEVICE_H_
#define FIELDREP_STORAGE_FAULT_INJECTING_DEVICE_H_

#include <cstdint>

#include "storage/storage_device.h"

namespace fieldrep {

/// \brief Shared crash schedule for one or more FaultInjectingDevices.
///
/// Crash-recovery tests wrap both the database device and the log device
/// around one plan, so "crash after the k-th durable operation" counts
/// operations across the two devices in the order the engine issues them
/// — exactly the boundaries at which a real machine could lose power.
struct FaultPlan {
  /// Durable operations (WritePage / AllocatePage / Sync) to allow before
  /// the crash. 0 means no crash is scheduled.
  uint64_t writes_until_crash = 0;
  /// When true, the operation that trips the crash is a WritePage whose
  /// first half reaches the device and second half does not (a torn
  /// page), instead of failing cleanly.
  bool torn_final_write = false;
  /// Writes to this page fail cleanly (a bad sector, not a crash): the
  /// page keeps its old bytes and every other operation proceeds.
  PageId failing_write_page = kInvalidPageId;
  /// Reads of this page fail cleanly (an unreadable sector): every other
  /// operation proceeds.
  PageId failing_read_page = kInvalidPageId;

  /// True once the crash has tripped; every later operation fails.
  bool crashed = false;
  /// Durable operations observed so far.
  uint64_t ops_seen = 0;

  /// Arms a crash after `n` more durable operations.
  void Arm(uint64_t n, bool torn = false) {
    writes_until_crash = n;
    torn_final_write = torn;
    crashed = false;
    ops_seen = 0;
  }

  /// "Reboots the machine": clears the crashed state (the underlying
  /// devices keep whatever data survived) and disarms the schedule.
  void Reset() {
    writes_until_crash = 0;
    torn_final_write = false;
    failing_write_page = kInvalidPageId;
    failing_read_page = kInvalidPageId;
    crashed = false;
    ops_seen = 0;
  }
};

/// \brief StorageDevice decorator that simulates a power failure.
///
/// Reads pass through until the crash trips (after it, the "machine" is
/// down and everything fails). Durable operations count against the
/// shared FaultPlan; the one that exhausts the budget either fails
/// cleanly or — for torn-write schedules — persists only the first half
/// of the page before failing, modelling a sector-aligned torn write.
class FaultInjectingDevice : public StorageDevice {
 public:
  /// Neither pointer is owned. Several devices may share one `plan`.
  FaultInjectingDevice(StorageDevice* base, FaultPlan* plan)
      : base_(base), plan_(plan) {}

  Status ReadPage(PageId page_id, void* buf) override;
  Status WritePage(PageId page_id, const void* buf) override;
  Status AllocatePage(PageId* page_id) override;
  Status Sync() override;
  uint32_t page_count() const override { return base_->page_count(); }

 private:
  /// Charges one durable operation. Returns false if the machine is (or
  /// has just gone) down; `*torn` is set when the caller should perform
  /// a half write before failing.
  bool ChargeOp(bool* torn);

  StorageDevice* base_;
  FaultPlan* plan_;
};

}  // namespace fieldrep

#endif  // FIELDREP_STORAGE_FAULT_INJECTING_DEVICE_H_
