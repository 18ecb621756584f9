#include "storage/fault_injecting_device.h"

#include <cstring>

#include "common/strings.h"

namespace fieldrep {

namespace {
Status CrashedStatus() {
  return Status::IOError("simulated power failure");
}
}  // namespace

bool FaultInjectingDevice::ChargeOp(bool* torn) {
  *torn = false;
  if (plan_->crashed) return false;
  ++plan_->ops_seen;
  if (plan_->writes_until_crash != 0 &&
      plan_->ops_seen >= plan_->writes_until_crash) {
    plan_->crashed = true;
    *torn = plan_->torn_final_write;
    return false;
  }
  return true;
}

Status FaultInjectingDevice::ReadPage(PageId page_id, void* buf) {
  if (plan_->crashed) return CrashedStatus();
  if (page_id == plan_->failing_read_page) {
    return Status::IOError(
        StringPrintf("injected read failure on page %u", page_id));
  }
  return base_->ReadPage(page_id, buf);
}

Status FaultInjectingDevice::WritePage(PageId page_id, const void* buf) {
  if (page_id == plan_->failing_write_page && !plan_->crashed) {
    return Status::IOError(
        StringPrintf("injected write failure on page %u", page_id));
  }
  bool torn = false;
  if (!ChargeOp(&torn)) {
    if (torn && page_id < base_->page_count()) {
      // Persist the first half of the new page over the old content —
      // the classic torn write a power cut can leave behind.
      uint8_t mixed[kPageSize];
      if (base_->ReadPage(page_id, mixed).ok()) {
        std::memcpy(mixed, buf, kPageSize / 2);
        base_->WritePage(page_id, mixed).ok();
      }
    }
    return CrashedStatus();
  }
  return base_->WritePage(page_id, buf);
}

Status FaultInjectingDevice::AllocatePage(PageId* page_id) {
  bool torn = false;
  if (!ChargeOp(&torn)) return CrashedStatus();
  return base_->AllocatePage(page_id);
}

Status FaultInjectingDevice::Sync() {
  bool torn = false;
  if (!ChargeOp(&torn)) return CrashedStatus();
  return base_->Sync();
}

}  // namespace fieldrep
