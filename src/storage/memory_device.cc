#include "storage/memory_device.h"

#include <sys/stat.h>

#include <cstring>

#include "common/strings.h"
#include "storage/file_device.h"

namespace fieldrep {

uint8_t* MemoryDevice::PageBlock(PageId page_id) const {
  // The lock covers only the vector access: block addresses are stable,
  // so the copy itself runs unlocked.
  MutexLock lock(mu_);
  if (page_id >= pages_.size()) return nullptr;
  return pages_[page_id].get();
}

Status MemoryDevice::ReadPage(PageId page_id, void* buf) {
  uint8_t* block = PageBlock(page_id);
  if (block == nullptr) {
    return Status::OutOfRange(
        StringPrintf("read of unallocated page %u", page_id));
  }
  std::memcpy(buf, block, kPageSize);
  return Status::OK();
}

Status MemoryDevice::WritePage(PageId page_id, const void* buf) {
  uint8_t* block = PageBlock(page_id);
  if (block == nullptr) {
    return Status::OutOfRange(
        StringPrintf("write of unallocated page %u", page_id));
  }
  std::memcpy(block, buf, kPageSize);
  return Status::OK();
}

Status MemoryDevice::AllocatePage(PageId* page_id) {
  auto page = std::make_unique<uint8_t[]>(kPageSize);
  std::memset(page.get(), 0, kPageSize);
  MutexLock lock(mu_);
  pages_.push_back(std::move(page));
  *page_id = static_cast<PageId>(pages_.size() - 1);
  return Status::OK();
}

Result<std::unique_ptr<MemoryDevice>> SnapshotFileToMemory(
    const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound("no such file");
  }
  FileDevice file;
  FIELDREP_RETURN_IF_ERROR(file.Open(path));
  auto mem = std::make_unique<MemoryDevice>();
  PageBuffer buf = AllocatePageBuffer();
  for (PageId page = 0; page < file.page_count(); ++page) {
    FIELDREP_RETURN_IF_ERROR(file.ReadPage(page, buf.get()));
    PageId copy_id = 0;
    FIELDREP_RETURN_IF_ERROR(mem->AllocatePage(&copy_id));
    FIELDREP_RETURN_IF_ERROR(mem->WritePage(copy_id, buf.get()));
  }
  FIELDREP_RETURN_IF_ERROR(file.Close());
  return mem;
}

}  // namespace fieldrep
