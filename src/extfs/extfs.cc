#include "src/extfs/extfs.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/driver/host_costs.h"
#include "src/metrics/metrics.h"
#include "src/trace/tracer.h"
#include "src/jbd2/jbd2.h"
#include "src/mqfs/mq_journal.h"
#include "src/nvm/nvlog.h"

namespace ccnvme {

namespace {

constexpr size_t kDirEntrySize = 64;
constexpr size_t kDirEntriesPerBlock = kFsBlockSize / kDirEntrySize;
constexpr size_t kMaxNameLen = 57;

struct RawDirEntry {
  InodeNum ino = kInvalidInode;
  FileType type = FileType::kNone;
  std::string name;

  void Serialize(std::span<uint8_t> out) const {
    std::memset(out.data(), 0, kDirEntrySize);
    PutU32(out, 0, ino);
    out[4] = static_cast<uint8_t>(std::min(name.size(), kMaxNameLen));
    out[5] = static_cast<uint8_t>(type);
    PutString(out, 6, kMaxNameLen, name);
  }
  static RawDirEntry Parse(std::span<const uint8_t> in) {
    RawDirEntry e;
    e.ino = GetU32(in, 0);
    e.type = static_cast<FileType>(in[5]);
    const size_t len = std::min<size_t>(in[4], kMaxNameLen);
    e.name = std::string(reinterpret_cast<const char*>(in.data()) + 6, len);
    return e;
  }
};

std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '/') {
      if (!cur.empty()) {
        parts.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) {
    parts.push_back(cur);
  }
  return parts;
}

}  // namespace

ExtFs::ExtFs(Simulator* sim, BlockLayer* blk, const ExtFsOptions& options)
    : sim_(sim),
      blk_(blk),
      options_(options),
      cache_(sim, blk),
      inode_cache_mu_(sim) {}

ExtFs::~ExtFs() = default;

void ExtFs::LockForUpdate(const BlockBufPtr& buf) {
  Simulator::Sleep(kFsPageLockNs);
  buf->lock.Lock();
  while (buf->writeback) {
    buf->wb_cv.Wait(buf->lock);
  }
}

// ---------------------------------------------------------------------------
// mkfs / mount / unmount

Status ExtFs::Mkfs(Simulator* sim, BlockLayer* blk, uint64_t total_blocks,
                   const ExtFsOptions& options) {
  (void)sim;
  FsLayout layout;
  layout.total_blocks = total_blocks;
  layout.journal_areas = options.journal_areas;
  layout.journal_blocks = options.journal_blocks;
  CCNVME_CHECK_GT(layout.data_blocks(), 0u) << "device too small for this layout";
  CCNVME_CHECK_GE(layout.blocks_per_area(), 64u) << "journal areas too small";

  Buffer zero(kFsBlockSize, 0);

  // Inode bitmap: inodes 0 (reserved) and 1 (root) in use.
  Buffer ibm = zero;
  ibm[0] = 0x3;
  CCNVME_RETURN_IF_ERROR(blk->WriteSync(layout.inode_bitmap(), ibm));

  // Block bitmap: all free.
  for (uint64_t i = 0; i < layout.block_bitmap_blocks(); ++i) {
    CCNVME_RETURN_IF_ERROR(blk->WriteSync(layout.block_bitmap_start() + i, zero));
  }

  // Root inode.
  Buffer itable = zero;
  DiskInode root;
  root.type = FileType::kDirectory;
  root.nlink = 2;
  root.size = 0;
  root.Serialize(std::span<uint8_t>(itable).subspan(layout.InodeOffsetInBlock(kRootInode),
                                                    kInodeSize));
  CCNVME_RETURN_IF_ERROR(blk->WriteSync(layout.InodeTableBlock(kRootInode), itable));

  // Journal area superblocks.
  for (uint32_t a = 0; a < layout.journal_areas; ++a) {
    AreaSuperblock asb;
    asb.start_offset = 1;
    asb.cleared_txid = 0;
    Buffer blkbuf(kFsBlockSize, 0);
    asb.Serialize(blkbuf);
    CCNVME_RETURN_IF_ERROR(blk->WriteSync(layout.area_start(a), blkbuf));
  }

  // Superblock last, with a flush so mkfs is durable.
  Superblock sb;
  sb.total_blocks = total_blocks;
  sb.journal_areas = options.journal_areas;
  sb.journal_blocks = options.journal_blocks;
  sb.dirty_mount = 0;
  sb.journal = options.journal;
  Buffer sbbuf(kFsBlockSize, 0);
  sb.Serialize(sbbuf);
  CCNVME_RETURN_IF_ERROR(blk->WriteSync(0, sbbuf, kBioPreflush | kBioFua));
  return OkStatus();
}

Status ExtFs::Mount() {
  CCNVME_CHECK(!mounted_);
  Buffer sbbuf;
  CCNVME_RETURN_IF_ERROR(blk_->ReadSync(0, 1, &sbbuf));
  CCNVME_ASSIGN_OR_RETURN(Superblock sb, Superblock::Parse(sbbuf));
  if (sb.journal != options_.journal) {
    return InvalidArgument(std::string("image is formatted for the ") +
                           JournalKindName(sb.journal) + " journal, not " +
                           JournalKindName(options_.journal));
  }
  layout_ = sb.ToLayout();
  alloc_ = std::make_unique<Allocator>(&cache_, layout_);

  switch (options_.journal) {
    case JournalKind::kNone:
      journal_ = std::make_unique<NullJournal>(sim_, blk_, &cache_);
      break;
    case JournalKind::kClassic:
    case JournalKind::kHorae:
    case JournalKind::kCcNvmeJbd2: {
      Jbd2Options jopts;
      jopts.horae = options_.journal == JournalKind::kHorae;
      jopts.over_ccnvme = options_.journal == JournalKind::kCcNvmeJbd2;
      journal_ = std::make_unique<Jbd2Journal>(sim_, blk_, &cache_, layout_, this, jopts);
      break;
    }
    case JournalKind::kMultiQueue: {
      MqJournalOptions mopts;
      mopts.shadow_paging = options_.metadata_shadow_paging;
      mopts.test_skip_psq_window_scan = options_.test_skip_psq_window_scan;
      journal_ = std::make_unique<MqJournal>(sim_, blk_, &cache_, layout_, this, mopts);
      break;
    }
    case JournalKind::kNvlog: {
      CCNVME_CHECK(blk_->nvm() != nullptr)
          << "JournalKind::kNvlog needs an NVM tier (StackConfig::nvm)";
      NvLogOptions nopts;
      nopts.drain_batch = options_.nvlog_drain_batch;
      nopts.drain_delay_ns = options_.nvlog_drain_delay_ns;
      nopts.drainers = options_.nvlog_drainers;
      nopts.test_skip_fence = options_.test_skip_nvlog_fence;
      journal_ = std::make_unique<NvLogJournal>(sim_, blk_, blk_->nvm(), this, nopts);
      break;
    }
  }

  if (sb.dirty_mount != 0) {
    CCNVME_RETURN_IF_ERROR(journal_->Recover());
    // Recovery wrote home blocks in place; drop cached copies so reads see
    // the recovered bytes.
    cache_.Clear();
    inode_cache_.clear();
  }

  sb.dirty_mount = 1;
  Buffer out(kFsBlockSize, 0);
  sb.Serialize(out);
  CCNVME_RETURN_IF_ERROR(blk_->WriteSync(0, out, kBioPreflush | kBioFua));
  mounted_ = true;
  return OkStatus();
}

Status ExtFs::Unmount() {
  CCNVME_CHECK(mounted_);
  CCNVME_RETURN_IF_ERROR(journal_->Shutdown());
  // Write back any remaining dirty cached blocks (metadata checkpointed by
  // the journal already; this covers never-synced data).
  for (InodeNum ino : [&] {
         std::vector<InodeNum> inos;
         for (auto& [num, inode] : inode_cache_) {
           (void)inode;
           inos.push_back(num);
         }
         return inos;
       }()) {
    auto inode = inode_cache_[ino];
    if (inode->dirty || !inode->dirty_data.empty() || !inode->dirty_metadata.empty()) {
      CCNVME_RETURN_IF_ERROR(Fsync(ino));
    }
  }
  CCNVME_RETURN_IF_ERROR(journal_->Shutdown());
  journal_->StopActors();

  Buffer sbbuf;
  CCNVME_RETURN_IF_ERROR(blk_->ReadSync(0, 1, &sbbuf));
  CCNVME_ASSIGN_OR_RETURN(Superblock sb, Superblock::Parse(sbbuf));
  sb.dirty_mount = 0;
  Buffer out(kFsBlockSize, 0);
  sb.Serialize(out);
  CCNVME_RETURN_IF_ERROR(blk_->WriteSync(0, out, kBioPreflush | kBioFua));
  mounted_ = false;
  cache_.Clear();
  inode_cache_.clear();
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Inode handling

Result<InodePtr> ExtFs::GetInode(InodeNum ino) {
  {
    SimLockGuard guard(inode_cache_mu_);
    auto it = inode_cache_.find(ino);
    if (it != inode_cache_.end()) {
      return it->second;
    }
  }
  CCNVME_ASSIGN_OR_RETURN(BlockBufPtr buf, cache_.GetBlock(layout_.InodeTableBlock(ino)));
  auto inode = std::make_shared<Inode>(sim_, ino);
  inode->disk = DiskInode::Parse(
      std::span<const uint8_t>(buf->data).subspan(layout_.InodeOffsetInBlock(ino), kInodeSize));
  if (inode->disk.type == FileType::kNone) {
    return NotFound("inode " + std::to_string(ino) + " not allocated");
  }
  inode->size_at_last_sync = inode->disk.size;
  SimLockGuard guard(inode_cache_mu_);
  auto [it, inserted] = inode_cache_.emplace(ino, inode);
  return it->second;
}

Result<BlockBufPtr> ExtFs::FlushInodeToTable(const InodePtr& inode) {
  CCNVME_ASSIGN_OR_RETURN(BlockBufPtr buf, cache_.GetBlock(layout_.InodeTableBlock(inode->ino)));
  LockForUpdate(buf);
  inode->disk.Serialize(std::span<uint8_t>(buf->data)
                            .subspan(layout_.InodeOffsetInBlock(inode->ino), kInodeSize));
  buf->dirty = true;
  inode->dirty = false;
  buf->lock.Unlock();
  return buf;
}

// ---------------------------------------------------------------------------
// Path resolution

Result<InodePtr> ExtFs::ResolvePath(const std::string& path) {
  CCNVME_ASSIGN_OR_RETURN(InodePtr cur, GetInode(kRootInode));
  for (const std::string& part : SplitPath(path)) {
    if (cur->disk.type != FileType::kDirectory) {
      return NotFound("not a directory on path: " + path);
    }
    CCNVME_ASSIGN_OR_RETURN(InodeNum next, DirLookup(cur, part));
    CCNVME_ASSIGN_OR_RETURN(cur, GetInode(next));
  }
  return cur;
}

Result<InodePtr> ExtFs::ResolveParent(const std::string& path, std::string* leaf) {
  std::vector<std::string> parts = SplitPath(path);
  if (parts.empty()) {
    return InvalidArgument("path has no leaf: " + path);
  }
  *leaf = parts.back();
  CCNVME_ASSIGN_OR_RETURN(InodePtr cur, GetInode(kRootInode));
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    if (cur->disk.type != FileType::kDirectory) {
      return NotFound("not a directory on path: " + path);
    }
    CCNVME_ASSIGN_OR_RETURN(InodeNum next, DirLookup(cur, parts[i]));
    CCNVME_ASSIGN_OR_RETURN(cur, GetInode(next));
  }
  if (cur->disk.type != FileType::kDirectory) {
    return NotFound("parent is not a directory: " + path);
  }
  return cur;
}

// ---------------------------------------------------------------------------
// Directory blocks

Result<InodeNum> ExtFs::DirLookup(const InodePtr& dir, const std::string& name) {
  const uint64_t nblocks = (dir->disk.size + kFsBlockSize - 1) / kFsBlockSize;
  for (uint64_t b = 0; b < nblocks; ++b) {
    CCNVME_ASSIGN_OR_RETURN(BlockNo lba, FileBlock(dir, b, /*allocate=*/false, nullptr));
    CCNVME_ASSIGN_OR_RETURN(BlockBufPtr buf, cache_.GetBlock(lba));
    for (size_t e = 0; e < kDirEntriesPerBlock; ++e) {
      const RawDirEntry entry = RawDirEntry::Parse(
          std::span<const uint8_t>(buf->data).subspan(e * kDirEntrySize, kDirEntrySize));
      if (entry.ino != kInvalidInode && entry.name == name) {
        return entry.ino;
      }
    }
  }
  return NotFound("no entry '" + name + "'");
}

Status ExtFs::DirAdd(const InodePtr& dir, const std::string& name, InodeNum ino, FileType type,
                     std::set<BlockNo>* touched) {
  if (name.size() > kMaxNameLen) {
    return InvalidArgument("name too long: " + name);
  }
  Simulator::Sleep(kFsDirUpdateNs);
  RawDirEntry entry;
  entry.ino = ino;
  entry.type = type;
  entry.name = name;

  const uint64_t nblocks = (dir->disk.size + kFsBlockSize - 1) / kFsBlockSize;
  // First fit into an existing block with a free slot.
  for (uint64_t b = 0; b < nblocks; ++b) {
    CCNVME_ASSIGN_OR_RETURN(BlockNo lba, FileBlock(dir, b, false, touched));
    CCNVME_ASSIGN_OR_RETURN(BlockBufPtr buf, cache_.GetBlock(lba));
    LockForUpdate(buf);
    for (size_t e = 0; e < kDirEntriesPerBlock; ++e) {
      std::span<uint8_t> slot =
          std::span<uint8_t>(buf->data).subspan(e * kDirEntrySize, kDirEntrySize);
      if (GetU32(slot, 0) == kInvalidInode) {
        entry.Serialize(slot);
        buf->dirty = true;
        buf->lock.Unlock();
        touched->insert(lba);
        return OkStatus();
      }
    }
    buf->lock.Unlock();
  }
  // Grow the directory by one block.
  CCNVME_ASSIGN_OR_RETURN(BlockNo lba, FileBlock(dir, nblocks, /*allocate=*/true, touched));
  BlockBufPtr buf = cache_.GetBlockNoRead(lba);
  LockForUpdate(buf);
  std::memset(buf->data.data(), 0, kFsBlockSize);
  entry.Serialize(std::span<uint8_t>(buf->data).subspan(0, kDirEntrySize));
  buf->dirty = true;
  buf->lock.Unlock();
  dir->disk.size = (nblocks + 1) * kFsBlockSize;
  dir->dirty = true;
  touched->insert(lba);
  return OkStatus();
}

Status ExtFs::DirRemove(const InodePtr& dir, const std::string& name,
                        std::set<BlockNo>* touched) {
  Simulator::Sleep(kFsDirUpdateNs);
  const uint64_t nblocks = (dir->disk.size + kFsBlockSize - 1) / kFsBlockSize;
  for (uint64_t b = 0; b < nblocks; ++b) {
    CCNVME_ASSIGN_OR_RETURN(BlockNo lba, FileBlock(dir, b, false, touched));
    CCNVME_ASSIGN_OR_RETURN(BlockBufPtr buf, cache_.GetBlock(lba));
    LockForUpdate(buf);
    for (size_t e = 0; e < kDirEntriesPerBlock; ++e) {
      std::span<uint8_t> slot =
          std::span<uint8_t>(buf->data).subspan(e * kDirEntrySize, kDirEntrySize);
      const RawDirEntry entry = RawDirEntry::Parse(slot);
      if (entry.ino != kInvalidInode && entry.name == name) {
        std::memset(slot.data(), 0, kDirEntrySize);
        buf->dirty = true;
        buf->lock.Unlock();
        touched->insert(lba);
        return OkStatus();
      }
    }
    buf->lock.Unlock();
  }
  return NotFound("no entry '" + name + "'");
}

Result<std::vector<DirEntry>> ExtFs::DirList(const InodePtr& dir) {
  std::vector<DirEntry> out;
  const uint64_t nblocks = (dir->disk.size + kFsBlockSize - 1) / kFsBlockSize;
  for (uint64_t b = 0; b < nblocks; ++b) {
    CCNVME_ASSIGN_OR_RETURN(BlockNo lba, FileBlock(dir, b, false, nullptr));
    CCNVME_ASSIGN_OR_RETURN(BlockBufPtr buf, cache_.GetBlock(lba));
    for (size_t e = 0; e < kDirEntriesPerBlock; ++e) {
      const RawDirEntry entry = RawDirEntry::Parse(
          std::span<const uint8_t>(buf->data).subspan(e * kDirEntrySize, kDirEntrySize));
      if (entry.ino != kInvalidInode) {
        out.push_back(DirEntry{entry.ino, entry.type, entry.name});
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Block mapping

Result<BlockNo> ExtFs::FileBlock(const InodePtr& inode, uint64_t index, bool allocate,
                                 std::set<BlockNo>* touched) {
  if (index >= kMaxFileBlocks) {
    return OutOfRange("file too large (block index " + std::to_string(index) + ")");
  }
  if (index < kDirectBlocks) {
    uint32_t& slot = inode->disk.direct[index];
    if (slot == 0) {
      if (!allocate) {
        return NotFound("hole at block " + std::to_string(index));
      }
      CCNVME_ASSIGN_OR_RETURN(
          auto alloc, alloc_->AllocBlock(static_cast<uint64_t>(inode->ino) * kFsBlockSize * 8));
      slot = static_cast<uint32_t>(alloc.index);
      inode->dirty = true;
      if (touched != nullptr) {
        touched->insert(alloc.bitmap_block);
      }
    }
    return BlockNo{slot};
  }
  // Indirect blocks.
  const uint64_t rel = index - kDirectBlocks;
  const size_t which = rel / kPtrsPerIndirect;
  const size_t within = rel % kPtrsPerIndirect;
  uint32_t& ind = inode->disk.indirect[which];
  if (ind == 0) {
    if (!allocate) {
      return NotFound("hole (no indirect block)");
    }
    CCNVME_ASSIGN_OR_RETURN(
        auto alloc, alloc_->AllocBlock(static_cast<uint64_t>(inode->ino) * kFsBlockSize * 8));
    ind = static_cast<uint32_t>(alloc.index);
    inode->dirty = true;
    BlockBufPtr ibuf = cache_.GetBlockNoRead(ind);
    std::memset(ibuf->data.data(), 0, kFsBlockSize);
    ibuf->dirty = true;
    if (touched != nullptr) {
      touched->insert(alloc.bitmap_block);
      touched->insert(ind);
    }
  }
  CCNVME_ASSIGN_OR_RETURN(BlockBufPtr ibuf, cache_.GetBlock(ind));
  uint32_t ptr = GetU32(ibuf->data, within * 4);
  if (ptr == 0) {
    if (!allocate) {
      return NotFound("hole at block " + std::to_string(index));
    }
    CCNVME_ASSIGN_OR_RETURN(
        auto alloc, alloc_->AllocBlock(static_cast<uint64_t>(inode->ino) * kFsBlockSize * 8));
    ptr = static_cast<uint32_t>(alloc.index);
    LockForUpdate(ibuf);
    PutU32(ibuf->data, within * 4, ptr);
    ibuf->dirty = true;
    ibuf->lock.Unlock();
    if (touched != nullptr) {
      touched->insert(alloc.bitmap_block);
      touched->insert(ind);
    }
  }
  return BlockNo{ptr};
}

Status ExtFs::FreeInodeBlocks(const InodePtr& inode, std::set<BlockNo>* touched) {
  const bool is_dir = inode->disk.type == FileType::kDirectory;
  auto free_one = [&](BlockNo lba) -> Status {
    // Journaled content may linger in the log for this block (§5.4): revoke
    // directory blocks always (their content is metadata) and data blocks
    // under data journaling.
    if (is_dir || options_.data_journaling) {
      journal_->RevokeBlock(lba);
    }
    BlockNo bitmap_block = 0;
    CCNVME_RETURN_IF_ERROR(alloc_->FreeBlock(lba, &bitmap_block));
    touched->insert(bitmap_block);
    cache_.Forget(lba);
    return OkStatus();
  };
  for (size_t i = 0; i < kDirectBlocks; ++i) {
    if (inode->disk.direct[i] != 0) {
      CCNVME_RETURN_IF_ERROR(free_one(inode->disk.direct[i]));
      inode->disk.direct[i] = 0;
    }
  }
  for (uint32_t ind : inode->disk.indirect) {
    if (ind == 0) {
      continue;
    }
    CCNVME_ASSIGN_OR_RETURN(BlockBufPtr ibuf, cache_.GetBlock(ind));
    for (size_t i = 0; i < kPtrsPerIndirect; ++i) {
      const uint32_t ptr = GetU32(ibuf->data, i * 4);
      if (ptr != 0) {
        CCNVME_RETURN_IF_ERROR(free_one(ptr));
      }
    }
    // The indirect block itself was journaled metadata.
    journal_->RevokeBlock(ind);
    BlockNo bitmap_block = 0;
    CCNVME_RETURN_IF_ERROR(alloc_->FreeBlock(ind, &bitmap_block));
    touched->insert(bitmap_block);
    cache_.Forget(ind);
  }
  inode->disk.indirect[0] = 0;
  inode->disk.indirect[1] = 0;
  inode->dirty = true;
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Namespace operations

Result<InodeNum> ExtFs::Create(const std::string& path) {
  std::string leaf;
  CCNVME_ASSIGN_OR_RETURN(InodePtr parent, ResolveParent(path, &leaf));
  SimLockGuard guard(parent->lock);
  if (DirLookup(parent, leaf).ok()) {
    return AlreadyExists(path);
  }
  CCNVME_ASSIGN_OR_RETURN(auto alloc, alloc_->AllocInode(0));
  const InodeNum ino = static_cast<InodeNum>(alloc.index);

  auto inode = std::make_shared<Inode>(sim_, ino);
  inode->disk.type = FileType::kRegular;
  inode->disk.nlink = 1;
  inode->disk.mtime_ns = sim_->now();
  inode->dirty = true;
  {
    SimLockGuard cache_guard(inode_cache_mu_);
    inode_cache_[ino] = inode;
  }

  std::set<BlockNo> touched;
  touched.insert(alloc.bitmap_block);
  CCNVME_RETURN_IF_ERROR(DirAdd(parent, leaf, ino, FileType::kRegular, &touched));
  parent->dirty = true;
  // The new file's fsync must persist the directory entry and the parent's
  // inode (pM in Figure 14), so the touched blocks belong to the child.
  CCNVME_ASSIGN_OR_RETURN(BlockBufPtr ptable, FlushInodeToTable(parent));
  touched.insert(ptable->block_no);
  // The new inode's table slot must persist with the directory entry, or a
  // crash after fsync(parent) leaves a dangling entry.
  CCNVME_ASSIGN_OR_RETURN(BlockBufPtr ctable, FlushInodeToTable(inode));
  touched.insert(ctable->block_no);
  inode->dirty_metadata.insert(touched.begin(), touched.end());
  parent->dirty_metadata.insert(touched.begin(), touched.end());
  return ino;
}

Status ExtFs::Mkdir(const std::string& path) {
  std::string leaf;
  CCNVME_ASSIGN_OR_RETURN(InodePtr parent, ResolveParent(path, &leaf));
  SimLockGuard guard(parent->lock);
  if (DirLookup(parent, leaf).ok()) {
    return AlreadyExists(path);
  }
  CCNVME_ASSIGN_OR_RETURN(auto alloc, alloc_->AllocInode(0));
  const InodeNum ino = static_cast<InodeNum>(alloc.index);
  auto inode = std::make_shared<Inode>(sim_, ino);
  inode->disk.type = FileType::kDirectory;
  inode->disk.nlink = 2;
  inode->disk.mtime_ns = sim_->now();
  inode->dirty = true;
  {
    SimLockGuard cache_guard(inode_cache_mu_);
    inode_cache_[ino] = inode;
  }
  std::set<BlockNo> touched;
  touched.insert(alloc.bitmap_block);
  CCNVME_RETURN_IF_ERROR(DirAdd(parent, leaf, ino, FileType::kDirectory, &touched));
  parent->disk.nlink++;
  parent->dirty = true;
  CCNVME_ASSIGN_OR_RETURN(BlockBufPtr ptable, FlushInodeToTable(parent));
  touched.insert(ptable->block_no);
  CCNVME_ASSIGN_OR_RETURN(BlockBufPtr ctable, FlushInodeToTable(inode));
  touched.insert(ctable->block_no);
  inode->dirty_metadata.insert(touched.begin(), touched.end());
  parent->dirty_metadata.insert(touched.begin(), touched.end());
  return OkStatus();
}

Result<InodeNum> ExtFs::Lookup(const std::string& path) {
  CCNVME_ASSIGN_OR_RETURN(InodePtr inode, ResolvePath(path));
  return inode->ino;
}

Status ExtFs::DropLink(const InodePtr& parent, const std::string& name, bool expect_dir,
                       std::set<BlockNo>* touched) {
  CCNVME_ASSIGN_OR_RETURN(InodeNum ino, DirLookup(parent, name));
  CCNVME_ASSIGN_OR_RETURN(InodePtr inode, GetInode(ino));
  const bool is_dir = inode->disk.type == FileType::kDirectory;
  if (expect_dir != is_dir) {
    return InvalidArgument(expect_dir ? "not a directory" : "is a directory");
  }
  if (is_dir) {
    CCNVME_ASSIGN_OR_RETURN(auto entries, DirList(inode));
    if (!entries.empty()) {
      return InvalidArgument("directory not empty");
    }
  }
  CCNVME_RETURN_IF_ERROR(DirRemove(parent, name, touched));
  inode->disk.nlink -= is_dir ? 2 : 1;
  inode->dirty = true;
  if (inode->disk.nlink == 0 || (is_dir && inode->disk.nlink <= 1)) {
    CCNVME_RETURN_IF_ERROR(FreeInodeBlocks(inode, touched));
    inode->disk.type = FileType::kNone;
    inode->disk.size = 0;
    BlockNo ibm = 0;
    CCNVME_RETURN_IF_ERROR(alloc_->FreeInode(ino, &ibm));
    touched->insert(ibm);
    SimLockGuard cache_guard(inode_cache_mu_);
    inode_cache_.erase(ino);
  }
  // The (possibly dead) inode's table block must be journaled to persist
  // the nlink change / deallocation.
  CCNVME_ASSIGN_OR_RETURN(BlockBufPtr table, FlushInodeToTable(inode));
  touched->insert(table->block_no);
  if (is_dir) {
    parent->disk.nlink--;
  }
  return OkStatus();
}

Status ExtFs::Unlink(const std::string& path) {
  std::string leaf;
  CCNVME_ASSIGN_OR_RETURN(InodePtr parent, ResolveParent(path, &leaf));
  SimLockGuard guard(parent->lock);
  std::set<BlockNo> touched;
  CCNVME_RETURN_IF_ERROR(DropLink(parent, leaf, /*expect_dir=*/false, &touched));
  parent->dirty = true;
  CCNVME_ASSIGN_OR_RETURN(BlockBufPtr ptable, FlushInodeToTable(parent));
  touched.insert(ptable->block_no);
  parent->dirty_metadata.insert(touched.begin(), touched.end());
  return OkStatus();
}

Status ExtFs::Rmdir(const std::string& path) {
  std::string leaf;
  CCNVME_ASSIGN_OR_RETURN(InodePtr parent, ResolveParent(path, &leaf));
  SimLockGuard guard(parent->lock);
  std::set<BlockNo> touched;
  CCNVME_RETURN_IF_ERROR(DropLink(parent, leaf, /*expect_dir=*/true, &touched));
  parent->dirty = true;
  CCNVME_ASSIGN_OR_RETURN(BlockBufPtr ptable, FlushInodeToTable(parent));
  touched.insert(ptable->block_no);
  parent->dirty_metadata.insert(touched.begin(), touched.end());
  return OkStatus();
}

Status ExtFs::Rename(const std::string& from, const std::string& to) {
  std::string from_leaf;
  std::string to_leaf;
  CCNVME_ASSIGN_OR_RETURN(InodePtr from_parent, ResolveParent(from, &from_leaf));
  CCNVME_ASSIGN_OR_RETURN(InodePtr to_parent, ResolveParent(to, &to_leaf));

  // Lock ordering by inode number prevents rename/rename deadlocks.
  InodePtr first = from_parent;
  InodePtr second = to_parent;
  if (first->ino > second->ino) {
    std::swap(first, second);
  }
  SimLockGuard guard1(first->lock);
  std::optional<SimLockGuard> guard2;
  if (first != second) {
    guard2.emplace(second->lock);
  }

  CCNVME_ASSIGN_OR_RETURN(InodeNum ino, DirLookup(from_parent, from_leaf));
  CCNVME_ASSIGN_OR_RETURN(InodePtr inode, GetInode(ino));

  std::set<BlockNo> touched;
  // POSIX rename: silently replace an existing target.
  if (DirLookup(to_parent, to_leaf).ok()) {
    CCNVME_RETURN_IF_ERROR(DropLink(to_parent, to_leaf,
                                    inode->disk.type == FileType::kDirectory, &touched));
  }
  CCNVME_RETURN_IF_ERROR(DirRemove(from_parent, from_leaf, &touched));
  CCNVME_RETURN_IF_ERROR(DirAdd(to_parent, to_leaf, ino, inode->disk.type, &touched));
  if (inode->disk.type == FileType::kDirectory && from_parent != to_parent) {
    from_parent->disk.nlink--;
    to_parent->disk.nlink++;
  }
  from_parent->dirty = true;
  to_parent->dirty = true;
  CCNVME_ASSIGN_OR_RETURN(BlockBufPtr ftable, FlushInodeToTable(from_parent));
  touched.insert(ftable->block_no);
  CCNVME_ASSIGN_OR_RETURN(BlockBufPtr ttable, FlushInodeToTable(to_parent));
  touched.insert(ttable->block_no);
  from_parent->dirty_metadata.insert(touched.begin(), touched.end());
  to_parent->dirty_metadata.insert(touched.begin(), touched.end());
  inode->dirty_metadata.insert(touched.begin(), touched.end());
  return OkStatus();
}

Status ExtFs::Link(const std::string& existing, const std::string& link_path) {
  CCNVME_ASSIGN_OR_RETURN(InodePtr inode, ResolvePath(existing));
  if (inode->disk.type == FileType::kDirectory) {
    return InvalidArgument("cannot hard-link a directory");
  }
  std::string leaf;
  CCNVME_ASSIGN_OR_RETURN(InodePtr parent, ResolveParent(link_path, &leaf));
  SimLockGuard guard(parent->lock);
  if (DirLookup(parent, leaf).ok()) {
    return AlreadyExists(link_path);
  }
  std::set<BlockNo> touched;
  CCNVME_RETURN_IF_ERROR(DirAdd(parent, leaf, inode->ino, inode->disk.type, &touched));
  inode->disk.nlink++;
  inode->dirty = true;
  parent->dirty = true;
  CCNVME_ASSIGN_OR_RETURN(BlockBufPtr ltable, FlushInodeToTable(inode));
  touched.insert(ltable->block_no);
  CCNVME_ASSIGN_OR_RETURN(BlockBufPtr ptable, FlushInodeToTable(parent));
  touched.insert(ptable->block_no);
  inode->dirty_metadata.insert(touched.begin(), touched.end());
  parent->dirty_metadata.insert(touched.begin(), touched.end());
  return OkStatus();
}

Result<std::vector<DirEntry>> ExtFs::ListDir(const std::string& path) {
  CCNVME_ASSIGN_OR_RETURN(InodePtr dir, ResolvePath(path));
  if (dir->disk.type != FileType::kDirectory) {
    return InvalidArgument("not a directory: " + path);
  }
  SimLockGuard guard(dir->lock);
  return DirList(dir);
}

// ---------------------------------------------------------------------------
// File I/O

Status ExtFs::Write(InodeNum ino, uint64_t offset, std::span<const uint8_t> data) {
  CCNVME_ASSIGN_OR_RETURN(InodePtr inode, GetInode(ino));
  SimLockGuard guard(inode->lock);
  std::set<BlockNo> touched;
  size_t written = 0;
  while (written < data.size()) {
    const uint64_t pos = offset + written;
    const uint64_t index = pos / kFsBlockSize;
    const size_t within = pos % kFsBlockSize;
    const size_t chunk = std::min<size_t>(kFsBlockSize - within, data.size() - written);

    CCNVME_ASSIGN_OR_RETURN(BlockNo lba, FileBlock(inode, index, /*allocate=*/true, &touched));
    BlockBufPtr buf;
    const bool full_overwrite = within == 0 && chunk == kFsBlockSize;
    const bool past_eof = index * kFsBlockSize >= inode->disk.size;
    if (full_overwrite || past_eof) {
      buf = cache_.GetBlockNoRead(lba);
    } else {
      CCNVME_ASSIGN_OR_RETURN(buf, cache_.GetBlock(lba));
    }
    LockForUpdate(buf);
    Simulator::Sleep(kFsMemcpy4kNs * chunk / kFsBlockSize);
    std::memcpy(buf->data.data() + within, data.data() + written, chunk);
    buf->dirty = true;
    buf->lock.Unlock();
    inode->dirty_data.insert(lba);
    written += chunk;
  }
  if (offset + data.size() > inode->disk.size) {
    inode->disk.size = offset + data.size();
  }
  inode->disk.mtime_ns = sim_->now();
  inode->dirty = true;
  inode->dirty_metadata.insert(touched.begin(), touched.end());
  return OkStatus();
}

Status ExtFs::Append(InodeNum ino, std::span<const uint8_t> data) {
  CCNVME_ASSIGN_OR_RETURN(uint64_t size, FileSize(ino));
  return Write(ino, size, data);
}

Status ExtFs::Read(InodeNum ino, uint64_t offset, std::span<uint8_t> out) {
  CCNVME_ASSIGN_OR_RETURN(InodePtr inode, GetInode(ino));
  SimLockGuard guard(inode->lock);
  if (offset + out.size() > inode->disk.size) {
    return OutOfRange("read past EOF");
  }
  size_t done = 0;
  while (done < out.size()) {
    const uint64_t pos = offset + done;
    const uint64_t index = pos / kFsBlockSize;
    const size_t within = pos % kFsBlockSize;
    const size_t chunk = std::min<size_t>(kFsBlockSize - within, out.size() - done);
    auto lba = FileBlock(inode, index, /*allocate=*/false, nullptr);
    if (!lba.ok()) {
      std::memset(out.data() + done, 0, chunk);  // hole
    } else {
      CCNVME_ASSIGN_OR_RETURN(BlockBufPtr buf, cache_.GetBlock(*lba));
      std::memcpy(out.data() + done, buf->data.data() + within, chunk);
    }
    done += chunk;
  }
  return OkStatus();
}

Result<uint64_t> ExtFs::FileSize(InodeNum ino) {
  CCNVME_ASSIGN_OR_RETURN(InodePtr inode, GetInode(ino));
  return inode->disk.size;
}

Status ExtFs::Truncate(InodeNum ino, uint64_t new_size) {
  CCNVME_ASSIGN_OR_RETURN(InodePtr inode, GetInode(ino));
  SimLockGuard guard(inode->lock);
  if (inode->disk.type != FileType::kRegular) {
    return InvalidArgument("truncate on non-regular file");
  }
  std::set<BlockNo> touched;
  if (new_size < inode->disk.size) {
    const uint64_t keep_blocks = (new_size + kFsBlockSize - 1) / kFsBlockSize;
    const uint64_t old_blocks = (inode->disk.size + kFsBlockSize - 1) / kFsBlockSize;
    const bool dj = options_.data_journaling;
    for (uint64_t idx = keep_blocks; idx < old_blocks; ++idx) {
      auto lba = FileBlock(inode, idx, /*allocate=*/false, nullptr);
      if (!lba.ok()) {
        continue;  // hole
      }
      if (dj) {
        journal_->RevokeBlock(*lba);  // journaled data must not be replayed
      }
      inode->dirty_data.erase(*lba);
      BlockNo bitmap_block = 0;
      CCNVME_RETURN_IF_ERROR(alloc_->FreeBlock(*lba, &bitmap_block));
      touched.insert(bitmap_block);
      cache_.Forget(*lba);
      // Clear the mapping.
      if (idx < kDirectBlocks) {
        inode->disk.direct[idx] = 0;
      } else {
        const uint64_t rel = idx - kDirectBlocks;
        const uint32_t ind = inode->disk.indirect[rel / kPtrsPerIndirect];
        CCNVME_ASSIGN_OR_RETURN(BlockBufPtr ibuf, cache_.GetBlock(ind));
        LockForUpdate(ibuf);
        PutU32(ibuf->data, (rel % kPtrsPerIndirect) * 4, 0);
        ibuf->dirty = true;
        ibuf->lock.Unlock();
        touched.insert(ind);
      }
    }
    // Zero the tail of the last kept block so stale bytes never resurface.
    if (new_size % kFsBlockSize != 0) {
      auto lba = FileBlock(inode, new_size / kFsBlockSize, /*allocate=*/false, nullptr);
      if (lba.ok()) {
        CCNVME_ASSIGN_OR_RETURN(BlockBufPtr buf, cache_.GetBlock(*lba));
        LockForUpdate(buf);
        std::memset(buf->data.data() + new_size % kFsBlockSize, 0,
                    kFsBlockSize - new_size % kFsBlockSize);
        buf->dirty = true;
        buf->lock.Unlock();
        inode->dirty_data.insert(*lba);
      }
    }
  }
  inode->disk.size = new_size;
  inode->disk.mtime_ns = sim_->now();
  inode->dirty = true;
  inode->dirty_metadata.insert(touched.begin(), touched.end());
  return OkStatus();
}

Result<ExtFs::StatInfo> ExtFs::Stat(InodeNum ino) {
  CCNVME_ASSIGN_OR_RETURN(InodePtr inode, GetInode(ino));
  StatInfo info;
  info.ino = ino;
  info.type = inode->disk.type;
  info.nlink = inode->disk.nlink;
  info.size = inode->disk.size;
  info.mtime_ns = inode->disk.mtime_ns;
  for (size_t i = 0; i < kDirectBlocks; ++i) {
    if (inode->disk.direct[i] != 0) {
      info.blocks++;
    }
  }
  for (uint32_t ind : inode->disk.indirect) {
    if (ind == 0) {
      continue;
    }
    info.blocks++;  // the indirect block itself
    CCNVME_ASSIGN_OR_RETURN(BlockBufPtr ibuf, cache_.GetBlock(ind));
    for (size_t i = 0; i < kPtrsPerIndirect; ++i) {
      if (GetU32(ibuf->data, i * 4) != 0) {
        info.blocks++;
      }
    }
  }
  return info;
}

Result<ExtFs::StatInfo> ExtFs::StatPath(const std::string& path) {
  CCNVME_ASSIGN_OR_RETURN(InodePtr inode, ResolvePath(path));
  return Stat(inode->ino);
}

// ---------------------------------------------------------------------------
// Sync primitives

Status ExtFs::SyncInternal(InodeNum ino, SyncMode mode) {
  CCNVME_ASSIGN_OR_RETURN(InodePtr inode, GetInode(ino));
  inode->lock.Lock();
  Simulator::Sleep(kFsTxBeginNs);

  // Every sync is one attributed request flow: the id is allocated
  // unconditionally (tracing must not change behavior) and follows the
  // operation down to the SQE and back up through the CQE. When the caller
  // already opened the request window (Fsync's cross-core gate does, so the
  // wait.fsync_leader park lands inside the profiled request), reuse it
  // instead of nesting a second root span.
  std::optional<ScopedTraceContext> trace_ctx;
  std::optional<ScopedSpan> total_span;
  Tracer* tracer = sim_->tracer();
  if (CurrentTraceContext().req_id == 0) {
    trace_ctx.emplace(TraceContext{next_req_id_++, 0});
    total_span.emplace(tracer, TracePoint::kSyncTotal);
  }

  SyncOp op;
  op.ino = ino;
  std::set<BlockNo> seen;

  {
    // S-iD: search dirty data blocks and route them.
    ScopedSpan phase(tracer, TracePoint::kSyncSubmitData);
    if (!inode->dirty_data.empty()) {
      Simulator::Sleep(kFsDirtySearchAllocNs);
      for (BlockNo lba : inode->dirty_data) {
        CCNVME_ASSIGN_OR_RETURN(BlockBufPtr buf, cache_.GetBlock(lba));
        if (options_.data_journaling || journal_->ForceJournalData(lba)) {
          if (seen.insert(lba).second) {
            op.metadata.push_back(buf);
          }
        } else {
          op.data.push_back(buf);
        }
      }
      inode->dirty_data.clear();
    }
  }

  {
    // S-iM: the inode itself (skipped by fdataatomic when the size is
    // unchanged, §5.1).
    ScopedSpan phase(tracer, TracePoint::kSyncSubmitInode);
    const bool skip_inode = mode == SyncMode::kFdataatomic &&
                            inode->disk.size == inode->size_at_last_sync && !inode->dirty;
    if (!skip_inode) {
      Simulator::Sleep(kFsInodeUpdateNs);
      CCNVME_ASSIGN_OR_RETURN(BlockBufPtr table, FlushInodeToTable(inode));
      if (seen.insert(table->block_no).second) {
        op.metadata.push_back(table);
      }
    }
  }

  {
    // S-pM and friends: metadata blocks touched by this inode's operations.
    ScopedSpan phase(tracer, TracePoint::kSyncSubmitParent);
    for (BlockNo lba : inode->dirty_metadata) {
      if (!seen.insert(lba).second) {
        continue;
      }
      CCNVME_ASSIGN_OR_RETURN(BlockBufPtr buf, cache_.GetBlock(lba));
      op.metadata.push_back(buf);
    }
    inode->dirty_metadata.clear();
    inode->size_at_last_sync = inode->disk.size;
    inode->lock.Unlock();
  }

  if (op.data.empty() && op.metadata.empty()) {
    return OkStatus();  // nothing to persist
  }
  if (mode != SyncMode::kFsync && !journal_->SupportsAtomic()) {
    mode = SyncMode::kFsync;  // Ext4/HoraeFS: fatomic degenerates to fsync
  }
  return journal_->Sync(op, mode);
}

Status ExtFs::Fsync(InodeNum ino) {
  // Cross-core group commit, per inode: register an epoch, then either wait
  // for a leader whose commit covers it or become the leader and commit for
  // everyone registered so far (free when uncontended). Correctness lean: a
  // leader computes its coverage high-water mark BEFORE SyncInternal
  // captures the dirty sets, so every registered caller's completed writes
  // are inside the commit.
  CCNVME_ASSIGN_OR_RETURN(InodePtr inode, GetInode(ino));
  // The request window opens BEFORE the gate: a follower's entire latency is
  // the park behind the committing leader, and that wait.fsync_leader edge
  // must land inside its own profiled request (the commit-convoy signature).
  // SyncInternal sees the live request id and reuses this window.
  ScopedTraceContext trace_ctx({next_req_id_++, 0});
  ScopedSpan total_span(sim_->tracer(), TracePoint::kSyncTotal);
  Inode& node = *inode;
  node.sync_gate_mu.Lock();
  const uint64_t my_epoch = ++node.fsync_requested;
  const uint64_t gate_entry_ns = sim_->now();
  while (node.fsync_covered < my_epoch && node.fsync_leader_active) {
    if (options_.test_skip_cross_core_order) {
      // INJECTED BUG: assume the in-flight leader will cover us. It captured
      // its batch before we registered, so our data may miss the commit.
      const uint64_t covered = node.fsync_covered;
      node.sync_gate_mu.Unlock();
      if (Metrics* m = sim_->metrics()) {
        m->monitors().OnFsyncReturn(ino, my_epoch, covered);
      }
      return OkStatus();
    }
    node.sync_gate_cv.Wait(node.sync_gate_mu);
  }
  if (node.fsync_covered >= my_epoch) {
    // A leader that won the race after we registered already persisted our
    // epoch: piggy-backed group commit, no I/O of our own.
    const uint64_t covered = node.fsync_covered;
    node.sync_gate_mu.Unlock();
    if (Tracer* t = sim_->tracer()) {
      if (sim_->now() > gate_entry_ns) {
        t->WaitEdgeEvent(WaitEdge::kFsyncLeader, gate_entry_ns, sim_->now(), ino);
      }
    }
    if (Metrics* m = sim_->metrics()) {
      m->monitors().OnFsyncReturn(ino, my_epoch, covered);
    }
    return OkStatus();
  }
  // Leader: cover every epoch registered up to now.
  node.fsync_leader_active = true;
  const uint64_t batch_high = node.fsync_requested;
  node.sync_gate_mu.Unlock();
  if (Tracer* t = sim_->tracer()) {
    if (sim_->now() > gate_entry_ns) {
      t->WaitEdgeEvent(WaitEdge::kFsyncLeader, gate_entry_ns, sim_->now(), ino);
    }
  }
  const Status st = SyncInternal(ino, SyncMode::kFsync);
  node.sync_gate_mu.Lock();
  node.fsync_leader_active = false;
  if (st.ok()) {
    node.fsync_covered = std::max(node.fsync_covered, batch_high);
    node.fsync_leader_commits++;
  }
  const uint64_t covered = node.fsync_covered;
  node.sync_gate_mu.Unlock();
  node.sync_gate_cv.NotifyAll();
  if (st.ok()) {
    if (Metrics* m = sim_->metrics()) {
      m->monitors().OnFsyncReturn(ino, my_epoch, covered);
    }
  }
  return st;
}
Status ExtFs::Fatomic(InodeNum ino) { return SyncInternal(ino, SyncMode::kFatomic); }
Status ExtFs::Fdataatomic(InodeNum ino) { return SyncInternal(ino, SyncMode::kFdataatomic); }

Status ExtFs::FsyncPath(const std::string& path) {
  CCNVME_ASSIGN_OR_RETURN(InodePtr inode, ResolvePath(path));
  return Fsync(inode->ino);
}

// ---------------------------------------------------------------------------
// Consistency check

Status ExtFs::CheckConsistency() {
  // Walk the tree from the root; every reachable inode must parse, sizes
  // must map to allocated blocks, directory entries must reference live
  // inodes of the right type.
  std::vector<InodeNum> stack = {kRootInode};
  std::set<InodeNum> visited;
  while (!stack.empty()) {
    const InodeNum ino = stack.back();
    stack.pop_back();
    if (!visited.insert(ino).second) {
      continue;
    }
    CCNVME_ASSIGN_OR_RETURN(InodePtr inode, GetInode(ino));
    if (inode->disk.type == FileType::kNone) {
      return Corruption("reachable inode " + std::to_string(ino) + " is unallocated");
    }
    const uint64_t nblocks = (inode->disk.size + kFsBlockSize - 1) / kFsBlockSize;
    if (nblocks > kMaxFileBlocks) {
      return Corruption("inode " + std::to_string(ino) + " has absurd size");
    }
    if (inode->disk.type == FileType::kDirectory) {
      CCNVME_ASSIGN_OR_RETURN(auto entries, DirList(inode));
      for (const DirEntry& e : entries) {
        if (e.ino == kInvalidInode || e.ino >= kMaxInodes) {
          return Corruption("bad dir entry ino in dir " + std::to_string(ino));
        }
        auto child = GetInode(e.ino);
        if (!child.ok()) {
          return Corruption("dangling dir entry '" + e.name + "' -> " + std::to_string(e.ino));
        }
        if ((*child)->disk.type != e.type) {
          return Corruption("dir entry type mismatch for '" + e.name + "'");
        }
        stack.push_back(e.ino);
      }
    }
  }
  return OkStatus();
}

}  // namespace ccnvme
