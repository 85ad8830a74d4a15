#include "src/harness/image_file.h"

#include <algorithm>
#include <cstdio>
#include <span>

namespace ccnvme {

namespace {
constexpr uint32_t kImageMagic = 0x4D494343;  // "CCIM"
// Versions 1 (one device, no device count) and 2 (no NVM tier) are
// refused: every file system they hold predates the superblock's journal
// kind, which a mount requires.
constexpr uint32_t kImageVersion = 3;
}  // namespace

Status SaveImage(const CrashImage& image, const std::string& path) {
  for (const DeviceImage& dev : image.devices) {
    for (const auto& [block, data] : dev.media) {
      if (data.size() != kFsBlockSize) {
        return Internal("media block " + std::to_string(block) + " has odd size");
      }
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return IoError("cannot open " + path + " for writing");
  }
  // Written front to back and hashed as it goes, so saving holds no second
  // copy of the image's blocks.
  uint64_t hash = Fnv1a({});
  bool ok = true;
  auto put = [&](std::span<const uint8_t> bytes) {
    hash = Fnv1a(bytes, hash);
    ok = ok && (bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size());
  };
  auto put_u32 = [&](uint32_t v) {
    uint8_t b[4];
    PutU32(b, 0, v);
    put(b);
  };
  auto put_u64 = [&](uint64_t v) {
    uint8_t b[8];
    PutU64(b, 0, v);
    put(b);
  };
  // A page image's bytes, absent pages as zeros.
  static const Buffer kZeroPage(PageImage::kPageSize, 0);
  auto put_pages = [&](const PageImage& pages) {
    for (size_t i = 0; i < pages.page_count(); ++i) {
      const size_t len = std::min(PageImage::kPageSize, pages.size() - i * PageImage::kPageSize);
      put({pages.page(i) ? pages.page(i).data() : kZeroPage.data(), len});
    }
  };
  put_u32(kImageMagic);
  put_u32(kImageVersion);
  put_u32(kFsBlockSize);
  put_u32(static_cast<uint32_t>(image.devices.size()));
  for (const DeviceImage& dev : image.devices) {
    put_u64(dev.media.size());
    put_u64(dev.pmr.size());
    for (const auto& [block, data] : dev.media) {
      put_u64(block);
      put(data);
    }
    put_pages(dev.pmr);
  }
  put_u64(image.nvm.size());
  put_pages(image.nvm);
  put_u64(hash);
  if (std::fclose(f) != 0 || !ok) {
    return IoError("short write to " + path);
  }
  return OkStatus();
}

Result<CrashImage> LoadImage(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return IoError("cannot open " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 24) {
    std::fclose(f);
    return Corruption("image file too small");
  }
  Buffer raw(static_cast<size_t>(size));
  const size_t read = std::fread(raw.data(), 1, raw.size(), f);
  std::fclose(f);
  if (read != raw.size()) {
    return IoError("short read from " + path);
  }

  const uint64_t want = GetU64(raw, raw.size() - 8);
  if (Fnv1a(std::span<const uint8_t>(raw).subspan(0, raw.size() - 8)) != want) {
    return Corruption("image checksum mismatch");
  }
  if (GetU32(raw, 0) != kImageMagic) {
    return Corruption("bad image magic");
  }
  if (GetU32(raw, 4) != kImageVersion) {
    return NotSupported("unsupported image version");
  }
  if (GetU32(raw, 8) != kFsBlockSize) {
    return NotSupported("image block size mismatch");
  }
  const size_t payload_end = raw.size() - 8;
  size_t off = 16;
  const uint32_t num_devices = GetU32(raw, 12);
  if (num_devices == 0) {
    return Corruption("image has no devices");
  }

  CrashImage image;
  image.devices.resize(num_devices);
  for (uint32_t d = 0; d < num_devices; ++d) {
    if (off + 16 > payload_end) {
      return Corruption("image truncated in device header");
    }
    const uint64_t num_blocks = GetU64(raw, off);
    const uint64_t pmr_size = GetU64(raw, off + 8);
    off += 16;
    // Divide/subtract instead of adding to |off| — huge u64 counts in a
    // corrupt header would wrap the sum past the bound check.
    const uint64_t avail = payload_end - off;
    if (num_blocks > avail / (8 + kFsBlockSize) ||
        pmr_size > avail - num_blocks * (8 + kFsBlockSize)) {
      return Corruption("image size inconsistent with header");
    }
    for (uint64_t i = 0; i < num_blocks; ++i) {
      const uint64_t block = GetU64(raw, off);
      image.devices[d].media.emplace(
          block, MediaBlock(std::span<const uint8_t>(raw).subspan(off + 8, kFsBlockSize)));
      off += 8 + kFsBlockSize;
    }
    image.devices[d].pmr = PageImage(std::span<const uint8_t>(raw).subspan(off, pmr_size));
    off += pmr_size;
  }
  if (off + 8 > payload_end) {
    return Corruption("image truncated in NVM header");
  }
  const uint64_t nvm_size = GetU64(raw, off);
  off += 8;
  if (nvm_size > payload_end - off) {
    return Corruption("image truncated in NVM payload");
  }
  image.nvm = PageImage(std::span<const uint8_t>(raw).subspan(off, nvm_size));
  off += nvm_size;
  if (off != payload_end) {
    return Corruption("image size inconsistent with header");
  }
  return image;
}

}  // namespace ccnvme
