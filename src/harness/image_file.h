// Disk-image files: serialize a CrashImage (durable media blocks + PMR) to
// a file and back. This is what lets the CLI tools (mkfs_ccnvme,
// fsck_ccnvme, journal_inspect) and long-lived experiments operate on
// persistent images, and lets a crash state be archived and examined.
//
// Format (little-endian):
//   [0..3]   magic "CCIM"
//   [4..7]   version (3; no other is read)
//   [8..11]  block size
//   [12..15] number of member devices
//   then per device: u64 number of media blocks, u64 PMR size in bytes,
//     per block a u64 block number + the block payload, then the PMR bytes
//   then a u64 NVM size + the NVM tier's durable bytes
//   finally a u64 FNV-1a checksum of everything before it
//
// The PMR and NVM bytes are written in full, absent pages as zeros; a
// loaded image holds only their pages that are not all zero.
#ifndef SRC_HARNESS_IMAGE_FILE_H_
#define SRC_HARNESS_IMAGE_FILE_H_

#include <string>

#include "src/common/status.h"
#include "src/harness/stack.h"

namespace ccnvme {

Status SaveImage(const CrashImage& image, const std::string& path);
Result<CrashImage> LoadImage(const std::string& path);

}  // namespace ccnvme

#endif  // SRC_HARNESS_IMAGE_FILE_H_
