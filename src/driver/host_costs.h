// Host-software CPU cost table (nanoseconds of modeled CPU work).
//
// These make the *software overhead* column of Table 1 and the latency
// breakdown of Figure 14 come out: the simulator charges them on the paths
// where the real kernel spends the equivalent cycles. They are calibrated
// against Figure 14's per-function numbers on the Optane 905P (e.g. Ext4's
// dirty-page search + block allocation for a 4 KB append costs ~5-7 us;
// passing one bio through the block layer costs ~1 us). No option carries
// them: every layer reads this one table.
#ifndef SRC_DRIVER_HOST_COSTS_H_
#define SRC_DRIVER_HOST_COSTS_H_

#include <cstdint>

namespace ccnvme {

// Block layer: per-bio submission cost (Figure 14: "the block layer ...
// still costs more than 1 us to pass the request").
inline constexpr uint64_t kBlockLayerSubmitNs = 900;
// NVMe driver: building the SQE, PRP setup, queue bookkeeping.
inline constexpr uint64_t kDriverSubmitNs = 400;
// ccNVMe staging of one request: serialize the 64 B SQE into the WC
// buffer plus bookkeeping — leaner than the full NVMe submission path
// ("queuing a transaction consumes only us-scale latency", §4.5).
inline constexpr uint64_t kCcNvmeStageNs = 250;
// Interrupt bottom half: context switch into the handler.
inline constexpr uint64_t kIrqContextSwitchNs = 1'200;
// Per-CQE processing in the handler.
inline constexpr uint64_t kIrqPerCqeNs = 300;
// Waking a blocked task (completion signal -> task runnable).
inline constexpr uint64_t kWakeupNs = 1'000;
// Context switch between an application thread and a dedicated journaling
// thread (the JBD2/HoraeFS commit-thread handoff the paper calls out).
inline constexpr uint64_t kJournalThreadSwitchNs = 4'000;

// File-system layer costs (extfs and the journals; see Figure 14).
inline constexpr uint64_t kFsDirtySearchAllocNs = 5'400;  // S-iD minus block layer+driver
inline constexpr uint64_t kFsInodeUpdateNs = 500;         // S-iM minus block layer+driver
inline constexpr uint64_t kFsDirUpdateNs = 300;           // S-pM minus block layer+driver
inline constexpr uint64_t kFsJournalDescNs = 250;         // building the JH block
// JBD2 commit-thread work per journaled buffer (tags, buffer_head
// management) — part of the "software overhead" column of Table 1.
inline constexpr uint64_t kJbd2PerBlockNs = 2'000;
// JBD2 journal-lock window at the start of each commit: new handles
// (joins) stall while the commit thread locks the journal and walks the
// transaction state machine.
inline constexpr uint64_t kJbd2CommitLockNs = 10'000;
// Commit-thread post-processing after the I/O completes: checkpoint-list
// insertion, buffer state transitions, stats.
inline constexpr uint64_t kJbd2CommitPostNs = 15'000;
// Commit-thread cost per waiting fsync caller (wakeup dispatch, per-handle
// bookkeeping). With many threads group-committing, this serial cost is
// why "the computing power of a single CPU core is inadequate for newer
// fast drives" (§3) — the single commit thread becomes the bottleneck.
inline constexpr uint64_t kJbd2PerWaiterNs = 4'000;
inline constexpr uint64_t kFsMemcpy4kNs = 350;  // copying one 4 KB block
inline constexpr uint64_t kFsTxBeginNs = 150;   // transaction bookkeeping
inline constexpr uint64_t kFsPageLockNs = 80;   // lock/unlock a page

}  // namespace ccnvme

#endif  // SRC_DRIVER_HOST_COSTS_H_
