// Full-stack test bench: wires simulator, PCIe link, SSD, NVMe controller,
// host drivers, block layer and (optionally) a mounted file system into one
// object, with crash/remount support.
//
// Used by the unit/integration tests, the CrashMonkey-style tester, the
// benchmark binaries and the examples — it is the "server in the lab".
#ifndef SRC_HARNESS_STACK_H_
#define SRC_HARNESS_STACK_H_

#include <functional>
#include <memory>

#include <vector>

#include "src/block/block_layer.h"
#include "src/driver/kv_driver.h"
#include "src/driver/opimq.h"
#include "src/extfs/extfs.h"
#include "src/metrics/export.h"
#include "src/metrics/metrics.h"
#include "src/nvm/nvm_device.h"
#include "src/nvme/kv_ssd.h"
#include "src/pcie/pcie_link.h"
#include "src/profile/critical_path.h"
#include "src/trace/tracer.h"
#include "src/volume/volume.h"

namespace ccnvme {

struct StackConfig {
  SsdConfig ssd = SsdConfig::Optane905P();
  // Interconnect timing (doorbell MMIO cost, WC buffer, DMA bandwidth).
  PcieConfig pcie;
  uint16_t num_queues = 1;
  bool enable_ccnvme = true;
  uint16_t queue_depth = 256;
  CcNvmeOptions cc_options;
  // Device size in 4 KB blocks (default 1 GB — plenty for the workloads and
  // cheap to simulate).
  uint64_t fs_total_blocks = 256 * 1024;
  ExtFsOptions fs;
  // Number of member devices (each with its own link/SSD/controller/
  // drivers), bound into one crash-consistent volume per |volume|. 1 = the
  // classic single-device stack.
  uint16_t num_devices = 1;
  VolumeConfig volume;
  // Byte-addressable NVM tier (NVLog). Created when |nvm.enabled| or the
  // file system selects JournalKind::kNvlog.
  NvmConfig nvm;
  // KV-native device path (demand-paged FTL + NVMe KV command set). When
  // |kv.enabled| the stack builds a KvSsd over device 0's flash + PMR and a
  // KvNvmeDriver on top; single-device stacks only.
  KvSsdConfig kv;
};

// One member device's durable bytes: media durable view + PMR.
struct DeviceImage {
  MediaStore::BlockMap media;
  PageImage pmr;
};

// The durable bytes that survive a power cut, one entry per member device
// (single-device stacks use devices[0] via the accessors). Every media
// block and PMR and NVM page is shared with the stack it was captured from
// and with every stack booted from the image, so copying an image copies
// handles, not bytes.
struct CrashImage {
  std::vector<DeviceImage> devices;
  // Durable view of the byte-addressable NVM tier; empty when the stack has
  // none. Like the PMR, NVM contents survive power loss by design — only
  // unfenced stores are at the crash explorer's mercy.
  PageImage nvm;

  CrashImage() : devices(1) {}
  MediaStore::BlockMap& media() { return devices[0].media; }
  const MediaStore::BlockMap& media() const { return devices[0].media; }
  PageImage& pmr() { return devices[0].pmr; }
  const PageImage& pmr() const { return devices[0].pmr; }
};

class StorageStack {
 public:
  explicit StorageStack(const StackConfig& config);
  ~StorageStack();

  // Builds a stack whose device boots from |image| (post-crash state).
  StorageStack(const StackConfig& config, const CrashImage& image);

  // Formats and mounts a fresh file system (runs inside an actor).
  Status MkfsAndMount();
  // Mounts the existing on-media file system (post-crash: runs recovery).
  Status MountExisting();
  Status Unmount();

  // KV-native path equivalents (config().kv.enabled stacks; runs inside an
  // actor like MkfsAndMount/MountExisting).
  Status KvFormat();
  Status KvAttach();

  // Captures what a power cut right now would leave behind. With a
  // volatile-cache drive, pending cached writes are LOST (the conservative
  // image); the crash tester explores survivor subsets itself.
  CrashImage CaptureCrashImage() const;

  // Convenience: spawns |body| as an actor bound to queue/core |queue| and
  // runs the simulation until idle.
  void Run(std::function<void()> body, uint16_t queue = 0);
  // Spawn without running (for multi-actor setups); call sim().Run() after.
  void Spawn(const std::string& name, std::function<void()> body, uint16_t queue = 0);

  // Installs |recorder| on every event source in the stack: the volume
  // (media bios + completions) and, when present, the ccNVMe drivers (PMR
  // stores, fences, doorbell rings, head advances), the NVM tier and the
  // KV-SSD. The domains share one stream so a crash tester sees their true
  // interleaving.
  void SetRecorder(BioRecorder recorder);

  // Creates a Tracer and attaches it to the simulator so every layer's
  // instrumentation points fire. Idempotent (the first call's capacity
  // wins); the tracer lives as long as the stack.
  Tracer& EnableTracing(size_t ring_capacity = Tracer::kDefaultRingCapacity);
  // The attached tracer, or nullptr when tracing was never enabled.
  Tracer* tracer() { return tracer_.get(); }

  // Creates the metrics engine (registry + invariant monitors) and attaches
  // it to the simulator. Implies EnableTracing — phase attribution is fed
  // from completed trace spans. Idempotent; lives as long as the stack.
  // Also enabled automatically when $CCNVME_METRICS is set (see Build), in
  // which case the destructor appends one compact JSON snapshot line to the
  // named file ("1"/empty = stderr) — benches get dumps with zero changes.
  Metrics& EnableMetrics();
  // The attached metrics engine, or nullptr when never enabled.
  Metrics* metrics() { return metrics_.get(); }

  // Creates a causal critical-path profiler and hooks it onto the tracer's
  // sink (implies EnableTracing). Pure observer: virtual time is
  // byte-identical with profiling on or off. Idempotent (the first call's
  // options win); lives as long as the stack.
  CriticalPathProfiler& EnableProfiling(ProfilerOptions options = {});
  // The attached profiler, or nullptr when never enabled.
  CriticalPathProfiler* profiler() { return profiler_.get(); }

  Simulator& sim() { return *sim_; }
  // Device-0 accessors (the only device on classic stacks).
  PcieLink& link() { return *links_[0]; }
  SsdModel& ssd() { return *ssds_[0]; }
  NvmeController& controller() { return *controllers_[0]; }
  NvmeDriver& nvme() { return *nvmes_[0]; }
  CcNvmeDriver* ccnvme() { return ccs_[0].get(); }
  // Order-preserving submission driver (OPIMQ-style engine); always present.
  OpimqDriver& opimq() { return *opimqs_[0]; }
  // Per-member accessors for multi-device stacks.
  uint16_t num_devices() const { return static_cast<uint16_t>(ssds_.size()); }
  SsdModel& ssd(uint16_t device) { return *ssds_[device]; }
  NvmeController& controller(uint16_t device) { return *controllers_[device]; }
  NvmeDriver& nvme(uint16_t device) { return *nvmes_[device]; }
  CcNvmeDriver* ccnvme(uint16_t device) { return ccs_[device].get(); }
  OpimqDriver& opimq(uint16_t device) { return *opimqs_[device]; }
  // The volume binding the member devices (one or more).
  Volume* volume() { return volume_.get(); }
  // The byte-addressable NVM tier, or nullptr when the stack has none.
  NvmDevice* nvm_device() { return nvm_.get(); }
  // The KV-native device path, or nullptr when config.kv.enabled is false.
  KvSsd* kv_ssd() { return kv_ssd_.get(); }
  KvNvmeDriver* kv_driver() { return kv_driver_.get(); }
  BlockLayer& blk() { return *blk_; }
  ExtFs& fs() { return *fs_; }
  const StackConfig& config() const { return config_; }

 private:
  void Build(const CrashImage* image);

  StackConfig config_;
  // Declared before sim_ so they outlive the simulator during member
  // destruction: Shutdown() (run in ~StorageStack's body) unwinds actors
  // whose RAII spans still call into the tracer/metrics.
  std::unique_ptr<Metrics> metrics_;
  std::unique_ptr<CriticalPathProfiler> profiler_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<Simulator> sim_;
  // Non-empty when $CCNVME_METRICS requested an automatic end-of-run dump.
  std::string metrics_dump_path_;
  std::vector<std::unique_ptr<PcieLink>> links_;
  std::vector<std::unique_ptr<SsdModel>> ssds_;
  std::vector<std::unique_ptr<NvmeController>> controllers_;
  std::vector<std::unique_ptr<NvmeDriver>> nvmes_;
  std::vector<std::unique_ptr<CcNvmeDriver>> ccs_;
  std::vector<std::unique_ptr<OpimqDriver>> opimqs_;
  std::unique_ptr<Volume> volume_;
  std::unique_ptr<NvmDevice> nvm_;
  std::unique_ptr<KvSsd> kv_ssd_;
  std::unique_ptr<KvNvmeDriver> kv_driver_;
  std::unique_ptr<BlockLayer> blk_;
  std::unique_ptr<ExtFs> fs_;
};

}  // namespace ccnvme

#endif  // SRC_HARNESS_STACK_H_
