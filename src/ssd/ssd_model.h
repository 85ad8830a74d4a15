// SSD performance and durability model.
//
// Calibrated against Table 3 of the paper. The service model is:
//   * |channels| parallel media units, each holding a request for the media
//     access latency (this bounds IOPS at channels/latency), then
//   * a serialized backend pipe per direction (this bounds bandwidth).
// For the drives in Table 3 the published 4 KB random IOPS times 4 KB is
// almost exactly the sequential bandwidth, so this two-stage model matches
// both columns simultaneously.
//
// Durability: Optane drives carry power-loss protection (PLP), so completed
// writes are durable and FLUSH is a no-op (the paper exploits this in
// Figure 14: "the FLUSH is ignored by the block layer"). The flash 750 has a
// volatile cache: completed non-FUA writes sit in MediaStore's pending list
// until a FLUSH, and a power cut may destage any subset of them.
#ifndef SRC_SSD_SSD_MODEL_H_
#define SRC_SSD_SSD_MODEL_H_

#include <cstdint>
#include <span>
#include <string>

#include "src/common/rng.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/ssd/media.h"

namespace ccnvme {

struct SsdConfig {
  std::string name;
  uint64_t capacity_bytes = 16ull << 30;
  uint64_t read_bw_bytes_per_sec = 2'000'000'000ull;
  uint64_t write_bw_bytes_per_sec = 2'000'000'000ull;
  uint64_t read_latency_ns = 10'000;
  uint64_t write_latency_ns = 10'000;
  int channels = 6;
  // Volatile write cache present (completions are not durable until FLUSH).
  bool volatile_cache = false;
  // Power-loss protection: cache contents survive a power cut; FLUSH is a
  // no-op for durability purposes.
  bool power_loss_protection = true;
  // Latency of a cache-insert write when the volatile cache absorbs it.
  uint64_t cache_write_latency_ns = 3'000;
  // Fixed cost of a FLUSH command on a volatile-cache drive.
  uint64_t flush_base_ns = 30'000;
  // Media-latency jitter in percent (+/-): real drives' channel conflicts
  // and internal scheduling make command latencies vary, which is what
  // causes out-of-order completions. Deterministic per seed.
  uint32_t latency_jitter_pct = 25;
  uint64_t jitter_seed = 0x5eed;

  // Table 3 presets.
  static SsdConfig Intel750();       // 2015 flash
  static SsdConfig Optane905P();     // 2018 Optane
  static SsdConfig OptaneP5800X();   // 2020 Optane, PCIe 3.0-limited testbed
};

class SsdModel {
 public:
  SsdModel(Simulator* sim, const SsdConfig& config);

  // Media-side service of a write whose payload is already on the device
  // (the controller calls this after the data DMA). Blocks the calling
  // actor for the service time. FUA or flush-less drives write durably.
  // Return false on an injected media error (timing is still charged).
  bool MediaWrite(uint64_t offset, std::span<const uint8_t> data, bool fua);
  bool MediaRead(uint64_t offset, std::span<uint8_t> out);
  void MediaFlush();

  // Fault injection: the next |count| media writes (or reads) fail with a
  // device error; the controller reports a non-zero NVMe status and the
  // stack must surface it cleanly. Returns through Media*'s bool result.
  void InjectWriteErrors(int count) { write_errors_ = count; }
  void InjectReadErrors(int count) { read_errors_ = count; }

  MediaStore& media() { return media_; }
  const SsdConfig& config() const { return config_; }

  uint64_t reads_served() const { return reads_served_; }
  uint64_t writes_served() const { return writes_served_; }
  uint64_t flushes_served() const { return flushes_served_; }
  // Busy time of the write backend — used for the paper's I/O-utilization
  // plots (iostat-style "used bandwidth / maximum bandwidth").
  double WriteUtilizationSince(uint64_t window_start_ns) const {
    return write_pipe_.UtilizationSince(window_start_ns);
  }
  void ResetStats();

 private:
  uint64_t JitteredLatency(uint64_t base_ns);

  Simulator* sim_;
  SsdConfig config_;
  MediaStore media_;
  Rng jitter_rng_;
  Resource channels_;
  BandwidthPipe read_pipe_;
  BandwidthPipe write_pipe_;
  uint64_t reads_served_ = 0;
  uint64_t writes_served_ = 0;
  uint64_t flushes_served_ = 0;
  int write_errors_ = 0;
  int read_errors_ = 0;
};

}  // namespace ccnvme

#endif  // SRC_SSD_SSD_MODEL_H_
