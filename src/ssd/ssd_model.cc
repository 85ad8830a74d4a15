#include "src/ssd/ssd_model.h"

namespace ccnvme {

SsdConfig SsdConfig::Intel750() {
  SsdConfig c;
  c.name = "Intel 750 (flash, 2015)";
  c.read_bw_bytes_per_sec = 2'200'000'000ull;
  c.write_bw_bytes_per_sec = 950'000'000ull;
  c.read_latency_ns = 15'000;
  c.write_latency_ns = 16'000;
  c.channels = 7;
  c.volatile_cache = true;
  c.power_loss_protection = false;
  c.cache_write_latency_ns = 14'000;
  c.flush_base_ns = 60'000;
  return c;
}

SsdConfig SsdConfig::Optane905P() {
  SsdConfig c;
  c.name = "Intel Optane 905P (2018)";
  c.read_bw_bytes_per_sec = 2'600'000'000ull;
  c.write_bw_bytes_per_sec = 2'200'000'000ull;
  c.read_latency_ns = 5'500;
  c.write_latency_ns = 5'500;
  c.channels = 4;
  c.volatile_cache = false;
  c.power_loss_protection = true;
  return c;
}

SsdConfig SsdConfig::OptaneP5800X() {
  SsdConfig c;
  c.name = "Intel Optane DC P5800X (2020, PCIe3 host)";
  // Table 3 footnote: on the paper's PCIe 3.0 server the drive delivers
  // 3.3 GB/s and ~850K/820K IOPS with 8/9 us kernel-path latency.
  c.read_bw_bytes_per_sec = 3'300'000'000ull;
  c.write_bw_bytes_per_sec = 3'300'000'000ull;
  c.read_latency_ns = 4'000;
  c.write_latency_ns = 4'000;
  c.channels = 5;
  c.volatile_cache = false;
  c.power_loss_protection = true;
  return c;
}

SsdModel::SsdModel(Simulator* sim, const SsdConfig& config)
    : sim_(sim),
      config_(config),
      media_(config.capacity_bytes),
      jitter_rng_(config.jitter_seed),
      channels_(sim, config.name + "/channels", static_cast<uint64_t>(config.channels)),
      read_pipe_(sim, config.name + "/read", config.read_bw_bytes_per_sec),
      write_pipe_(sim, config.name + "/write", config.write_bw_bytes_per_sec) {}

uint64_t SsdModel::JitteredLatency(uint64_t base_ns) {
  if (config_.latency_jitter_pct == 0) {
    return base_ns;
  }
  // Uniform in [1 - j, 1 + j] of the base latency, deterministic per seed.
  const double j = config_.latency_jitter_pct / 100.0;
  const double factor = 1.0 - j + 2.0 * j * jitter_rng_.NextDouble();
  return static_cast<uint64_t>(static_cast<double>(base_ns) * factor);
}

bool SsdModel::MediaWrite(uint64_t offset, std::span<const uint8_t> data, bool fua) {
  writes_served_++;
  channels_.Acquire(1);
  // Media program latency overlaps with the backend transfer: the command
  // finishes when both are done.
  const bool cache_absorbs = config_.volatile_cache && !fua;
  const uint64_t latency = JitteredLatency(cache_absorbs ? config_.cache_write_latency_ns
                                                         : config_.write_latency_ns);
  const uint64_t pipe_done = write_pipe_.ReserveFinishTime(data.size());
  const uint64_t done = std::max(sim_->now() + latency, pipe_done);
  Simulator::Sleep(done - sim_->now());
  channels_.Release(1);
  if (write_errors_ > 0) {
    write_errors_--;
    return false;  // media program failure; nothing written
  }
  // Durability: PLP drives and FUA writes are durable at completion. A
  // volatile-cache non-FUA write is only cached.
  if (config_.volatile_cache && !fua && !config_.power_loss_protection) {
    media_.WriteCached(offset, data);
  } else {
    media_.WriteDurable(offset, data);
  }
  return true;
}

bool SsdModel::MediaRead(uint64_t offset, std::span<uint8_t> out) {
  reads_served_++;
  channels_.Acquire(1);
  const uint64_t latency = JitteredLatency(config_.read_latency_ns);
  const uint64_t pipe_done = read_pipe_.ReserveFinishTime(out.size());
  const uint64_t done = std::max(sim_->now() + latency, pipe_done);
  Simulator::Sleep(done - sim_->now());
  channels_.Release(1);
  if (read_errors_ > 0) {
    read_errors_--;
    return false;  // uncorrectable read error
  }
  media_.Read(offset, out);
  return true;
}

void SsdModel::MediaFlush() {
  flushes_served_++;
  if (!config_.volatile_cache || config_.power_loss_protection) {
    // PLP: the paper notes the FLUSH is effectively free on Optane drives.
    return;
  }
  // Backend bandwidth for the cached bytes was already charged at insert
  // time (the write_pipe reservation); the flush pays the barrier cost.
  Simulator::Sleep(config_.flush_base_ns);
  media_.Flush();
}

void SsdModel::ResetStats() {
  reads_served_ = 0;
  writes_served_ = 0;
  flushes_served_ = 0;
  read_pipe_.ResetStats();
  write_pipe_.ResetStats();
}

}  // namespace ccnvme
