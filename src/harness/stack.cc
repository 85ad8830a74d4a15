#include "src/harness/stack.h"

#include <cstdio>
#include <cstdlib>

#include "src/common/logging.h"

namespace ccnvme {

StorageStack::StorageStack(const StackConfig& config) : config_(config) { Build(nullptr); }

StorageStack::StorageStack(const StackConfig& config, const CrashImage& image)
    : config_(config) {
  Build(&image);
}

StorageStack::~StorageStack() {
  if (sim_ != nullptr) {
    sim_->Shutdown();
  }
  if (metrics_ != nullptr && !metrics_dump_path_.empty()) {
    // Automatic end-of-run dump ($CCNVME_METRICS): append one compact JSON
    // line per stack so a bench sweep accumulates a JSONL file that
    // tools/metrics_report and the CI violation gate consume.
    const std::string line = ExportJson(metrics_->TakeSnapshot(), /*pretty=*/false);
    if (metrics_dump_path_ == "1" || metrics_dump_path_ == "-") {
      std::fprintf(stderr, "%s\n", line.c_str());
    } else if (std::FILE* f = std::fopen(metrics_dump_path_.c_str(), "a")) {
      std::fprintf(f, "%s\n", line.c_str());
      std::fclose(f);
    }
  }
}

void StorageStack::Build(const CrashImage* image) {
  // Every member device is provisioned for the whole volume address space:
  // the media store is sparse, so over-provisioning a striped member costs
  // nothing and keeps the geometry arithmetic out of the capacity clamp.
  config_.ssd.capacity_bytes =
      std::max<uint64_t>(config_.ssd.capacity_bytes, config_.fs_total_blocks * kFsBlockSize);
  const uint16_t n = std::max<uint16_t>(1, config_.num_devices);
  config_.num_devices = n;
  sim_ = std::make_unique<Simulator>();

  if (image != nullptr) {
    CCNVME_CHECK_EQ(image->devices.size(), static_cast<size_t>(n))
        << "crash image device count does not match the stack config";
  }

  std::vector<Volume::Member> members;
  for (uint16_t d = 0; d < n; ++d) {
    links_.push_back(std::make_unique<PcieLink>(sim_.get(), config_.pcie));
    ssds_.push_back(std::make_unique<SsdModel>(sim_.get(), config_.ssd));

    NvmeControllerConfig ctrl_cfg;
    ctrl_cfg.num_io_queues = config_.num_queues;
    ctrl_cfg.queue_depth = config_.queue_depth;
    controllers_.push_back(std::make_unique<NvmeController>(sim_.get(), links_[d].get(),
                                                            ssds_[d].get(), ctrl_cfg));

    if (image != nullptr) {
      ssds_[d]->media().LoadDurable(image->devices[d].media);
      // PMR contents survive power loss by design (§4.4).
      CCNVME_CHECK_EQ(image->devices[d].pmr.size(), controllers_[d]->pmr().size());
      controllers_[d]->pmr() = Pmr(image->devices[d].pmr);
    }

    NvmeDriverConfig drv_cfg;
    drv_cfg.num_queues = config_.num_queues;
    drv_cfg.costs = config_.costs;
    nvmes_.push_back(std::make_unique<NvmeDriver>(sim_.get(), links_[d].get(),
                                                  controllers_[d].get(), drv_cfg));

    if (config_.enable_ccnvme) {
      CcNvmeOptions cc_opts = config_.cc_options;
      cc_opts.num_queues = config_.num_queues;
      ccs_.push_back(std::make_unique<CcNvmeDriver>(sim_.get(), links_[d].get(),
                                                    controllers_[d].get(), config_.costs,
                                                    cc_opts));
      ccs_[d]->set_device_id(d);
    } else {
      ccs_.push_back(nullptr);
    }
    opimqs_.push_back(std::make_unique<OpimqDriver>(
        sim_.get(), nvmes_[d].get(),
        config_.ssd.volatile_cache && !config_.ssd.power_loss_protection));
    members.push_back(Volume::Member{nvmes_[d].get(), ccs_[d].get(), ssds_[d].get()});
  }

  if (image != nullptr && config_.volume.kind == VolumeKind::kMirror) {
    // Mirror legs can diverge across a crash (one leg's doorbell rung,
    // another's not). Reads are served by the primary leg, so resync the
    // others from leg 0's durable media before anything is mounted. Each
    // leg's PMR is left alone — recovery scans the union of the members'
    // real [P-SQ-head, P-SQDB) windows.
    for (uint16_t d = 1; d < n; ++d) {
      ssds_[d]->media().LoadDurable(image->devices[0].media);
    }
  }
  volume_ = std::make_unique<Volume>(sim_.get(), config_.volume, std::move(members));
  blk_ = std::make_unique<BlockLayer>(sim_.get(), volume_.get(), config_.costs);
  if (config_.nvm.enabled || config_.fs.journal == JournalKind::kNvlog) {
    config_.nvm.enabled = true;
    if (image != nullptr && !image->nvm.empty()) {
      // NVM contents survive power loss by design; boot from the image.
      config_.nvm.size_bytes = image->nvm.size();
      nvm_ = std::make_unique<NvmDevice>(sim_.get(), config_.nvm, image->nvm);
    } else {
      nvm_ = std::make_unique<NvmDevice>(sim_.get(), config_.nvm);
    }
    blk_->set_nvm(nvm_.get());
  }
  fs_ = std::make_unique<ExtFs>(sim_.get(), blk_.get(), config_.costs, config_.fs);

  if (config_.kv.enabled) {
    CCNVME_CHECK_EQ(n, 1) << "the KV-native path is a single-device architecture";
    kv_ssd_ = std::make_unique<KvSsd>(sim_.get(), ssds_[0].get(),
                                      &controllers_[0]->pmr(), config_.kv);
    controllers_[0]->set_kv_ssd(kv_ssd_.get());
    kv_driver_ = std::make_unique<KvNvmeDriver>(sim_.get(), nvmes_[0].get());
  }

  if (const char* env = std::getenv("CCNVME_METRICS"); env != nullptr && *env != '\0') {
    metrics_dump_path_ = env;
    EnableMetrics();
  }
}

Status StorageStack::MkfsAndMount() {
  Status result = OkStatus();
  Run([&] {
    result = ExtFs::Mkfs(sim_.get(), blk_.get(), config_.fs_total_blocks, config_.fs);
    if (result.ok()) {
      result = fs_->Mount();
    }
  });
  return result;
}

Status StorageStack::MountExisting() {
  Status result = OkStatus();
  Run([&] { result = fs_->Mount(); });
  return result;
}

Status StorageStack::Unmount() {
  Status result = OkStatus();
  Run([&] { result = fs_->Unmount(); });
  return result;
}

Status StorageStack::KvFormat() {
  CCNVME_CHECK(kv_ssd_ != nullptr) << "stack built without config.kv.enabled";
  Status result = OkStatus();
  Run([&] { result = kv_ssd_->Format(); });
  return result;
}

Status StorageStack::KvAttach() {
  CCNVME_CHECK(kv_ssd_ != nullptr) << "stack built without config.kv.enabled";
  Status result = OkStatus();
  Run([&] { result = kv_ssd_->Attach(); });
  return result;
}

Tracer& StorageStack::EnableTracing(size_t ring_capacity) {
  if (tracer_ == nullptr) {
    tracer_ = std::make_unique<Tracer>(sim_.get(), ring_capacity);
  }
  sim_->set_tracer(tracer_.get());
  return *tracer_;
}

CriticalPathProfiler& StorageStack::EnableProfiling(ProfilerOptions options) {
  Tracer& tracer = EnableTracing();
  if (profiler_ == nullptr) {
    profiler_ = std::make_unique<CriticalPathProfiler>(options);
  }
  profiler_->Attach(&tracer);
  return *profiler_;
}

Metrics& StorageStack::EnableMetrics() {
  EnableTracing();
  if (metrics_ == nullptr) {
    metrics_ = std::make_unique<Metrics>(sim_.get());
  }
  sim_->set_metrics(metrics_.get());
  return *metrics_;
}

void StorageStack::SetRecorder(BioRecorder recorder) {
  for (auto& cc : ccs_) {
    if (cc != nullptr) {
      cc->set_recorder(recorder);
    }
  }
  if (nvm_ != nullptr) {
    nvm_->set_recorder(recorder);
  }
  if (kv_ssd_ != nullptr) {
    kv_ssd_->set_recorder(recorder);
  }
  volume_->set_recorder(std::move(recorder));
}

CrashImage StorageStack::CaptureCrashImage() const {
  CrashImage image;
  image.devices.resize(ssds_.size());
  for (size_t d = 0; d < ssds_.size(); ++d) {
    image.devices[d].media = ssds_[d]->media().SnapshotDurable();
    image.devices[d].pmr = controllers_[d]->pmr().image();
  }
  if (nvm_ != nullptr) {
    image.nvm = nvm_->durable_image();
  }
  return image;
}

void StorageStack::Spawn(const std::string& name, std::function<void()> body, uint16_t queue) {
  sim_->Spawn(name, [this, queue, body = std::move(body)] {
    blk_->BindQueue(queue);
    body();
  });
}

void StorageStack::Run(std::function<void()> body, uint16_t queue) {
  Spawn("harness", std::move(body), queue);
  sim_->Run();
}

}  // namespace ccnvme
