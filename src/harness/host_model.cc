#include "src/harness/host_model.h"

#include "src/common/logging.h"

namespace ccnvme {

HostModel::HostModel(StorageStack* stack, const HostModelConfig& config)
    : stack_(stack), config_(config) {
  config_.num_cores = std::max<uint16_t>(1, config_.num_cores);
  config_.contexts_per_core = std::max<uint16_t>(1, config_.contexts_per_core);
  if (config_.total_contexts == 0) {
    config_.total_contexts =
        static_cast<uint32_t>(config_.num_cores) * config_.contexts_per_core;
  }
  for (uint16_t c = 0; c < config_.num_cores; ++c) {
    cores_.push_back(std::make_unique<Core>(&stack_->sim()));
  }
}

void HostModel::AddClient(std::string name, ClientOp op, uint16_t core) {
  CCNVME_CHECK(!started_) << "AddClient after Start";
  if (core == kAnyCore) {
    core = static_cast<uint16_t>(clients_.size() % cores_.size());
  }
  CCNVME_CHECK_LT(core, cores_.size());
  clients_.push_back(Client{std::move(name), std::move(op), core});
  Core& c = *cores_[core];
  c.runq.push_back(clients_.size() - 1);
  c.live++;
}

void HostModel::Start() {
  CCNVME_CHECK(!started_) << "Start called twice";
  started_ = true;
  // Every core that has clients needs at least one context, or its run
  // queue would sit unserved forever.
  std::vector<uint32_t> contexts(cores_.size(), 0);
  for (uint32_t j = 0; j < config_.total_contexts; ++j) {
    contexts[j % cores_.size()]++;
  }
  for (size_t c = 0; c < cores_.size(); ++c) {
    CCNVME_CHECK(cores_[c]->live == 0 || contexts[c] > 0)
        << "core " << c << " has clients but no hardware context";
  }
  last_client_.resize(cores_.size());
  for (size_t c = 0; c < cores_.size(); ++c) {
    last_client_[c].assign(contexts[c], SIZE_MAX);
  }
  // Contexts spawn in global round-robin order so context j of the legacy
  // "N threads" mapping (total_contexts = N) is spawned exactly when thread
  // j used to be.
  std::vector<uint32_t> next_context(cores_.size(), 0);
  const uint16_t num_queues = stack_->config().num_queues;
  for (uint32_t j = 0; j < config_.total_contexts; ++j) {
    const uint16_t core = static_cast<uint16_t>(j % cores_.size());
    const uint32_t context = next_context[core]++;
    const uint16_t queue = static_cast<uint16_t>(core % num_queues);
    stack_->Spawn("core" + std::to_string(core) + ".ctx" + std::to_string(context),
                  [this, core, context] { ContextLoop(core, context); }, queue);
  }
}

void HostModel::Run() {
  Start();
  stack_->sim().Run();
  for (size_t c = 0; c < cores_.size(); ++c) {
    CCNVME_CHECK_EQ(cores_[c]->live, 0u)
        << "core " << c << " retired with unfinished clients";
  }
}

void HostModel::ContextLoop(uint16_t core, uint32_t context) {
  Core& c = *cores_[core];
  size_t& last = last_client_[core][context];
  for (;;) {
    c.mu.Lock();
    while (c.runq.empty() && c.live > 0) {
      c.work.Wait(c.mu);
    }
    if (c.runq.empty()) {
      // live == 0: every client of this core has retired.
      c.mu.Unlock();
      return;
    }
    const size_t idx = c.runq.front();
    c.runq.pop_front();
    c.mu.Unlock();

    if (last != idx) {
      if (last != SIZE_MAX) {
        c.switches++;  // counted only: scheduling costs no virtual time
      }
      last = idx;
    }
    c.quanta++;
    const bool more = clients_[idx].op();

    c.mu.Lock();
    if (more) {
      c.runq.push_back(idx);
      c.mu.Unlock();
      c.work.NotifyOne();
    } else {
      c.live--;
      const bool drained = c.live == 0;
      c.mu.Unlock();
      if (drained) {
        c.work.NotifyAll();
      }
    }
  }
}

}  // namespace ccnvme
