// The paper's indirect evaluation implementation (§6, Figure 9(b)).
//
// The authors' commercial test SSDs had no PMR, so they wrapped each test
// SSD with a second, PMR-capable SSD: ccNVMe performs its queue and
// doorbell operations (persistent MMIOs) against the PMR SSD, then forwards
// the request to the test SSD through the ordinary block layer; on
// completion it rings the completion doorbell on the PMR SSD. The MMIOs are
// therefore duplicated (one set to each device) while block I/O and MSI-X
// remain single — so measurements on this implementation are a lower bound
// on the ideal single-device design of Figure 9(a).
//
// This class reproduces that topology: a second PcieLink+Pmr pair stands in
// for the PMR SSD; data rides a stock NvmeDriver attached to the test SSD.
// bench/fig9_indirect compares it against the ideal CcNvmeDriver.
#ifndef SRC_CCNVME_INDIRECT_H_
#define SRC_CCNVME_INDIRECT_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/ccnvme/ccnvme_driver.h"
#include "src/driver/nvme_driver.h"
#include "src/pcie/wc_buffer.h"

namespace ccnvme {

class IndirectCcNvme {
 public:
  struct Transaction {
    explicit Transaction(Simulator* sim) : durable(sim) {}
    uint64_t tx_id = 0;
    SimCompletion durable;
    uint64_t atomic_at_ns = 0;
    uint64_t durable_at_ns = 0;
    int outstanding = 0;
    bool committed = false;
    uint16_t end_slot = 0;
  };
  using TxHandle = std::shared_ptr<Transaction>;

  // |pmr_link| and |pmr| model the wrapping PMR SSD; |nvme| is the driver
  // of the test SSD (carries the data path).
  IndirectCcNvme(Simulator* sim, PcieLink* pmr_link, Pmr* pmr, NvmeDriver* nvme,
                 uint16_t num_queues, uint16_t queue_depth = 256);

  void SubmitTx(uint16_t qid, uint64_t tx_id, uint64_t slba, const Buffer* data);
  TxHandle CommitTx(uint16_t qid, uint64_t tx_id, uint64_t slba, const Buffer* data);
  void WaitDurable(const TxHandle& tx) { tx->durable.Wait(); }

  uint64_t transactions_completed() const { return completed_; }

 private:
  struct PendingForward {
    uint64_t slba;
    const Buffer* data;
    uint32_t tx_flags;
  };
  struct Queue {
    size_t pmr_base = 0;
    std::unique_ptr<WcBuffer> wc;
    uint16_t sq_tail = 0;
    uint16_t psq_head = 0;
    TxHandle open_tx;
    std::deque<TxHandle> inflight;
    // Requests staged on the PMR SSD but not yet forwarded to the test SSD:
    // forwarding happens at commit, mirroring the ideal design's
    // transaction-aware doorbell (the device must not see a transaction
    // before its atomicity point).
    std::vector<PendingForward> pending;
  };

  // Duplicated MMIO set: stage the SQE into the PMR SSD's P-SQ, then
  // forward the request to the test SSD (whose driver pays its own MMIOs).
  void StageToPmr(Queue& q, const NvmeCommand& cmd);
  void OnMemberComplete(uint16_t qid, const TxHandle& tx);

  Simulator* sim_;
  PcieLink* pmr_link_;
  Pmr* pmr_;
  NvmeDriver* nvme_;
  uint16_t queue_depth_;
  std::vector<std::unique_ptr<Queue>> queues_;
  uint64_t completed_ = 0;
};

}  // namespace ccnvme

#endif  // SRC_CCNVME_INDIRECT_H_
