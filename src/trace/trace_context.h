// Request-flow attribution context.
//
// A TraceContext carries the (request id, transaction id) pair of the
// file-system operation currently executing on this actor. It flows with the
// request: the file system allocates a request id per fsync/fatomic, the
// journal stamps the transaction id, the drivers copy it into the NVMe SQE
// (CDW4-5, reserved in the spec and unused by this device model) and restore
// it on the device/bottom-half actors when the command or CQE is processed —
// so one end-to-end sync decomposes into attributed per-layer spans.
//
// Each simulator actor is its own std::thread (see src/sim/simulator.h), so
// thread_local gives exactly per-actor storage with zero contention — the
// same trick the block layer uses for its per-actor queue binding.
//
// Ids are allocated and propagated UNCONDITIONALLY, whether or not a Tracer
// is attached: attribution must never change virtual-time behavior, and the
// cheapest way to guarantee that is to make the id plumbing identical in
// both modes (the determinism test in tests/trace_test.cc enforces it).
#ifndef SRC_TRACE_TRACE_CONTEXT_H_
#define SRC_TRACE_TRACE_CONTEXT_H_

#include <cstdint>

namespace ccnvme {

struct TraceContext {
  uint64_t req_id = 0;   // 0 = unattributed
  uint64_t tx_id = 0;    // 0 = no transaction
  uint16_t device = 0;   // member device of a multi-device volume
};

namespace trace_internal {
inline thread_local TraceContext tls_trace_ctx;
}  // namespace trace_internal

inline TraceContext& MutableTraceContext() { return trace_internal::tls_trace_ctx; }
inline const TraceContext& CurrentTraceContext() { return trace_internal::tls_trace_ctx; }

// RAII: installs |ctx| for the current actor, restores the previous context
// on destruction (exception-safe across SimShutdown unwinding).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx) : saved_(trace_internal::tls_trace_ctx) {
    trace_internal::tls_trace_ctx = ctx;
  }
  ~ScopedTraceContext() { trace_internal::tls_trace_ctx = saved_; }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

}  // namespace ccnvme

#endif  // SRC_TRACE_TRACE_CONTEXT_H_
