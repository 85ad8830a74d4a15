#include "src/workload/varmail.h"

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace ccnvme {

namespace {

// Mail bodies and appends are uniform in [kMeanAppendBytes / 2,
// 3 * kMeanAppendBytes / 2); the read-modify-append adds half of it.
constexpr uint32_t kMeanAppendBytes = 8192;

std::string MailPath(int thread, int index) {
  return "/mail_t" + std::to_string(thread) + "_" + std::to_string(index);
}

}  // namespace

VarmailResult RunVarmail(StorageStack& stack, const VarmailOptions& options) {
  VarmailResult result;
  // Pre-create the mail set, spread across threads' name spaces so delete /
  // create cycles stay balanced. (Filebench pre-allocates the fileset too.)
  const int files_per_thread = std::max(1, options.num_files / options.num_threads);
  int prepared = 0;
  for (int t = 0; t < options.num_threads; ++t) {
    const uint16_t queue = static_cast<uint16_t>(t % stack.config().num_queues);
    stack.Spawn("varmail_prep" + std::to_string(t), [&, t] {
      Rng rng(options.seed + static_cast<uint64_t>(t));
      for (int i = 0; i < files_per_thread; ++i) {
        auto ino = stack.fs().Create(MailPath(t, i));
        CCNVME_CHECK(ino.ok());
        const Buffer body(kMeanAppendBytes / 2 + rng.Uniform(kMeanAppendBytes), 0x6D);
        CCNVME_CHECK(stack.fs().Write(*ino, 0, body).ok());
      }
      prepared++;
    }, queue);
  }
  stack.sim().Run();
  CCNVME_CHECK_EQ(prepared, options.num_threads);

  const uint64_t start_ns = stack.sim().now();
  const uint64_t end_ns = start_ns + options.duration_ns;
  int finished = 0;

  for (int t = 0; t < options.num_threads; ++t) {
    const uint16_t queue = static_cast<uint16_t>(t % stack.config().num_queues);
    stack.Spawn("varmail" + std::to_string(t), [&, t] {
      Rng rng(options.seed * 7919 + static_cast<uint64_t>(t));
      int next_new = files_per_thread;
      while (stack.sim().now() < end_ns) {
        // 1. deletefile
        const int victim = static_cast<int>(rng.Uniform(static_cast<uint64_t>(next_new)));
        if (stack.fs().Unlink(MailPath(t, victim)).ok()) {
          result.flow_ops++;
        }

        // 2. createfile + append + fsync
        const std::string fresh = MailPath(t, next_new++);
        auto created = stack.fs().Create(fresh);
        CCNVME_CHECK(created.ok());
        Buffer body(kMeanAppendBytes / 2 + rng.Uniform(kMeanAppendBytes), 0x41);
        CCNVME_CHECK(stack.fs().Write(*created, 0, body).ok());
        CCNVME_CHECK(stack.fs().Fsync(*created).ok());
        result.flow_ops++;

        // 3. open random + read whole + append + fsync
        const int reader =
            static_cast<int>(rng.Uniform(static_cast<uint64_t>(next_new)));
        auto found = stack.fs().Lookup(MailPath(t, reader));
        if (found.ok()) {
          auto size = stack.fs().FileSize(*found);
          if (size.ok() && *size > 0) {
            Buffer content(*size);
            (void)stack.fs().Read(*found, 0, content);
          }
          Buffer extra(kMeanAppendBytes / 2, 0x42);
          if (stack.fs().Append(*found, extra).ok()) {
            CCNVME_CHECK(stack.fs().Fsync(*found).ok());
          }
          result.flow_ops++;
        }

        // 4. open random + read whole
        const int reread =
            static_cast<int>(rng.Uniform(static_cast<uint64_t>(next_new)));
        auto found2 = stack.fs().Lookup(MailPath(t, reread));
        if (found2.ok()) {
          auto size = stack.fs().FileSize(*found2);
          if (size.ok() && *size > 0) {
            Buffer content(*size);
            (void)stack.fs().Read(*found2, 0, content);
          }
          result.flow_ops++;
        }
      }
      finished++;
    }, queue);
  }
  stack.sim().Run();
  CCNVME_CHECK_EQ(finished, options.num_threads);
  result.elapsed_ns = stack.sim().now() - start_ns;
  return result;
}

}  // namespace ccnvme
