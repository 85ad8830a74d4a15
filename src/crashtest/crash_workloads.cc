#include "src/crashtest/crash_workloads.h"

#include "src/crashtest/crash_monkey.h"

namespace ccnvme {

const std::map<std::string, CrashWorkload>& CrashWorkloadRegistry() {
  static const std::map<std::string, CrashWorkload>* const kRegistry =
      new std::map<std::string, CrashWorkload>{
          {"create_delete", CrashMonkey::CreateDelete()},
          {"generic_035", CrashMonkey::Generic035()},
          {"generic_106", CrashMonkey::Generic106()},
          {"generic_321", CrashMonkey::Generic321()},
          {"truncate_shrink_grow", CrashMonkey::TruncateShrinkGrow()},
          {"overwrite_mixed", CrashMonkey::OverwriteMixed()},
          {"atomic_overwrite", CrashMonkey::AtomicOverwrite()},
          {"nvlog_appends", CrashMonkey::NvlogAppends()},
          {"nvlog_overwrite_churn", CrashMonkey::NvlogOverwriteChurn()},
          {"multicore_appends", CrashMonkey::MultiCoreAppends()},
          {"samecore_appends", CrashMonkey::SameCoreAppends()},
          {"multicore_shared_fsync", CrashMonkey::MultiCoreSharedFsync()},
          {"kv_put_get", CrashMonkey::KvPutGet()},
          {"kv_overwrite_churn", CrashMonkey::KvOverwriteChurn()},
          {"kv_concurrent_churn", CrashMonkey::KvConcurrentChurn()},
          {"kv_packed_churn", CrashMonkey::KvPackedChurn()},
      };
  return *kRegistry;
}

Result<CrashWorkload> FindCrashWorkload(const std::string& name) {
  const auto& reg = CrashWorkloadRegistry();
  auto it = reg.find(name);
  if (it == reg.end()) {
    return NotFound("unknown crash workload: " + name);
  }
  return it->second;
}

}  // namespace ccnvme
