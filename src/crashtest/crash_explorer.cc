#include "src/crashtest/crash_explorer.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "src/common/logging.h"
#include "src/crashtest/crash_workloads.h"
#include "src/crashtest/replay_artifact.h"

namespace ccnvme {
namespace {

// Results for one boundary, filled by whichever worker claimed it and
// merged in boundary order afterwards.
struct BoundarySlot {
  size_t checked = 0;
  bool exhaustive = false;
  std::vector<ExplorerFailure> failures;
};

void ExploreBoundary(const CrashRecording& rec, size_t crash_index,
                     const ExplorerOptions& options, BoundarySlot& slot) {
  BoundaryPlans bp = PlansForBoundary(rec, crash_index, options);
  slot.exhaustive = bp.exhaustive;
  for (CrashPlan& plan : bp.plans) {
    std::string failure = CheckCrashState(rec, plan, options.seed);
    ++slot.checked;
    if (!failure.empty()) {
      slot.failures.push_back({std::move(plan), std::move(failure), ""});
    }
  }
}

}  // namespace

BoundaryPlans PlansForBoundary(const CrashRecording& rec, size_t crash_index,
                               const ExplorerOptions& options) {
  const std::vector<UncertainItem> items = CollectUncertain(rec, crash_index);
  const uint64_t radix = kChoiceTornBase + kTornVariants;

  // Size of the full choice space, with overflow guard: once the running
  // product exceeds the budget the exact value no longer matters.
  uint64_t total = 1;
  for (size_t i = 0; i < items.size() && total <= kMaxStatesPerBoundary; ++i) {
    total *= radix;
  }

  BoundaryPlans out;
  if (total <= kMaxStatesPerBoundary) {
    out.exhaustive = true;
    out.plans.reserve(total);
    for (uint64_t code = 0; code < total; ++code) {
      CrashPlan plan;
      plan.crash_index = crash_index;
      plan.choices.resize(items.size());
      uint64_t c = code;
      for (size_t i = 0; i < items.size(); ++i) {
        plan.choices[i] = static_cast<uint8_t>(c % radix);
        c /= radix;
      }
      out.plans.push_back(std::move(plan));
    }
    return out;
  }

  // Over budget: the two corner states (nothing in-flight persisted /
  // everything persisted untorn), then seeded random fill.
  out.exhaustive = false;
  CrashPlan corner;
  corner.crash_index = crash_index;
  corner.choices.assign(items.size(), kChoiceAbsent);
  out.plans.push_back(corner);
  corner.choices.assign(items.size(), kChoicePresent);
  out.plans.push_back(std::move(corner));
  Rng rng(options.seed ^ (0x9e3779b97f4a7c15ull * (crash_index + 1)));
  while (out.plans.size() < kSamplesPerBoundary) {
    CrashPlan plan;
    plan.crash_index = crash_index;
    plan.choices.resize(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      plan.choices[i] = static_cast<uint8_t>(rng.Uniform(radix));
    }
    out.plans.push_back(std::move(plan));
  }
  return out;
}

ExplorerReport ExploreRecording(const CrashRecording& rec, const ExplorerOptions& options) {
  const std::vector<size_t> boundaries = ConsistencyBoundaries(rec.events);
  std::vector<BoundarySlot> slots(boundaries.size());

  const size_t threads = std::max<size_t>(options.threads, 1);
  if (threads == 1) {
    for (size_t i = 0; i < boundaries.size(); ++i) {
      ExploreBoundary(rec, boundaries[i], options, slots[i]);
    }
  } else {
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= boundaries.size()) {
          return;
        }
        ExploreBoundary(rec, boundaries[i], options, slots[i]);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }

  // Serial merge in boundary order: the report is independent of how the
  // boundaries were distributed over workers.
  ExplorerReport report;
  report.boundaries = boundaries.size();
  for (BoundarySlot& slot : slots) {
    report.states_checked += slot.checked;
    if (slot.exhaustive) {
      ++report.boundaries_exhaustive;
    } else {
      ++report.boundaries_sampled;
    }
    for (ExplorerFailure& f : slot.failures) {
      ++report.total_failures;
      if (report.failures.size() >= kMaxReportedFailures) {
        continue;
      }
      if (options.emit_artifacts) {
        ReplayArtifact art;
        art.workload = options.workload_name;
        art.config = rec.config;
        art.torn_seed = options.seed;
        art.plan = f.plan;
        art.failure = f.message;
        art.flight_recorder = rec.trace_tail;
        std::ostringstream path;
        path << options.artifact_dir << "/crash_artifact_" << options.workload_name << "_"
             << f.plan.crash_index << "_" << report.failures.size() << ".json";
        const Status st = art.WriteFile(path.str());
        if (st.ok()) {
          f.artifact_path = path.str();
        }
      }
      report.failures.push_back(std::move(f));
    }
  }
  return report;
}

ExplorerReport ExploreWorkload(const StackConfig& config, const std::string& workload_name,
                               ExplorerOptions options) {
  options.workload_name = workload_name;
  Result<CrashWorkload> workload = FindCrashWorkload(workload_name);
  CCNVME_CHECK(workload.ok()) << workload.status().ToString();
  const CrashRecording rec = RecordWorkload(config, *workload);
  return ExploreRecording(rec, options);
}

std::string ExplorerReport::Summary() const {
  std::ostringstream out;
  out << "boundaries=" << boundaries << " (exhaustive=" << boundaries_exhaustive
      << " sampled=" << boundaries_sampled << ") states=" << states_checked
      << " failures=" << total_failures << "\n";
  for (const ExplorerFailure& f : failures) {
    out << "  crash@" << f.plan.crash_index << " choices=[";
    for (size_t i = 0; i < f.plan.choices.size(); ++i) {
      out << (i == 0 ? "" : ",") << static_cast<uint32_t>(f.plan.choices[i]);
    }
    out << "]: " << f.message << "\n";
  }
  return out.str();
}

}  // namespace ccnvme
