// Captures a cross-layer trace of a workload on the MQFS/ccNVMe stack and
// exports it as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing), plus a per-layer aggregation summary on stdout.
//
// Usage: trace_dump [append|varmail|minikv|nvlog] [out.json]
//                   [--req <id>] [--tx <id>]
//   (defaults: append, trace.json)
//
// "nvlog" runs the append workload on the NVLog/extfs stack instead of
// MQFS/ccNVMe: the summary then shows the nvm layer's spans (nvlog.append,
// nvlog.fence, nvlog.drain) and the wait.nvm_flush / wait.nvlog_drain
// edges in request span trees.
//
// --req/--tx restrict the export AND the stdout dump to one request and/or
// transaction: instead of the whole-run aggregation you get that request's
// span tree — every span, wait edge and instant that touched it, nested by
// interval containment — which is the raw input the critical-path profiler
// (src/profile) attributes blame over.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/trace/chrome_trace.h"
#include "src/workload/fio_append.h"
#include "src/workload/minikv.h"
#include "src/workload/varmail.h"

namespace ccnvme {
namespace {

StackConfig MqfsConfig() {
  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  cfg.enable_ccnvme = true;
  cfg.num_queues = 4;
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = 4;
  return cfg;
}

StackConfig NvlogConfig() {
  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  cfg.num_queues = 4;
  cfg.fs.journal = JournalKind::kNvlog;  // Build() creates the NVM tier
  return cfg;
}

// Prints every retained event matching |filter|, oldest-begin first, nested
// by interval containment so a request's causal structure reads as a tree:
//   ts          dur       event
//   121000   +35776 ns    fs.sync_total                 [harness]
//   121000    +6568 ns    . fs.submit_data              [harness]
//   143000   +18446 ns    . wait.tx_durable             [harness]
void PrintSpanTree(const Tracer& tracer, const TraceFilter& filter) {
  struct Item {
    uint64_t begin;
    uint64_t end;
    const TraceEvent* ev;
  };
  std::vector<Item> items;
  for (size_t i = 0; i < tracer.size(); ++i) {
    const TraceEvent& ev = tracer.event(i);
    if (!filter.Matches(ev)) continue;
    items.push_back(Item{ev.ts_ns, ev.ts_ns + ev.dur_ns, &ev});
  }
  if (items.empty()) {
    std::printf("no retained events match req=%llu tx=%llu (ring overwrote %llu)\n",
                static_cast<unsigned long long>(filter.req_id),
                static_cast<unsigned long long>(filter.tx_id),
                static_cast<unsigned long long>(tracer.overwritten()));
    return;
  }
  // Outer spans first: earlier begin, then longer duration, waits after runs
  // at equal intervals (a wait edge nests inside the span that blocked).
  std::stable_sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    if (a.end != b.end) return a.end > b.end;
    return a.ev->is_wait_edge() < b.ev->is_wait_edge();
  });

  std::printf("%zu events for req=%llu tx=%llu:\n\n", items.size(),
              static_cast<unsigned long long>(filter.req_id),
              static_cast<unsigned long long>(filter.tx_id));
  std::printf("%12s %12s    %-44s %s\n", "ts_ns", "dur_ns", "event", "track");
  std::vector<uint64_t> enclosing;  // end times of open ancestor intervals
  for (const Item& it : items) {
    while (!enclosing.empty() && it.begin >= enclosing.back()) {
      enclosing.pop_back();
    }
    const TraceEvent& ev = *it.ev;
    const char* name = ev.is_wait_edge() ? WaitEdgeName(ev.edge)
                                         : TracePointName(ev.point);
    std::string label;
    for (size_t d = 0; d < enclosing.size(); ++d) label += ". ";
    label += name;
    char dur[24];
    if (ev.is_span || ev.is_wait_edge()) {
      std::snprintf(dur, sizeof(dur), "+%llu",
                    static_cast<unsigned long long>(ev.dur_ns));
    } else {
      std::snprintf(dur, sizeof(dur), "instant");
    }
    std::printf("%12llu %12s    %-44s [%s]\n",
                static_cast<unsigned long long>(ev.ts_ns), dur, label.c_str(),
                tracer.track_name(ev.track).c_str());
    if ((ev.is_span || ev.is_wait_edge()) && ev.dur_ns > 0) {
      enclosing.push_back(it.end);
    }
  }
}

int RunDump(const std::string& workload, const std::string& out_path,
            const TraceFilter& filter) {
  StackConfig cfg = workload == "nvlog" ? NvlogConfig() : MqfsConfig();
  StorageStack stack(cfg);
  Tracer& tracer = stack.EnableTracing();
  Status st = stack.MkfsAndMount();
  CCNVME_CHECK(st.ok()) << st.ToString();

  // Short runs: a few milliseconds of virtual time produce a trace that
  // loads instantly in Perfetto yet covers hundreds of sync calls.
  if (workload == "append" || workload == "nvlog") {
    FioOptions opts;
    opts.num_threads = 4;
    opts.duration_ns = 2'000'000;
    FioResult r = RunFioAppend(stack, opts);
    std::printf("%s: %llu ops, %.1f KIOPS\n", workload.c_str(),
                static_cast<unsigned long long>(r.ops), r.ThroughputKiops());
  } else if (workload == "varmail") {
    VarmailOptions opts;
    opts.num_threads = 4;
    opts.num_files = 50;
    opts.duration_ns = 2'000'000;
    VarmailResult r = RunVarmail(stack, opts);
    std::printf("varmail: %llu flow ops, %.1f Kops/s\n",
                static_cast<unsigned long long>(r.flow_ops), r.KopsPerSec());
  } else if (workload == "minikv") {
    FillsyncOptions opts;
    opts.num_threads = 4;
    opts.duration_ns = 2'000'000;
    FillsyncResult r = RunFillsync(stack, opts);
    std::printf("minikv fillsync: %llu ops, %.1f KIOPS\n",
                static_cast<unsigned long long>(r.ops), r.Kiops());
  } else {
    std::fprintf(stderr, "trace_dump: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  st = stack.Unmount();
  CCNVME_CHECK(st.ok()) << st.ToString();

  st = WriteChromeTrace(tracer, out_path, filter);
  if (!st.ok()) {
    std::fprintf(stderr, "trace_dump: %s\n", st.ToString().c_str());
    return 2;
  }
  std::printf("\nwrote %zu events (%llu recorded, %llu overwritten) to %s%s\n",
              tracer.size(), static_cast<unsigned long long>(tracer.total_recorded()),
              static_cast<unsigned long long>(tracer.overwritten()), out_path.c_str(),
              filter.empty() ? "" : " (filtered)");

  if (!filter.empty()) {
    std::printf("\n");
    PrintSpanTree(tracer, filter);
    return 0;
  }

  std::printf("\nper-layer aggregation (whole run):\n");
  std::printf("%-8s %-22s %10s %14s %12s %12s\n", "layer", "point", "count", "total_ns",
              "mean_ns", "p99_ns");
  for (size_t layer = 0; layer < kNumTraceLayers; ++layer) {
    for (size_t p = 0; p < kNumTracePoints; ++p) {
      const TracePoint point = static_cast<TracePoint>(p);
      if (static_cast<size_t>(TracePointLayer(point)) != layer) {
        continue;
      }
      const Tracer::PointAgg& a = tracer.agg(point);
      if (a.count == 0) {
        continue;
      }
      std::printf("%-8s %-22s %10llu %14llu %12.0f %12llu\n",
                  TraceLayerName(static_cast<TraceLayer>(layer)), TracePointName(point),
                  static_cast<unsigned long long>(a.count),
                  static_cast<unsigned long long>(a.total_ns), a.dur_ns.Mean(),
                  static_cast<unsigned long long>(a.dur_ns.Percentile(0.99)));
    }
  }

  std::printf("\ncounters:\n");
  for (const auto& [name, value] : tracer.CounterSnapshot()) {
    std::printf("  %-24s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
  }

  std::printf("\nflight-recorder tail (newest 16 events):\n");
  for (const std::string& line : tracer.FormatTail(16)) {
    std::printf("  %s\n", line.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace ccnvme

int main(int argc, char** argv) {
  std::string workload = "append";
  std::string out_path = "trace.json";
  ccnvme::TraceFilter filter;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      std::printf("usage: trace_dump [append|varmail|minikv|nvlog] [out.json] "
                  "[--req <id>] [--tx <id>]\n");
      return 0;
    }
    if (arg == "--req" && i + 1 < argc) {
      filter.req_id = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--tx" && i + 1 < argc) {
      filter.tx_id = std::strtoull(argv[++i], nullptr, 10);
    } else if (positional == 0) {
      workload = arg;
      positional++;
    } else if (positional == 1) {
      out_path = arg;
      positional++;
    } else {
      std::fprintf(stderr, "trace_dump: unexpected argument '%s'\n", argv[i]);
      return 2;
    }
  }
  return ccnvme::RunDump(workload, out_path, filter);
}
