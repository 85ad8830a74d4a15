#include "src/profile/tail/tail.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/metrics/metrics.h"

namespace ccnvme {
namespace {

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

// Reverse of TracePointName, for the exemplar-JSON round trip.
TracePoint TracePointFromName(std::string_view name) {
  for (size_t i = 0; i < kNumTracePoints; ++i) {
    const TracePoint p = static_cast<TracePoint>(i);
    if (name == TracePointName(p)) return p;
  }
  return TracePoint::kNumPoints;
}

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

}  // namespace

TailForensics::TailForensics(TailOptions options)
    : options_(options),
      windows_(options.window),
      reservoir_(options.reservoir) {
  CCNVME_CHECK_GT(options_.tail_quantile, 0.0);
  CCNVME_CHECK_LT(options_.tail_quantile, 1.0);
}

void TailForensics::Attach(CriticalPathProfiler* profiler) {
  CCNVME_CHECK(profiler != nullptr);
  profiler->AddRequestObserver(this);
  profiler_ = profiler;
}

const CriticalPathProfiler& TailForensics::profiler() const {
  CCNVME_CHECK(profiler_ != nullptr) << "TailForensics used before Attach";
  return *profiler_;
}

void TailForensics::OnRequestProfile(
    const CriticalPathProfiler::RequestProfile& profile,
    const std::vector<TraceEvent>& events) {
  windows_.Add(profile);

  std::vector<Verdict> verdicts = ClassifySignatures(profile, events);
  for (const Verdict& v : verdicts) {
    ++signature_counts_[static_cast<size_t>(v.pathology)];
  }

  // Freeze the complete request — span tree, wait edges, counter/monitor
  // state, verdicts — only when the reservoir will retain it. This is the
  // one copy-heavy step and it is rare by construction (top-k admission).
  if (reservoir_.WouldAdmit(profile.latency_ns(), phase_)) {
    Exemplar ex;
    ex.seq = next_seq_;
    ex.phase = phase_;
    ex.profile = profile;
    ex.events = events;
    if (metrics_ != nullptr) {
      const MetricsSnapshot snap = metrics_->TakeSnapshot();
      ex.metric_counters = snap.counters;
      ex.monitor_violations = snap.TotalViolations();
    }
    ex.verdicts = std::move(verdicts);
    reservoir_.Add(std::move(ex));
  }
  ++next_seq_;
}

void TailForensics::OnResetAggregation() {
  windows_.Reset();
  reservoir_.Reset();
  signature_counts_.fill(0);
  next_seq_ = 0;
}

uint64_t TailForensics::total_signatures() const {
  uint64_t total = 0;
  for (uint64_t c : signature_counts_) total += c;
  return total;
}

uint64_t TailForensics::TailThresholdNs() const {
  return profiler().latency_ns().Percentile(options_.tail_quantile);
}

std::vector<const Exemplar*> TailForensics::TailExemplars() const {
  // Percentile() clamps to the observed max, and the max-latency request
  // always wins global admission, so this is non-empty once any request
  // finished and the reservoir holds anything.
  const uint64_t threshold = TailThresholdNs();
  std::vector<const Exemplar*> out;
  for (const Exemplar& ex : reservoir_.global()) {
    if (ex.latency_ns() < threshold) break;  // sorted descending
    out.push_back(&ex);
  }
  return out;
}

std::vector<TailForensics::TailDiffRow> TailForensics::TailDiff() const {
  std::map<uint32_t, TailDiffRow> rows;
  const uint64_t total = profiler().total_latency_ns();
  for (const auto& [packed, agg] : profiler().blame()) {
    TailDiffRow& row = rows[packed];
    row.packed_key = packed;
    row.overall_ns = agg.total_ns;
    row.overall_share = Share(agg.total_ns, total);
  }

  uint64_t tail_total = 0;
  const std::vector<const Exemplar*> tail = TailExemplars();
  for (const Exemplar* ex : tail) tail_total += ex->latency_ns();
  for (const Exemplar* ex : tail) {
    for (const auto& [packed, ns] : ex->profile.blame_ns) {
      TailDiffRow& row = rows[packed];
      row.packed_key = packed;
      row.tail_ns += ns;
    }
  }
  for (auto& [packed, row] : rows) {
    (void)packed;
    row.tail_share = Share(row.tail_ns, tail_total);
  }

  std::vector<TailDiffRow> out;
  out.reserve(rows.size());
  for (const auto& [packed, row] : rows) {
    (void)packed;
    out.push_back(row);
  }
  std::stable_sort(out.begin(), out.end(), [](const TailDiffRow& a, const TailDiffRow& b) {
    if (a.tail_share != b.tail_share) return a.tail_share > b.tail_share;
    if (a.overall_share != b.overall_share) return a.overall_share > b.overall_share;
    return a.packed_key < b.packed_key;
  });
  return out;
}

// --- Text report ------------------------------------------------------------

std::string FormatTailReport(const TailForensics& tail) {
  std::ostringstream os;
  char buf[256];
  const CriticalPathProfiler& profiler = tail.profiler();
  const WindowedAggregator& win = tail.windows();
  const Histogram& lat = profiler.latency_ns();

  os << "=== tail forensics (" << kTailReportSchema << ") ===\n";
  std::snprintf(buf, sizeof(buf),
                "requests: %llu  mean: %llu ns  p50: %llu ns  p99: %llu ns  "
                "p%.1f: %llu ns  max: %llu ns\n",
                static_cast<unsigned long long>(tail.requests()),
                static_cast<unsigned long long>(
                    tail.requests() == 0 ? 0
                                         : profiler.total_latency_ns() / tail.requests()),
                static_cast<unsigned long long>(lat.Percentile(0.5)),
                static_cast<unsigned long long>(lat.Percentile(0.99)),
                100.0 * tail.options().tail_quantile,
                static_cast<unsigned long long>(tail.TailThresholdNs()),
                static_cast<unsigned long long>(lat.max()));
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "windows: %zu retained of %llu started (window %llu ns, %llu evicted)\n",
                win.windows().size(),
                static_cast<unsigned long long>(win.windows_started()),
                static_cast<unsigned long long>(win.options().window_ns),
                static_cast<unsigned long long>(win.windows_evicted()));
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "exemplars: %zu global, %zu phase(s) (considered %llu, captured %llu, "
                "displaced %llu)\n",
                tail.reservoir().global().size(), tail.reservoir().per_phase().size(),
                static_cast<unsigned long long>(tail.reservoir().considered()),
                static_cast<unsigned long long>(tail.reservoir().captured()),
                static_cast<unsigned long long>(tail.reservoir().displaced()));
  os << buf;

  if (tail.requests() == 0) return os.str();

  const std::vector<const Exemplar*> tail_set = tail.TailExemplars();
  std::snprintf(buf, sizeof(buf),
                "\n-- blame diff: overall vs tail (latency >= %llu ns, %zu exemplar(s)) --\n",
                static_cast<unsigned long long>(tail.TailThresholdNs()), tail_set.size());
  os << buf;
  std::snprintf(buf, sizeof(buf), "  %-28s %9s %9s %9s\n", "key", "overall%", "tail%",
                "delta");
  os << buf;
  for (const TailForensics::TailDiffRow& row : tail.TailDiff()) {
    std::snprintf(buf, sizeof(buf), "  %-28s %8.2f%% %8.2f%% %+8.2f%%\n",
                  BlameKey::FromPacked(row.packed_key).name(), 100.0 * row.overall_share,
                  100.0 * row.tail_share,
                  100.0 * (row.tail_share - row.overall_share));
    os << buf;
  }

  os << "\n-- pathology signatures (all requests) --\n";
  if (tail.total_signatures() == 0) {
    os << "  signatures: none\n";
  } else {
    for (const SignatureRule& rule : AllSignatureRules()) {
      const uint64_t count =
          tail.signature_counts()[static_cast<size_t>(rule.pathology)];
      if (count == 0) continue;
      std::snprintf(buf, sizeof(buf), "  %-26s (culprit %-22s) %8llu request(s)\n",
                    PathologyName(rule.pathology), WaitEdgeName(rule.culprit),
                    static_cast<unsigned long long>(count));
      os << buf;
    }
  }

  const auto& exemplars = tail.reservoir().global();
  const size_t shown = std::min<size_t>(exemplars.size(), 3);
  std::snprintf(buf, sizeof(buf), "\n-- exemplar drill-down (top %zu of %zu) --\n", shown,
                exemplars.size());
  os << buf;
  for (size_t i = 0; i < shown; ++i) {
    const Exemplar& ex = exemplars[i];
    std::snprintf(buf, sizeof(buf),
                  "  [%zu] req %llu tx %llu  latency %llu ns  phase '%s'  seq %llu\n", i,
                  static_cast<unsigned long long>(ex.profile.req_id),
                  static_cast<unsigned long long>(ex.profile.tx_id),
                  static_cast<unsigned long long>(ex.latency_ns()), ex.phase.c_str(),
                  static_cast<unsigned long long>(ex.seq));
    os << buf;
    os << "      verdicts:";
    if (ex.verdicts.empty()) {
      os << " none";
    } else {
      for (const Verdict& v : ex.verdicts) {
        std::snprintf(buf, sizeof(buf), " %s(%s %.1f%%, %llu events)",
                      PathologyName(v.pathology), WaitEdgeName(v.culprit),
                      100.0 * v.share, static_cast<unsigned long long>(v.events));
        os << buf;
      }
    }
    os << "\n      blame:";
    // The exemplar's own exact decomposition, largest first.
    std::vector<std::pair<uint32_t, uint64_t>> blame(ex.profile.blame_ns.begin(),
                                                     ex.profile.blame_ns.end());
    std::stable_sort(blame.begin(), blame.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    for (const auto& [packed, ns] : blame) {
      std::snprintf(buf, sizeof(buf), " %s %.1f%% (%llu ns)",
                    BlameKey::FromPacked(packed).name(),
                    100.0 * Share(ns, ex.latency_ns()),
                    static_cast<unsigned long long>(ns));
      os << buf;
    }
    os << "\n      critical path:\n";
    for (const CriticalPathProfiler::Segment& seg : ex.profile.critical_path) {
      std::snprintf(buf, sizeof(buf), "        [%12llu, %12llu) %-28s %12llu ns\n",
                    static_cast<unsigned long long>(seg.begin_ns),
                    static_cast<unsigned long long>(seg.end_ns), seg.key.name(),
                    static_cast<unsigned long long>(seg.dur_ns()));
      os << buf;
    }
  }
  return os.str();
}

// --- Exemplar JSON ----------------------------------------------------------

namespace {

void WriteExemplarInto(JsonWriter& w, const Exemplar& ex) {
  w.Open('{');
  w.Key("seq", true);
  w.os << ex.seq;
  w.Key("phase", false);
  w.String(ex.phase);
  w.Key("req_id", false);
  w.os << ex.profile.req_id;
  w.Key("tx_id", false);
  w.os << ex.profile.tx_id;
  w.Key("begin_ns", false);
  w.os << ex.profile.begin_ns;
  w.Key("end_ns", false);
  w.os << ex.profile.end_ns;
  w.Key("latency_ns", false);
  w.os << ex.latency_ns();
  w.Key("monitor_violations", false);
  w.os << ex.monitor_violations;

  w.Key("blame", false);
  w.Open('[');
  bool first = true;
  for (const auto& [packed, ns] : ex.profile.blame_ns) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    w.Open('{');
    w.Key("key", true);
    w.String(BlameKey::FromPacked(packed).name());
    w.Key("ns", false);
    w.os << ns;
    w.Close('}');
    first = false;
  }
  w.Close(']');

  w.Key("critical_path", false);
  w.Open('[');
  first = true;
  for (const CriticalPathProfiler::Segment& seg : ex.profile.critical_path) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    w.Open('{');
    w.Key("begin_ns", true);
    w.os << seg.begin_ns;
    w.Key("end_ns", false);
    w.os << seg.end_ns;
    w.Key("key", false);
    w.String(seg.key.name());
    w.Close('}');
    first = false;
  }
  w.Close(']');

  w.Key("events", false);
  w.Open('[');
  first = true;
  for (const TraceEvent& ev : ex.events) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    w.Open('{');
    w.Key("kind", true);
    w.String(ev.is_wait_edge() ? "wait" : (ev.is_span ? "span" : "instant"));
    w.Key("name", false);
    w.String(ev.is_wait_edge() ? WaitEdgeName(ev.edge) : TracePointName(ev.point));
    w.Key("ts_ns", false);
    w.os << ev.ts_ns;
    w.Key("dur_ns", false);
    w.os << ev.dur_ns;
    w.Key("req_id", false);
    w.os << ev.req_id;
    w.Key("tx_id", false);
    w.os << ev.tx_id;
    w.Key("arg0", false);
    w.os << ev.arg0;
    w.Key("track", false);
    w.os << ev.track;
    w.Key("device", false);
    w.os << ev.device;
    w.Close('}');
    first = false;
  }
  w.Close(']');

  w.Key("metric_counters", false);
  w.Open('{');
  first = true;
  for (const auto& [name, value] : ex.metric_counters) {
    w.Key(name, first);
    w.os << value;
    first = false;
  }
  w.Close('}');

  w.Key("verdicts", false);
  w.Open('[');
  first = true;
  for (const Verdict& v : ex.verdicts) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    w.Open('{');
    w.Key("pathology", true);
    w.String(PathologyName(v.pathology));
    w.Key("culprit", false);
    w.String(WaitEdgeName(v.culprit));
    w.Key("blame_ns", false);
    w.os << v.blame_ns;
    w.Key("share", false);
    w.os << v.share;
    w.Key("events", false);
    w.os << v.events;
    w.Close('}');
    first = false;
  }
  w.Close(']');
  w.Close('}');
}

}  // namespace

std::string ExemplarJson(const Exemplar& exemplar, bool pretty) {
  JsonWriter w(pretty);
  WriteExemplarInto(w, exemplar);
  if (pretty) w.os << '\n';
  return w.os.str();
}

bool ParseExemplarJson(const JsonValue& doc, Exemplar* out, std::string* error) {
  if (doc.type != JsonValue::Type::kObject) {
    return Fail(error, "exemplar is not a JSON object");
  }
  Exemplar ex;
  ex.seq = doc.U64("seq");
  ex.phase = doc.Str("phase");
  ex.profile.req_id = doc.U64("req_id");
  ex.profile.tx_id = doc.U64("tx_id");
  ex.profile.begin_ns = doc.U64("begin_ns");
  ex.profile.end_ns = doc.U64("end_ns");
  ex.monitor_violations = doc.U64("monitor_violations");
  if (doc.U64("latency_ns") != ex.profile.latency_ns()) {
    return Fail(error, "exemplar latency_ns != end_ns - begin_ns");
  }

  const JsonValue* blame = doc.Find("blame");
  if (blame == nullptr || blame->type != JsonValue::Type::kArray) {
    return Fail(error, "exemplar missing blame array");
  }
  for (const JsonValue& row : blame->arr) {
    const std::string name = row.Str("key");
    const WaitEdge edge = WaitEdgeFromName(name);
    BlameKey key;
    if (edge != WaitEdge::kNumEdges) {
      key = BlameKey::Wait(edge);
    } else {
      const TracePoint point = TracePointFromName(name);
      if (point == TracePoint::kNumPoints) {
        return Fail(error, "exemplar blame names unknown key '" + name + "'");
      }
      key = BlameKey::Run(point);
    }
    ex.profile.blame_ns[key.packed()] = row.U64("ns");
  }

  const JsonValue* path = doc.Find("critical_path");
  if (path == nullptr || path->type != JsonValue::Type::kArray) {
    return Fail(error, "exemplar missing critical_path array");
  }
  for (const JsonValue& row : path->arr) {
    CriticalPathProfiler::Segment seg;
    seg.begin_ns = row.U64("begin_ns");
    seg.end_ns = row.U64("end_ns");
    const std::string name = row.Str("key");
    const WaitEdge edge = WaitEdgeFromName(name);
    if (edge != WaitEdge::kNumEdges) {
      seg.key = BlameKey::Wait(edge);
    } else {
      const TracePoint point = TracePointFromName(name);
      if (point == TracePoint::kNumPoints) {
        return Fail(error, "critical path names unknown key '" + name + "'");
      }
      seg.key = BlameKey::Run(point);
    }
    ex.profile.critical_path.push_back(seg);
  }

  const JsonValue* events = doc.Find("events");
  if (events == nullptr || events->type != JsonValue::Type::kArray) {
    return Fail(error, "exemplar missing events array");
  }
  for (const JsonValue& row : events->arr) {
    TraceEvent ev;
    const std::string kind = row.Str("kind");
    const std::string name = row.Str("name");
    if (kind == "wait") {
      ev.edge = WaitEdgeFromName(name);
      if (ev.edge == WaitEdge::kNumEdges) {
        return Fail(error, "event names unknown wait edge '" + name + "'");
      }
    } else if (kind == "span" || kind == "instant") {
      ev.point = TracePointFromName(name);
      if (ev.point == TracePoint::kNumPoints) {
        return Fail(error, "event names unknown trace point '" + name + "'");
      }
      ev.is_span = kind == "span";
    } else {
      return Fail(error, "event has unknown kind '" + kind + "'");
    }
    ev.ts_ns = row.U64("ts_ns");
    ev.dur_ns = row.U64("dur_ns");
    ev.req_id = row.U64("req_id");
    ev.tx_id = row.U64("tx_id");
    ev.arg0 = row.U64("arg0");
    ev.track = static_cast<uint32_t>(row.U64("track"));
    ev.device = static_cast<uint16_t>(row.U64("device"));
    ex.events.push_back(ev);
  }

  const JsonValue* metric_counters = doc.Find("metric_counters");
  if (metric_counters != nullptr && metric_counters->type == JsonValue::Type::kObject) {
    for (const auto& [name, value] : metric_counters->obj) {
      if (value.type == JsonValue::Type::kNumber) {
        ex.metric_counters[name] = static_cast<uint64_t>(value.num);
      }
    }
  }

  const JsonValue* verdicts = doc.Find("verdicts");
  if (verdicts == nullptr || verdicts->type != JsonValue::Type::kArray) {
    return Fail(error, "exemplar missing verdicts array");
  }
  for (const JsonValue& row : verdicts->arr) {
    Verdict v;
    v.pathology = PathologyFromName(row.Str("pathology"));
    if (v.pathology == Pathology::kNumPathologies) {
      return Fail(error, "verdict names unknown pathology '" + row.Str("pathology") + "'");
    }
    v.culprit = WaitEdgeFromName(row.Str("culprit"));
    if (v.culprit == WaitEdge::kNumEdges) {
      return Fail(error, "verdict names unknown culprit '" + row.Str("culprit") + "'");
    }
    v.blame_ns = row.U64("blame_ns");
    v.share = row.Num("share");
    v.events = row.U64("events");
    ex.verdicts.push_back(v);
  }

  *out = std::move(ex);
  return true;
}

// --- ccnvme-tail-v1 document ------------------------------------------------

std::string TailReportJson(const TailForensics& tail, const PerfReportInfo& info,
                           bool pretty) {
  const CriticalPathProfiler& profiler = tail.profiler();
  const WindowedAggregator& win = tail.windows();
  const Histogram& lat = profiler.latency_ns();
  JsonWriter w(pretty);
  w.Open('{');
  w.Key("schema", true);
  w.String(kTailReportSchema);
  w.Key("schema_version", false);
  w.os << kTailReportSchemaVersion;
  w.Key("workload", false);
  w.Open('{');
  w.Key("stack", true);
  w.String(info.stack);
  w.Key("mode", false);
  w.String(info.mode);
  w.Key("iters", false);
  w.os << info.iters;
  w.Key("warmup", false);
  w.os << info.warmup;
  w.Key("threads", false);
  w.os << info.threads;
  w.Key("queues", false);
  w.os << info.queues;
  w.Close('}');

  w.Key("requests", false);
  w.os << tail.requests();
  w.Key("total_latency_ns", false);
  w.os << profiler.total_latency_ns();
  w.Key("mean_ns", false);
  w.os << (tail.requests() == 0 ? 0 : profiler.total_latency_ns() / tail.requests());
  w.Key("p50_ns", false);
  w.os << lat.Percentile(0.5);
  w.Key("p99_ns", false);
  w.os << lat.Percentile(0.99);
  w.Key("max_ns", false);
  w.os << lat.max();
  w.Key("tail_quantile", false);
  w.os << tail.options().tail_quantile;
  w.Key("tail_threshold_ns", false);
  w.os << tail.TailThresholdNs();

  // Profiler echo: the validator cross-checks it against the document's own
  // totals, so an edited document is caught.
  w.Key("profiler", false);
  w.Open('{');
  w.Key("requests", true);
  w.os << profiler.finished_requests();
  w.Key("total_latency_ns", false);
  w.os << profiler.total_latency_ns();
  w.Close('}');

  w.Key("windows", false);
  w.Open('{');
  w.Key("window_ns", true);
  w.os << win.options().window_ns;
  w.Key("started", false);
  w.os << win.windows_started();
  w.Key("retained", false);
  w.os << win.windows().size();
  w.Key("evicted", false);
  w.os << win.windows_evicted();
  w.Key("rows", false);
  w.Open('[');
  bool first = true;
  for (const WindowedAggregator::Window& row : win.windows()) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    w.Open('{');
    w.Key("index", true);
    w.os << row.index;
    w.Key("begin_ns", false);
    w.os << row.begin_ns(win.options().window_ns);
    w.Key("requests", false);
    w.os << row.requests;
    w.Key("total_latency_ns", false);
    w.os << row.total_latency_ns;
    w.Key("p50_ns", false);
    w.os << row.latency_ns.Percentile(0.5);
    w.Key("p99_ns", false);
    w.os << row.latency_ns.Percentile(0.99);
    w.Key("max_ns", false);
    w.os << row.latency_ns.max();
    w.Key("dominant", false);
    w.String(row.DominantKey().name());
    w.Close('}');
    first = false;
  }
  w.Close(']');
  w.Close('}');

  w.Key("blame_diff", false);
  w.Open('[');
  first = true;
  for (const TailForensics::TailDiffRow& row : tail.TailDiff()) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    w.Open('{');
    w.Key("key", true);
    w.String(BlameKey::FromPacked(row.packed_key).name());
    w.Key("overall_ns", false);
    w.os << row.overall_ns;
    w.Key("overall_share", false);
    w.os << row.overall_share;
    w.Key("tail_ns", false);
    w.os << row.tail_ns;
    w.Key("tail_share", false);
    w.os << row.tail_share;
    w.Close('}');
    first = false;
  }
  w.Close(']');

  w.Key("signatures", false);
  w.Open('[');
  first = true;
  for (const SignatureRule& rule : AllSignatureRules()) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    w.Open('{');
    w.Key("pathology", true);
    w.String(PathologyName(rule.pathology));
    w.Key("culprit", false);
    w.String(WaitEdgeName(rule.culprit));
    w.Key("min_share", false);
    w.os << rule.min_share;
    w.Key("min_events", false);
    w.os << rule.min_events;
    w.Key("count", false);
    w.os << tail.signature_counts()[static_cast<size_t>(rule.pathology)];
    w.Close('}');
    first = false;
  }
  w.Close(']');

  w.Key("exemplars", false);
  w.Open('[');
  first = true;
  for (const Exemplar& ex : tail.reservoir().global()) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    WriteExemplarInto(w, ex);
    first = false;
  }
  w.Close(']');
  w.Close('}');
  if (pretty) w.os << '\n';
  return w.os.str();
}

bool ValidateTailReportJson(const JsonValue& doc, std::string* error) {
  constexpr double kEps = 1e-6;
  if (doc.type != JsonValue::Type::kObject) {
    return Fail(error, "tail document is not a JSON object");
  }
  if (doc.Str("schema") != kTailReportSchema) {
    return Fail(error, "unknown schema '" + doc.Str("schema") + "'");
  }
  if (doc.U64("schema_version") != static_cast<uint64_t>(kTailReportSchemaVersion)) {
    return Fail(error, "schema_version " + std::to_string(doc.U64("schema_version")) +
                           " != " + std::to_string(kTailReportSchemaVersion));
  }
  const uint64_t requests = doc.U64("requests");
  if (requests == 0) {
    return Fail(error, "requests == 0 (empty tail profile)");
  }

  // The profiler echo must match the document's own totals.
  const JsonValue* prof = doc.Find("profiler");
  if (prof == nullptr || prof->type != JsonValue::Type::kObject) {
    return Fail(error, "missing profiler echo");
  }
  if (prof->U64("requests") != requests) {
    return Fail(error, "profiler echo requests " + std::to_string(prof->U64("requests")) +
                           " != document requests " + std::to_string(requests));
  }
  if (prof->U64("total_latency_ns") != doc.U64("total_latency_ns")) {
    return Fail(error, "profiler echo total latency != document total");
  }

  // Blame diff: overall shares tile the total exactly; tail shares tile the
  // tail exemplar set (or are all zero when the set is empty).
  const JsonValue* diff = doc.Find("blame_diff");
  if (diff == nullptr || diff->type != JsonValue::Type::kArray || diff->arr.empty()) {
    return Fail(error, "missing/empty blame_diff");
  }
  double overall_sum = 0.0;
  double tail_sum = 0.0;
  for (const JsonValue& row : diff->arr) {
    const double overall = row.Num("overall_share", -1.0);
    const double tail_share = row.Num("tail_share", -1.0);
    if (overall < -kEps || overall > 1.0 + kEps || tail_share < -kEps ||
        tail_share > 1.0 + kEps) {
      return Fail(error, "blame_diff share out of [0,1] for '" + row.Str("key") + "'");
    }
    overall_sum += overall;
    tail_sum += tail_share;
  }
  if (overall_sum < 1.0 - 1e-3 || overall_sum > 1.0 + 1e-3) {
    return Fail(error,
                "overall blame shares sum to " + std::to_string(overall_sum) + ", want 1");
  }
  if (tail_sum > kEps && (tail_sum < 1.0 - 1e-3 || tail_sum > 1.0 + 1e-3)) {
    return Fail(error,
                "tail blame shares sum to " + std::to_string(tail_sum) + ", want 0 or 1");
  }

  // Signature section: the whole registry, exactly once each, with the
  // registry culprit.
  const JsonValue* sigs = doc.Find("signatures");
  if (sigs == nullptr || sigs->type != JsonValue::Type::kArray) {
    return Fail(error, "missing signatures array");
  }
  std::map<std::string, int> seen;
  for (const JsonValue& row : sigs->arr) {
    const std::string name = row.Str("pathology");
    const Pathology p = PathologyFromName(name);
    if (p == Pathology::kNumPathologies) {
      return Fail(error, "signatures name unregistered pathology '" + name + "'");
    }
    if (++seen[name] > 1) {
      return Fail(error, "signatures name pathology '" + name + "' twice");
    }
    if (row.Str("culprit") != WaitEdgeName(RuleFor(p).culprit)) {
      return Fail(error, "pathology '" + name + "' culprit '" + row.Str("culprit") +
                             "' != registry culprit");
    }
    if (row.U64("count") > requests) {
      return Fail(error, "pathology '" + name + "' count exceeds request count");
    }
  }
  if (seen.size() != kNumPathologies) {
    return Fail(error, "signatures cover " + std::to_string(seen.size()) + " of " +
                           std::to_string(kNumPathologies) + " registered pathologies");
  }

  // Windows: bookkeeping adds up and no retained epoch is empty.
  const JsonValue* windows = doc.Find("windows");
  if (windows == nullptr || windows->type != JsonValue::Type::kObject) {
    return Fail(error, "missing windows section");
  }
  const JsonValue* rows = windows->Find("rows");
  if (rows == nullptr || rows->type != JsonValue::Type::kArray) {
    return Fail(error, "missing windows.rows");
  }
  if (windows->U64("retained") != rows->arr.size()) {
    return Fail(error, "windows.retained != rows length");
  }
  if (windows->U64("started") != windows->U64("retained") + windows->U64("evicted")) {
    return Fail(error, "windows.started != retained + evicted");
  }
  uint64_t window_requests = 0;
  uint64_t prev_index = 0;
  bool first_row = true;
  for (const JsonValue& row : rows->arr) {
    if (row.U64("requests") == 0) {
      return Fail(error, "retained window with zero requests");
    }
    const uint64_t index = row.U64("index");
    if (!first_row && index <= prev_index) {
      return Fail(error, "window indices not strictly increasing");
    }
    prev_index = index;
    first_row = false;
    window_requests += row.U64("requests");
  }
  if (window_requests > requests) {
    return Fail(error, "retained windows hold more requests than the run finished");
  }

  // Exemplars: descending latency, and every blame vector sums EXACTLY to
  // its end-to-end latency — the acceptance invariant of the whole layer.
  const JsonValue* exemplars = doc.Find("exemplars");
  if (exemplars == nullptr || exemplars->type != JsonValue::Type::kArray) {
    return Fail(error, "missing exemplars array");
  }
  double prev_latency = -1.0;
  bool first_ex = true;
  for (const JsonValue& ex : exemplars->arr) {
    Exemplar parsed;
    std::string ex_error;
    if (!ParseExemplarJson(ex, &parsed, &ex_error)) {
      return Fail(error, "exemplar: " + ex_error);
    }
    if (parsed.events.empty()) {
      return Fail(error, "exemplar req " + std::to_string(parsed.profile.req_id) +
                             " has no frozen events");
    }
    uint64_t blame_sum = 0;
    for (const auto& [packed, ns] : parsed.profile.blame_ns) {
      (void)packed;
      blame_sum += ns;
    }
    if (blame_sum != parsed.profile.latency_ns()) {
      return Fail(error, "exemplar req " + std::to_string(parsed.profile.req_id) +
                             ": blame sums to " + std::to_string(blame_sum) +
                             " ns != latency " +
                             std::to_string(parsed.profile.latency_ns()) + " ns");
    }
    const double latency = ex.Num("latency_ns", -1.0);
    if (!first_ex && latency > prev_latency + kEps) {
      return Fail(error, "exemplars not sorted by latency descending");
    }
    prev_latency = latency;
    first_ex = false;
  }
  return true;
}

}  // namespace ccnvme
