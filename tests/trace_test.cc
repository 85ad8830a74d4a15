// Tests for the cross-layer virtual-time tracer (src/trace): ring
// wraparound/overflow accounting, span nesting across actor suspend/resume,
// the Chrome trace-event JSON exporter (golden + validity of a captured
// stack trace), the flight-recorder artifact round trip, and — the central
// invariant — that attaching a tracer never changes what the stack does.
#include <cctype>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/crashtest/crash_workloads.h"
#include "src/crashtest/replay_artifact.h"
#include "src/trace/chrome_trace.h"
#include "src/workload/minikv.h"

namespace ccnvme {
namespace {

// --- Minimal JSON validator (objects/arrays/strings/numbers/literals) -----

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return p_ == s_.size();
  }

 private:
  void SkipWs() {
    while (p_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[p_])) != 0) {
      ++p_;
    }
  }
  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(p_, n, lit) != 0) {
      return false;
    }
    p_ += n;
    return true;
  }
  bool String() {
    if (p_ >= s_.size() || s_[p_] != '"') {
      return false;
    }
    for (++p_; p_ < s_.size(); ++p_) {
      if (static_cast<unsigned char>(s_[p_]) < 0x20) {
        return false;  // RFC 8259: control characters must be escaped
      }
      if (s_[p_] == '\\') {
        ++p_;
      } else if (s_[p_] == '"') {
        ++p_;
        return true;
      }
    }
    return false;
  }
  bool Number() {
    const size_t start = p_;
    if (p_ < s_.size() && s_[p_] == '-') {
      ++p_;
    }
    while (p_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[p_])) != 0 ||
                              s_[p_] == '.' || s_[p_] == 'e' || s_[p_] == 'E' ||
                              s_[p_] == '+' || s_[p_] == '-')) {
      ++p_;
    }
    return p_ > start;
  }
  bool Value() {
    SkipWs();
    if (p_ >= s_.size()) {
      return false;
    }
    switch (s_[p_]) {
      case '{': {
        ++p_;
        SkipWs();
        if (p_ < s_.size() && s_[p_] == '}') {
          ++p_;
          return true;
        }
        while (true) {
          SkipWs();
          if (!String()) {
            return false;
          }
          SkipWs();
          if (p_ >= s_.size() || s_[p_] != ':') {
            return false;
          }
          ++p_;
          if (!Value()) {
            return false;
          }
          SkipWs();
          if (p_ < s_.size() && s_[p_] == ',') {
            ++p_;
            continue;
          }
          break;
        }
        if (p_ >= s_.size() || s_[p_] != '}') {
          return false;
        }
        ++p_;
        return true;
      }
      case '[': {
        ++p_;
        SkipWs();
        if (p_ < s_.size() && s_[p_] == ']') {
          ++p_;
          return true;
        }
        while (true) {
          if (!Value()) {
            return false;
          }
          SkipWs();
          if (p_ < s_.size() && s_[p_] == ',') {
            ++p_;
            continue;
          }
          break;
        }
        if (p_ >= s_.size() || s_[p_] != ']') {
          return false;
        }
        ++p_;
        return true;
      }
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  const std::string& s_;
  size_t p_ = 0;
};

// --- Ring semantics --------------------------------------------------------

TEST(TracerTest, RingWraparoundKeepsNewestEvents) {
  Simulator sim;
  Tracer tracer(&sim, /*ring_capacity=*/4);
  sim.Spawn("w", [&] {
    for (uint64_t i = 1; i <= 7; ++i) {
      tracer.Instant(TracePoint::kMmioWrite, i);
      Simulator::Sleep(10);
    }
  });
  sim.Run();

  EXPECT_EQ(tracer.ring_capacity(), 4u);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.total_recorded(), 7u);
  EXPECT_EQ(tracer.overwritten(), 3u);
  // event(0) is the oldest RETAINED event: instants 4..7 survive.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tracer.event(i).arg0, i + 4) << i;
    EXPECT_EQ(tracer.event(i).ts_ns, (i + 3) * 10) << i;
    EXPECT_EQ(tracer.event(i).point, TracePoint::kMmioWrite);
  }
  // Aggregation is not ring-derived: every instant counts, even overwritten.
  EXPECT_EQ(tracer.agg(TracePoint::kMmioWrite).count, 7u);

  // The tail clamps to what the ring retains, newest last.
  const std::vector<std::string> tail = tracer.FormatTail(10);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_NE(tail.back().find("pcie.mmio_write"), std::string::npos);
  EXPECT_NE(tail.back().find("arg=7"), std::string::npos);
  EXPECT_NE(tail.front().find("arg=4"), std::string::npos);
}

TEST(TracerTest, BelowCapacityNothingOverwritten) {
  Simulator sim;
  Tracer tracer(&sim, 8);
  sim.Spawn("w", [&] {
    tracer.Instant(TracePoint::kMsix, 1);
    tracer.Instant(TracePoint::kMsix, 2);
  });
  sim.Run();
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.overwritten(), 0u);
  EXPECT_EQ(tracer.event(0).arg0, 1u);
  EXPECT_EQ(tracer.event(1).arg0, 2u);
}

// --- Span stacks across actor suspend/resume -------------------------------

TEST(TracerTest, SpanNestingAcrossSuspendResume) {
  Simulator sim;
  Tracer tracer(&sim, 64);
  // Actor a holds two nested spans open across sleeps while actor b opens
  // and closes its own span in between: each actor's LIFO stack is
  // independent, so the interleaving must not confuse the pairing.
  sim.Spawn("a", [&] {
    tracer.BeginSpan(TracePoint::kSyncTotal);
    Simulator::Sleep(10);
    tracer.BeginSpan(TracePoint::kJournalCommit);
    Simulator::Sleep(5);
    tracer.EndSpan(TracePoint::kJournalCommit);  // t = 15
    Simulator::Sleep(10);
    tracer.EndSpan(TracePoint::kSyncTotal);  // t = 25
  });
  sim.Spawn("b", [&] {
    Simulator::Sleep(4);
    tracer.BeginSpan(TracePoint::kTxCommit);
    Simulator::Sleep(13);
    tracer.EndSpan(TracePoint::kTxCommit);  // t = 17
  });
  sim.Run();

  // Tracks: 0 = "sim", then first-event order a, b.
  ASSERT_EQ(tracer.num_tracks(), 3u);
  EXPECT_EQ(tracer.track_name(1), "a");
  EXPECT_EQ(tracer.track_name(2), "b");

  // Spans are recorded at END time: a-inner (15), b (17), a-outer (25).
  ASSERT_EQ(tracer.size(), 3u);
  const TraceEvent& inner = tracer.event(0);
  EXPECT_EQ(inner.point, TracePoint::kJournalCommit);
  EXPECT_EQ(inner.ts_ns, 10u);
  EXPECT_EQ(inner.dur_ns, 5u);
  EXPECT_EQ(inner.track, 1u);
  const TraceEvent& other = tracer.event(1);
  EXPECT_EQ(other.point, TracePoint::kTxCommit);
  EXPECT_EQ(other.ts_ns, 4u);
  EXPECT_EQ(other.dur_ns, 13u);
  EXPECT_EQ(other.track, 2u);
  const TraceEvent& outer = tracer.event(2);
  EXPECT_EQ(outer.point, TracePoint::kSyncTotal);
  EXPECT_EQ(outer.ts_ns, 0u);
  EXPECT_EQ(outer.dur_ns, 25u);
  EXPECT_EQ(outer.track, 1u);

  EXPECT_TRUE(tracer.OpenSpans().empty());
  EXPECT_EQ(tracer.agg(TracePoint::kSyncTotal).count, 1u);
  EXPECT_EQ(tracer.agg(TracePoint::kSyncTotal).total_ns, 25u);
}

TEST(TraceContextTest, ScopedSaveRestore) {
  MutableTraceContext() = TraceContext{};
  {
    ScopedTraceContext outer({1, 2});
    EXPECT_EQ(CurrentTraceContext().req_id, 1u);
    {
      ScopedTraceContext inner({3, 4});
      EXPECT_EQ(CurrentTraceContext().req_id, 3u);
      EXPECT_EQ(CurrentTraceContext().tx_id, 4u);
    }
    EXPECT_EQ(CurrentTraceContext().req_id, 1u);
    EXPECT_EQ(CurrentTraceContext().tx_id, 2u);
  }
  EXPECT_EQ(CurrentTraceContext().req_id, 0u);
  EXPECT_EQ(CurrentTraceContext().tx_id, 0u);
}

// --- Chrome trace-event export ---------------------------------------------

TEST(ChromeTraceTest, GoldenOutput) {
  Simulator sim;
  Tracer tracer(&sim, 16);
  sim.Spawn("w", [&] {
    ScopedTraceContext ctx({7, 9});
    tracer.Instant(TracePoint::kMmioWrite, 4);
    Simulator::Sleep(1500);
    tracer.BeginSpan(TracePoint::kSyncTotal);
    Simulator::Sleep(2500);
    tracer.EndSpan(TracePoint::kSyncTotal);
    tracer.BeginSpan(TracePoint::kJournalCommit);  // left open on purpose
  });
  sim.Run();

  const std::string expected =
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"sim\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"w\"}},\n"
      "{\"ph\":\"i\",\"name\":\"pcie.mmio_write\",\"cat\":\"pcie\",\"pid\":1,"
      "\"tid\":1,\"ts\":0.000,\"s\":\"t\",\"args\":{\"req\":7,\"tx\":9,\"arg0\":4}},\n"
      "{\"ph\":\"X\",\"name\":\"fs.sync\",\"cat\":\"vfs\",\"pid\":1,\"tid\":1,"
      "\"ts\":1.500,\"dur\":2.500,\"args\":{\"req\":7,\"tx\":9}},\n"
      "{\"ph\":\"B\",\"name\":\"journal.commit\",\"cat\":\"journal\",\"pid\":1,"
      "\"tid\":1,\"ts\":4.000,\"args\":{\"req\":7,\"tx\":9}}\n"
      "]}\n";
  EXPECT_EQ(ChromeTraceJson(tracer), expected);
  EXPECT_TRUE(JsonValidator(expected).Valid());
}

TEST(ChromeTraceTest, CapturedStackTraceIsValidJson) {
  StackConfig cfg;
  cfg.enable_ccnvme = true;
  cfg.fs.journal = JournalKind::kMultiQueue;
  StorageStack stack(cfg);
  Tracer& tracer = stack.EnableTracing();
  ASSERT_TRUE(stack.MkfsAndMount().ok());

  FillsyncOptions opts;
  opts.num_threads = 2;
  opts.duration_ns = 500'000;
  FillsyncResult result = RunFillsync(stack, opts);
  EXPECT_GT(result.ops, 0u);
  ASSERT_TRUE(stack.Unmount().ok());

  const std::string json = ChromeTraceJson(tracer);
  EXPECT_GT(tracer.size(), 100u);
  EXPECT_TRUE(JsonValidator(json).Valid()) << "invalid Chrome trace JSON";
  // Events from every layer of the stack made it into the trace.
  for (const char* cat :
       {"\"cat\":\"vfs\"", "\"cat\":\"journal\"", "\"cat\":\"block\"", "\"cat\":\"driver\"",
        "\"cat\":\"ccnvme\"", "\"cat\":\"nvme\"", "\"cat\":\"pcie\""}) {
    EXPECT_NE(json.find(cat), std::string::npos) << cat;
  }
  // Request-flow attribution crossed the hardware boundary.
  EXPECT_NE(json.find("\"req\":"), std::string::npos);
  EXPECT_NE(json.find("\"tx\":"), std::string::npos);
}

// --- Tracing must never change behavior ------------------------------------

// Fingerprint of a create+write+fsync run: virtual completion time of every
// op plus the total number of simulator events. Any tracer-induced
// perturbation (an extra sleep, a changed wire byte, a different schedule)
// shows up here.
std::vector<uint64_t> SyncFingerprint(JournalKind kind, bool tracing) {
  StackConfig cfg;
  cfg.enable_ccnvme = kind == JournalKind::kMultiQueue;
  cfg.fs.journal = kind;
  cfg.fs.journal_blocks = 4096;
  StorageStack stack(cfg);
  if (tracing) {
    stack.EnableTracing();
  }
  CCNVME_CHECK(stack.MkfsAndMount().ok());
  std::vector<uint64_t> fp;
  stack.Run([&] {
    for (int i = 0; i < 10; ++i) {
      auto ino = stack.fs().Create("/d_" + std::to_string(i));
      CCNVME_CHECK(ino.ok());
      Buffer data(kFsBlockSize, static_cast<uint8_t>(i + 1));
      CCNVME_CHECK(stack.fs().Write(*ino, 0, data).ok());
      CCNVME_CHECK(stack.fs().Fsync(*ino).ok());
      fp.push_back(stack.sim().now());
    }
  });
  CCNVME_CHECK(stack.Unmount().ok());
  fp.push_back(stack.sim().now());
  fp.push_back(stack.sim().events_processed());
  return fp;
}

TEST(TracerTest, TracingDoesNotPerturbMqfs) {
  EXPECT_EQ(SyncFingerprint(JournalKind::kMultiQueue, false),
            SyncFingerprint(JournalKind::kMultiQueue, true));
}

TEST(TracerTest, TracingDoesNotPerturbClassicJournal) {
  EXPECT_EQ(SyncFingerprint(JournalKind::kClassic, false),
            SyncFingerprint(JournalKind::kClassic, true));
}

TEST(TracerTest, TracingDoesNotPerturbNoJournal) {
  EXPECT_EQ(SyncFingerprint(JournalKind::kNone, false),
            SyncFingerprint(JournalKind::kNone, true));
}

// --- Flight recorder --------------------------------------------------------

TEST(FlightRecorderTest, ReplayArtifactRoundTrip) {
  ReplayArtifact art;
  art.workload = "create_delete";
  art.torn_seed = 42;
  art.plan.crash_index = 17;
  art.plan.choices = {0, 1, 2};
  art.failure = "fact mismatch on /a";
  art.flight_recorder = {
      "[         100 ns] harness        fs.sync              dur=25",
      "line with \"quotes\" and a \\ backslash",
  };

  const std::string json = art.ToJson();
  EXPECT_TRUE(JsonValidator(json).Valid());
  Result<ReplayArtifact> parsed = ReplayArtifact::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->flight_recorder, art.flight_recorder);
  EXPECT_EQ(parsed->failure, art.failure);
  EXPECT_EQ(parsed->plan.crash_index, art.plan.crash_index);

  // Artifacts written before the field existed still parse (empty tail).
  // The key is the last one, so drop it with its whole array.
  const size_t pos = json.find(",\n  \"flight_recorder\"");
  const size_t end = json.find("]\n}", pos);
  ASSERT_NE(pos, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  std::string legacy = json;
  legacy.erase(pos, end + 1 - pos);
  EXPECT_TRUE(JsonValidator(legacy).Valid());
  Result<ReplayArtifact> old = ReplayArtifact::FromJson(legacy);
  ASSERT_TRUE(old.ok()) << old.status().ToString();
  EXPECT_TRUE(old->flight_recorder.empty());
}

TEST(FlightRecorderTest, ReplayArtifactEscapesControlCharacters) {
  ReplayArtifact art;
  art.workload = "create_delete";
  art.failure = "fact mismatch on /a:\n\texpected 1 block";
  art.flight_recorder = {"col1\tcol2", "line one\nline two"};
  const std::string json = art.ToJson();
  EXPECT_TRUE(JsonValidator(json).Valid());
  EXPECT_NE(json.find("/a:\\n\\texpected"), std::string::npos) << json;
  Result<ReplayArtifact> parsed = ReplayArtifact::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->failure, art.failure);
  EXPECT_EQ(parsed->flight_recorder, art.flight_recorder);
}

TEST(FlightRecorderTest, ReplayArtifactRejectsMalformedInput) {
  ReplayArtifact art;
  art.workload = "create_delete";
  art.plan.choices = {0, 1, 2};
  const std::string json = art.ToJson();
  ASSERT_TRUE(ReplayArtifact::FromJson(json).ok());
  auto with = [&json](const std::string& from, const std::string& to) {
    std::string out = json;
    const size_t pos = out.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    return pos == std::string::npos ? out : out.replace(pos, from.size(), to);
  };
  const std::vector<std::string> bad = {
      with("\"version\": 1", "\"version\": 2"),
      with("\"ssd\": \"", "\"ssd\": \"NoSuch"),
      with("\"journal\": \"", "\"journal\": \"ext9"),
      with("\"volume_kind\": \"stripe\"", "\"volume_kind\": \"raid5\""),
      with("\"choices\": [0,1,2]", "\"choices\": [0,256,2]"),
      with("\"torn_seed\": 0,", ""),
      with("\"num_queues\": 1", "\"num_queues\": \"1\""),
      json.substr(0, json.size() / 2),
  };
  for (const std::string& text : bad) {
    EXPECT_FALSE(ReplayArtifact::FromJson(text).ok()) << text;
  }
}

TEST(FlightRecorderTest, RecordWorkloadCapturesTraceTail) {
  Result<CrashWorkload> workload = FindCrashWorkload("create_delete");
  ASSERT_TRUE(workload.ok());
  StackConfig cfg;
  const CrashRecording rec = RecordWorkload(cfg, *workload);
  ASSERT_FALSE(rec.trace_tail.empty());
  EXPECT_LE(rec.trace_tail.size(), 32u);
  // The tail renders real points from the run.
  bool found = false;
  for (const std::string& line : rec.trace_tail) {
    if (line.find("ns]") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace ccnvme
