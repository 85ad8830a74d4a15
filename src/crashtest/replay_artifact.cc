#include "src/crashtest/replay_artifact.h"

#include <charconv>
#include <concepts>
#include <fstream>
#include <sstream>

#include "src/common/json.h"
#include "src/crashtest/crash_workloads.h"

namespace ccnvme {
namespace {

Result<SsdConfig> SsdByName(const std::string& name) {
  for (const SsdConfig& c :
       {SsdConfig::Intel750(), SsdConfig::Optane905P(), SsdConfig::OptaneP5800X()}) {
    if (c.name == name) {
      return c;
    }
  }
  return InvalidArgument("unknown SSD preset: " + name);
}

// --- Typed readers over the parsed artifact object -------------------------
// Keys added after the first artifact layout are optional: an absent one
// keeps the default. A present key of the wrong type is an error either way.

constexpr bool kRequired = true;
constexpr bool kOptional = false;

// The value of |key|, checked to be of |type|; nullptr when the key is
// absent and not |required|.
Result<const JsonValue*> Field(const JsonValue& root, const std::string& key,
                               JsonValue::Type type, bool required) {
  const JsonValue* v = root.Find(key);
  if (v == nullptr && required) {
    return NotFound("artifact missing key: " + key);
  }
  if (v != nullptr && v->type != type) {
    return InvalidArgument("wrong type for key: " + key);
  }
  return v;
}

// Exact decimal parse of a number literal; false unless it is a
// non-negative integer that fits |Int| (the parsed double would round
// integers above 2^53).
template <std::unsigned_integral Int>
bool ParseUInt(const JsonValue& v, Int* out) {
  if (v.type != JsonValue::Type::kNumber) {
    return false;
  }
  const char* end = v.str.data() + v.str.size();
  auto [ptr, ec] = std::from_chars(v.str.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

Status Read(const JsonValue& root, const std::string& key, bool required, bool* out) {
  CCNVME_ASSIGN_OR_RETURN(const JsonValue* v,
                          Field(root, key, JsonValue::Type::kBool, required));
  if (v != nullptr) {
    *out = v->b;
  }
  return OkStatus();
}

Status Read(const JsonValue& root, const std::string& key, bool required, std::string* out) {
  CCNVME_ASSIGN_OR_RETURN(const JsonValue* v,
                          Field(root, key, JsonValue::Type::kString, required));
  if (v != nullptr) {
    *out = v->str;
  }
  return OkStatus();
}

template <std::unsigned_integral Int>
Status Read(const JsonValue& root, const std::string& key, bool required, Int* out) {
  CCNVME_ASSIGN_OR_RETURN(const JsonValue* v,
                          Field(root, key, JsonValue::Type::kNumber, required));
  if (v != nullptr && !ParseUInt(*v, out)) {
    return InvalidArgument("expected unsigned integer for key: " + key);
  }
  return OkStatus();
}

}  // namespace

std::string ReplayArtifact::ToJson() const {
  JsonWriter w(/*pretty=*/true);
  bool first = true;
  auto key = [&](const char* k) {
    w.Key(k, first);
    first = false;
  };
  auto num = [&](const char* k, uint64_t v) {
    key(k);
    w.os << v;
  };
  auto flag = [&](const char* k, bool v) {
    key(k);
    w.os << (v ? "true" : "false");
  };
  auto str = [&](const char* k, const std::string& v) {
    key(k);
    w.String(v);
  };
  const StackConfig& c = config;
  w.Open('{');
  num("version", 1);
  str("workload", workload);
  str("ssd", c.ssd.name);
  num("num_queues", c.num_queues);
  num("queue_depth", c.queue_depth);
  flag("enable_ccnvme", c.enable_ccnvme);
  flag("tx_aware_mmio", c.cc_options.tx_aware_mmio);
  flag("in_order_completion", c.cc_options.in_order_completion);
  num("fs_total_blocks", c.fs_total_blocks);
  str("journal", JournalKindName(c.fs.journal));
  num("journal_areas", c.fs.journal_areas);
  num("journal_blocks", c.fs.journal_blocks);
  flag("data_journaling", c.fs.data_journaling);
  flag("metadata_shadow_paging", c.fs.metadata_shadow_paging);
  flag("test_skip_psq_window_scan", c.fs.test_skip_psq_window_scan);
  flag("test_skip_cross_core_order", c.fs.test_skip_cross_core_order);
  flag("test_skip_nvlog_fence", c.fs.test_skip_nvlog_fence);
  flag("nvm_enabled", c.nvm.enabled);
  num("nvm_size_bytes", c.nvm.size_bytes);
  num("num_devices", c.num_devices);
  str("volume_kind", c.volume.kind == VolumeKind::kMirror ? "mirror" : "stripe");
  num("volume_chunk_blocks", c.volume.chunk_blocks);
  flag("test_skip_volume_commit_gate", c.volume.test_skip_volume_commit_gate);
  flag("kv_enabled", c.kv.enabled);
  num("kv_dir_slots", c.kv.dir_slots);
  num("kv_shadow_slots", c.kv.shadow_slots);
  num("kv_flash_pages", c.kv.flash_pages);
  num("kv_pages_per_block", c.kv.pages_per_block);
  num("kv_total_lpns", c.kv.total_lpns);
  num("kv_map_cache_segments", c.kv.map_cache_segments);
  num("kv_gc_free_blocks_low", c.kv.gc_free_blocks_low);
  flag("kv_test_skip_ftl_shadow_commit", c.kv.test_skip_ftl_shadow_commit);
  num("torn_seed", torn_seed);
  num("crash_index", plan.crash_index);
  key("choices");
  w.os << '[';
  for (size_t i = 0; i < plan.choices.size(); ++i) {
    w.os << (i == 0 ? "" : ",") << static_cast<uint32_t>(plan.choices[i]);
  }
  w.os << ']';
  str("failure", failure);
  key("flight_recorder");
  w.Open('[');
  for (size_t i = 0; i < flight_recorder.size(); ++i) {
    if (i > 0) {
      w.os << ',';
    }
    w.NewlineIndent();
    w.String(flight_recorder[i]);
  }
  w.Close(']');
  w.Close('}');
  w.os << '\n';
  return w.os.str();
}

Result<ReplayArtifact> ReplayArtifact::FromJson(const std::string& json) {
  JsonValue root;
  std::string error;
  if (!JsonParse(json, &root, &error)) {
    return InvalidArgument("artifact is not JSON: " + error);
  }
  if (root.type != JsonValue::Type::kObject) {
    return InvalidArgument("artifact is not a JSON object");
  }
  uint64_t version = 0;
  CCNVME_RETURN_IF_ERROR(Read(root, "version", kRequired, &version));
  if (version != 1) {
    return InvalidArgument("unsupported artifact version: " + std::to_string(version));
  }
  ReplayArtifact art;
  StackConfig& c = art.config;
  std::string ssd_name;
  std::string journal;
  CCNVME_RETURN_IF_ERROR(Read(root, "workload", kRequired, &art.workload));
  CCNVME_RETURN_IF_ERROR(Read(root, "ssd", kRequired, &ssd_name));
  CCNVME_ASSIGN_OR_RETURN(c.ssd, SsdByName(ssd_name));
  CCNVME_RETURN_IF_ERROR(Read(root, "num_queues", kRequired, &c.num_queues));
  CCNVME_RETURN_IF_ERROR(Read(root, "queue_depth", kRequired, &c.queue_depth));
  CCNVME_RETURN_IF_ERROR(Read(root, "enable_ccnvme", kRequired, &c.enable_ccnvme));
  CCNVME_RETURN_IF_ERROR(Read(root, "tx_aware_mmio", kRequired, &c.cc_options.tx_aware_mmio));
  CCNVME_RETURN_IF_ERROR(
      Read(root, "in_order_completion", kRequired, &c.cc_options.in_order_completion));
  CCNVME_RETURN_IF_ERROR(Read(root, "fs_total_blocks", kRequired, &c.fs_total_blocks));
  CCNVME_RETURN_IF_ERROR(Read(root, "journal", kRequired, &journal));
  CCNVME_ASSIGN_OR_RETURN(c.fs.journal, ParseJournalKind(journal));
  CCNVME_RETURN_IF_ERROR(Read(root, "journal_areas", kRequired, &c.fs.journal_areas));
  CCNVME_RETURN_IF_ERROR(Read(root, "journal_blocks", kRequired, &c.fs.journal_blocks));
  CCNVME_RETURN_IF_ERROR(Read(root, "data_journaling", kRequired, &c.fs.data_journaling));
  CCNVME_RETURN_IF_ERROR(
      Read(root, "metadata_shadow_paging", kRequired, &c.fs.metadata_shadow_paging));
  CCNVME_RETURN_IF_ERROR(
      Read(root, "test_skip_psq_window_scan", kRequired, &c.fs.test_skip_psq_window_scan));
  // Optional (older artifacts predate cross-core fsync aggregation).
  CCNVME_RETURN_IF_ERROR(
      Read(root, "test_skip_cross_core_order", kOptional, &c.fs.test_skip_cross_core_order));
  // Optional NVM tier (older artifacts predate the NVLog architecture).
  CCNVME_RETURN_IF_ERROR(
      Read(root, "test_skip_nvlog_fence", kOptional, &c.fs.test_skip_nvlog_fence));
  CCNVME_RETURN_IF_ERROR(Read(root, "nvm_enabled", kOptional, &c.nvm.enabled));
  CCNVME_RETURN_IF_ERROR(Read(root, "nvm_size_bytes", kOptional, &c.nvm.size_bytes));
  if (c.fs.journal == JournalKind::kNvlog) {
    c.nvm.enabled = true;
  }
  // Optional volume geometry (older artifacts predate multi-device volumes).
  std::string volume_kind = "stripe";
  CCNVME_RETURN_IF_ERROR(Read(root, "num_devices", kOptional, &c.num_devices));
  CCNVME_RETURN_IF_ERROR(Read(root, "volume_kind", kOptional, &volume_kind));
  if (volume_kind != "stripe" && volume_kind != "mirror") {
    return InvalidArgument("unknown volume kind: " + volume_kind);
  }
  c.volume.kind = volume_kind == "mirror" ? VolumeKind::kMirror : VolumeKind::kStripe;
  CCNVME_RETURN_IF_ERROR(
      Read(root, "volume_chunk_blocks", kOptional, &c.volume.chunk_blocks));
  CCNVME_RETURN_IF_ERROR(Read(root, "test_skip_volume_commit_gate", kOptional,
                              &c.volume.test_skip_volume_commit_gate));
  // Optional KV-native path (older artifacts predate the KV-SSD).
  CCNVME_RETURN_IF_ERROR(Read(root, "kv_enabled", kOptional, &c.kv.enabled));
  CCNVME_RETURN_IF_ERROR(Read(root, "kv_dir_slots", kOptional, &c.kv.dir_slots));
  CCNVME_RETURN_IF_ERROR(Read(root, "kv_shadow_slots", kOptional, &c.kv.shadow_slots));
  CCNVME_RETURN_IF_ERROR(Read(root, "kv_flash_pages", kOptional, &c.kv.flash_pages));
  CCNVME_RETURN_IF_ERROR(Read(root, "kv_pages_per_block", kOptional, &c.kv.pages_per_block));
  CCNVME_RETURN_IF_ERROR(Read(root, "kv_total_lpns", kOptional, &c.kv.total_lpns));
  CCNVME_RETURN_IF_ERROR(
      Read(root, "kv_map_cache_segments", kOptional, &c.kv.map_cache_segments));
  CCNVME_RETURN_IF_ERROR(
      Read(root, "kv_gc_free_blocks_low", kOptional, &c.kv.gc_free_blocks_low));
  CCNVME_RETURN_IF_ERROR(Read(root, "kv_test_skip_ftl_shadow_commit", kOptional,
                              &c.kv.test_skip_ftl_shadow_commit));
  CCNVME_RETURN_IF_ERROR(Read(root, "torn_seed", kRequired, &art.torn_seed));
  CCNVME_RETURN_IF_ERROR(Read(root, "crash_index", kRequired, &art.plan.crash_index));
  CCNVME_ASSIGN_OR_RETURN(const JsonValue* choices,
                          Field(root, "choices", JsonValue::Type::kArray, kRequired));
  for (const JsonValue& v : choices->arr) {
    uint8_t choice = 0;
    if (!ParseUInt(v, &choice)) {
      return InvalidArgument("choice out of range in key: choices");
    }
    art.plan.choices.push_back(choice);
  }
  CCNVME_RETURN_IF_ERROR(Read(root, "failure", kRequired, &art.failure));
  // Optional (older artifacts predate the flight recorder).
  CCNVME_ASSIGN_OR_RETURN(const JsonValue* tail, Field(root, "flight_recorder",
                                                       JsonValue::Type::kArray, kOptional));
  if (tail != nullptr) {
    for (const JsonValue& line : tail->arr) {
      if (line.type != JsonValue::Type::kString) {
        return InvalidArgument("bad array element for key: flight_recorder");
      }
      art.flight_recorder.push_back(line.str);
    }
  }
  return art;
}

Status ReplayArtifact::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return InvalidArgument("cannot open artifact file for writing: " + path);
  }
  out << ToJson();
  out.close();
  if (!out) {
    return InvalidArgument("failed writing artifact file: " + path);
  }
  return OkStatus();
}

Result<ReplayArtifact> ReplayArtifact::ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFound("cannot open artifact file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return FromJson(buf.str());
}

Result<std::string> ReplayArtifactCheck(const ReplayArtifact& artifact,
                                        std::string* metrics_json) {
  CCNVME_ASSIGN_OR_RETURN(CrashWorkload workload, FindCrashWorkload(artifact.workload));
  const CrashRecording rec = RecordWorkload(artifact.config, workload);
  return CheckCrashState(rec, artifact.plan, artifact.torn_seed, metrics_json);
}

}  // namespace ccnvme
