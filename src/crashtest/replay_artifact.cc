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

const char* VolumeKindName(VolumeKind kind) {
  return kind == VolumeKind::kMirror ? "mirror" : "stripe";
}

// The artifact's one field list: every StackConfig field, by key, in the
// order ToJson writes them. The SSD travels as its preset's name (the
// presets are the only source of SsdConfig values), and
// cc_options.num_queues is left out because the stack sets it from
// num_queues.
template <typename Config, typename Visit>
void ForEachField(Config& c, Visit visit) {
  visit("ssd", c.ssd);
  visit("pcie_mmio_write_bytes_per_sec", c.pcie.mmio_write_bytes_per_sec);
  visit("pcie_mmio_write_overhead_ns", c.pcie.mmio_write_overhead_ns);
  visit("pcie_max_mmio_backlog_ns", c.pcie.max_mmio_backlog_ns);
  visit("num_queues", c.num_queues);
  visit("queue_depth", c.queue_depth);
  visit("enable_ccnvme", c.enable_ccnvme);
  visit("tx_aware_mmio", c.cc_options.tx_aware_mmio);
  visit("in_order_completion", c.cc_options.in_order_completion);
  visit("doorbell_coalesce_limit", c.cc_options.doorbell_coalesce_limit);
  visit("fs_total_blocks", c.fs_total_blocks);
  visit("journal", c.fs.journal);
  visit("journal_areas", c.fs.journal_areas);
  visit("journal_blocks", c.fs.journal_blocks);
  visit("data_journaling", c.fs.data_journaling);
  visit("metadata_shadow_paging", c.fs.metadata_shadow_paging);
  visit("test_skip_psq_window_scan", c.fs.test_skip_psq_window_scan);
  visit("test_skip_cross_core_order", c.fs.test_skip_cross_core_order);
  visit("nvlog_drain_batch", c.fs.nvlog_drain_batch);
  visit("nvlog_drain_delay_ns", c.fs.nvlog_drain_delay_ns);
  visit("nvlog_drainers", c.fs.nvlog_drainers);
  visit("test_skip_nvlog_fence", c.fs.test_skip_nvlog_fence);
  visit("num_devices", c.num_devices);
  visit("volume_kind", c.volume.kind);
  visit("volume_chunk_blocks", c.volume.chunk_blocks);
  visit("test_skip_volume_commit_gate", c.volume.test_skip_volume_commit_gate);
  visit("nvm_enabled", c.nvm.enabled);
  visit("nvm_size_bytes", c.nvm.size_bytes);
  visit("nvm_store_line_ns", c.nvm.store_line_ns);
  visit("nvm_load_line_ns", c.nvm.load_line_ns);
  visit("kv_enabled", c.kv.enabled);
  visit("kv_dir_slots", c.kv.dir_slots);
  visit("kv_shadow_slots", c.kv.shadow_slots);
  visit("kv_flash_pages", c.kv.flash_pages);
  visit("kv_pages_per_block", c.kv.pages_per_block);
  visit("kv_total_lpns", c.kv.total_lpns);
  visit("kv_map_cache_segments", c.kv.map_cache_segments);
  visit("kv_gc_free_blocks_low", c.kv.gc_free_blocks_low);
  visit("kv_test_skip_ftl_shadow_commit", c.kv.test_skip_ftl_shadow_commit);
}

// --- Writers, one per field type ---------------------------------------------

void Write(JsonWriter& w, bool v) { w.os << (v ? "true" : "false"); }
void Write(JsonWriter& w, std::unsigned_integral auto v) { w.os << static_cast<uint64_t>(v); }
void Write(JsonWriter& w, const SsdConfig& v) { w.String(v.name); }
void Write(JsonWriter& w, JournalKind v) { w.String(JournalKindName(v)); }
void Write(JsonWriter& w, VolumeKind v) { w.String(VolumeKindName(v)); }

// --- Readers: every key is required, with its field's type -------------------
// A replay re-simulates the recording, so an artifact reproduces only on the
// code that wrote it; there is no older layout to accept.

Result<const JsonValue*> Field(const JsonValue& root, const std::string& key,
                               JsonValue::Type type) {
  const JsonValue* v = root.Find(key);
  if (v == nullptr) {
    return NotFound("artifact missing key: " + key);
  }
  if (v->type != type) {
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

Status Read(const JsonValue& root, const std::string& key, bool* out) {
  CCNVME_ASSIGN_OR_RETURN(const JsonValue* v, Field(root, key, JsonValue::Type::kBool));
  *out = v->b;
  return OkStatus();
}

Status Read(const JsonValue& root, const std::string& key, std::string* out) {
  CCNVME_ASSIGN_OR_RETURN(const JsonValue* v, Field(root, key, JsonValue::Type::kString));
  *out = v->str;
  return OkStatus();
}

template <std::unsigned_integral Int>
Status Read(const JsonValue& root, const std::string& key, Int* out) {
  CCNVME_ASSIGN_OR_RETURN(const JsonValue* v, Field(root, key, JsonValue::Type::kNumber));
  if (!ParseUInt(*v, out)) {
    return InvalidArgument("expected unsigned integer for key: " + key);
  }
  return OkStatus();
}

Status Read(const JsonValue& root, const std::string& key, SsdConfig* out) {
  std::string name;
  CCNVME_RETURN_IF_ERROR(Read(root, key, &name));
  CCNVME_ASSIGN_OR_RETURN(*out, SsdByName(name));
  return OkStatus();
}

Status Read(const JsonValue& root, const std::string& key, JournalKind* out) {
  std::string name;
  CCNVME_RETURN_IF_ERROR(Read(root, key, &name));
  CCNVME_ASSIGN_OR_RETURN(*out, ParseJournalKind(name));
  return OkStatus();
}

Status Read(const JsonValue& root, const std::string& key, VolumeKind* out) {
  std::string name;
  CCNVME_RETURN_IF_ERROR(Read(root, key, &name));
  if (name != VolumeKindName(VolumeKind::kStripe) && name != VolumeKindName(VolumeKind::kMirror)) {
    return InvalidArgument("unknown volume kind: " + name);
  }
  *out = name == VolumeKindName(VolumeKind::kMirror) ? VolumeKind::kMirror : VolumeKind::kStripe;
  return OkStatus();
}

// Reads an array of |key| whose every element |read| accepts.
template <typename ReadElement>
Status ReadArray(const JsonValue& root, const std::string& key, ReadElement read) {
  CCNVME_ASSIGN_OR_RETURN(const JsonValue* arr, Field(root, key, JsonValue::Type::kArray));
  for (const JsonValue& v : arr->arr) {
    if (!read(v)) {
      return InvalidArgument("bad array element for key: " + key);
    }
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
  w.Open('{');
  key("version");
  w.os << 1;
  key("workload");
  w.String(workload);
  ForEachField(config, [&](const char* k, const auto& field) {
    key(k);
    Write(w, field);
  });
  key("torn_seed");
  w.os << torn_seed;
  key("crash_index");
  w.os << plan.crash_index;
  key("choices");
  w.os << '[';
  for (size_t i = 0; i < plan.choices.size(); ++i) {
    w.os << (i == 0 ? "" : ",") << static_cast<uint32_t>(plan.choices[i]);
  }
  w.os << ']';
  key("failure");
  w.String(failure);
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
  CCNVME_RETURN_IF_ERROR(Read(root, "version", &version));
  if (version != 1) {
    return InvalidArgument("unsupported artifact version: " + std::to_string(version));
  }
  ReplayArtifact art;
  CCNVME_RETURN_IF_ERROR(Read(root, "workload", &art.workload));
  Status config = OkStatus();
  ForEachField(art.config, [&](const char* k, auto& field) {
    if (config.ok()) {
      config = Read(root, k, &field);
    }
  });
  CCNVME_RETURN_IF_ERROR(config);
  // An NVLog journal runs on the NVM tier, as the stack builds it.
  if (art.config.fs.journal == JournalKind::kNvlog) {
    art.config.nvm.enabled = true;
  }
  CCNVME_RETURN_IF_ERROR(Read(root, "torn_seed", &art.torn_seed));
  CCNVME_RETURN_IF_ERROR(Read(root, "crash_index", &art.plan.crash_index));
  CCNVME_RETURN_IF_ERROR(ReadArray(root, "choices", [&](const JsonValue& v) {
    return ParseUInt(v, &art.plan.choices.emplace_back());
  }));
  CCNVME_RETURN_IF_ERROR(Read(root, "failure", &art.failure));
  CCNVME_RETURN_IF_ERROR(ReadArray(root, "flight_recorder", [&](const JsonValue& v) {
    art.flight_recorder.push_back(v.str);
    return v.type == JsonValue::Type::kString;
  }));
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
