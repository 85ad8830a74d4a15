#include "src/trace/tracer.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/logging.h"

namespace ccnvme {

Tracer::Tracer(Simulator* sim, size_t ring_capacity) : sim_(sim) {
  CCNVME_CHECK(sim_ != nullptr);
  CCNVME_CHECK_GT(ring_capacity, 0u);
  ring_.resize(ring_capacity);
  total_recorded_ = 0;
  agg_.resize(kNumTracePoints);
  edge_agg_.resize(kNumWaitEdges);
  // Track 0 catches events recorded outside any actor (event-loop
  // callbacks); actors get tracks 1..N in first-event order.
  auto sim_track = std::make_unique<Track>();
  sim_track->id = 0;
  sim_track->name = "sim";
  sim_track->stack.reserve(16);
  tracks_.push_back(std::move(sim_track));
}

Tracer::Track& Tracer::CurrentTrack() {
  const Actor* actor = Simulator::CurrentActor();
  if (actor == nullptr) return *tracks_[0];
  auto [it, inserted] = track_ids_.try_emplace(actor, static_cast<uint32_t>(tracks_.size()));
  if (inserted) {
    auto track = std::make_unique<Track>();
    track->id = it->second;
    track->name = actor->name();
    track->stack.reserve(16);
    tracks_.push_back(std::move(track));
  }
  return *tracks_[it->second];
}

void Tracer::Append(const TraceEvent& ev) {
  ring_[total_recorded_ % ring_.size()] = ev;
  ++total_recorded_;
  if (sink_ != nullptr) sink_->OnTraceEvent(ev);
}

const TraceEvent& Tracer::event(size_t i) const {
  CCNVME_CHECK_LT(i, size());
  const size_t oldest = total_recorded_ <= ring_.size() ? 0 : total_recorded_ % ring_.size();
  return ring_[(oldest + i) % ring_.size()];
}

void Tracer::BeginSpan(TracePoint point, uint64_t arg0) {
  Track& track = CurrentTrack();
  const TraceContext& ctx = CurrentTraceContext();
  track.stack.push_back(OpenSpan{point, sim_->now(), ctx.req_id, ctx.tx_id, arg0, ctx.device});
}

void Tracer::EndSpan(TracePoint point) {
  Track& track = CurrentTrack();
  CCNVME_CHECK(!track.stack.empty())
      << "EndSpan(" << TracePointName(point) << ") on track '" << track.name
      << "' with no open span";
  const OpenSpan top = track.stack.back();
  CCNVME_CHECK(top.point == point)
      << "EndSpan(" << TracePointName(point) << ") does not match open span "
      << TracePointName(top.point) << " on track '" << track.name << "'";
  track.stack.pop_back();

  TraceEvent ev;
  ev.ts_ns = top.begin_ns;
  ev.dur_ns = sim_->now() - top.begin_ns;
  ev.req_id = top.req_id;
  ev.tx_id = top.tx_id;
  ev.arg0 = top.arg0;
  ev.point = point;
  ev.is_span = true;
  ev.track = track.id;
  ev.device = top.device;
  Append(ev);

  PointAgg& agg = agg_[static_cast<size_t>(point)];
  ++agg.count;
  agg.total_ns += ev.dur_ns;
  agg.dur_ns.Add(ev.dur_ns);
}

void Tracer::Instant(TracePoint point, uint64_t arg0) {
  InstantWith(point, CurrentTraceContext(), arg0);
}

void Tracer::InstantWith(TracePoint point, const TraceContext& ctx, uint64_t arg0) {
  Track& track = CurrentTrack();
  TraceEvent ev;
  ev.ts_ns = sim_->now();
  ev.req_id = ctx.req_id;
  ev.tx_id = ctx.tx_id;
  ev.arg0 = arg0;
  ev.point = point;
  ev.is_span = false;
  ev.track = track.id;
  ev.device = ctx.device;
  Append(ev);
  ++agg_[static_cast<size_t>(point)].count;
}

void Tracer::WaitEdgeEvent(WaitEdge edge, uint64_t begin_ns, uint64_t end_ns, uint64_t arg0) {
  WaitEdgeWith(edge, CurrentTraceContext(), begin_ns, end_ns, arg0);
}

void Tracer::WaitEdgeWith(WaitEdge edge, const TraceContext& ctx, uint64_t begin_ns,
                          uint64_t end_ns, uint64_t arg0) {
  if (end_ns <= begin_ns) return;
  Track& track = CurrentTrack();
  TraceEvent ev;
  ev.ts_ns = begin_ns;
  ev.dur_ns = end_ns - begin_ns;
  ev.req_id = ctx.req_id;
  ev.tx_id = ctx.tx_id;
  ev.arg0 = arg0;
  ev.edge = edge;
  ev.track = track.id;
  ev.device = ctx.device;
  Append(ev);

  PointAgg& agg = edge_agg_[static_cast<size_t>(edge)];
  ++agg.count;
  agg.total_ns += ev.dur_ns;
  agg.dur_ns.Add(ev.dur_ns);
}

std::map<std::string, uint64_t> Tracer::CounterSnapshot() const {
  std::map<std::string, uint64_t> out;
  for (size_t i = 0; i < kNumTraceCounters; ++i) {
    out[TraceCounterName(static_cast<TraceCounter>(i))] = counters_[i];
  }
  return out;
}

void Tracer::ResetAggregation() {
  for (PointAgg& a : agg_) {
    a.count = 0;
    a.total_ns = 0;
    a.dur_ns.Reset();
  }
  for (PointAgg& a : edge_agg_) {
    a.count = 0;
    a.total_ns = 0;
    a.dur_ns.Reset();
  }
  for (uint64_t& c : counters_) c = 0;
}

std::vector<std::pair<uint32_t, Tracer::OpenSpan>> Tracer::OpenSpans() const {
  std::vector<std::pair<uint32_t, OpenSpan>> out;
  for (const auto& track : tracks_) {
    for (const OpenSpan& span : track->stack) out.emplace_back(track->id, span);
  }
  return out;
}

std::vector<std::string> Tracer::FormatTail(size_t max_events) const {
  const size_t n = size() < max_events ? size() : max_events;
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = size() - n; i < size(); ++i) {
    const TraceEvent& ev = event(i);
    const char* name = ev.is_wait_edge() ? WaitEdgeName(ev.edge) : TracePointName(ev.point);
    char buf[256];
    int len = std::snprintf(buf, sizeof(buf), "[%12" PRIu64 " ns] %-14s %-20s",
                            ev.ts_ns, track_name(ev.track).c_str(), name);
    if (ev.is_wait_edge()) {
      len += std::snprintf(buf + len, sizeof(buf) - len, " dur=%" PRIu64, ev.dur_ns);
    }
    if (ev.is_span) {
      len += std::snprintf(buf + len, sizeof(buf) - len, " dur=%" PRIu64, ev.dur_ns);
    }
    if (ev.req_id != 0) {
      len += std::snprintf(buf + len, sizeof(buf) - len, " req=%" PRIu64, ev.req_id);
    }
    if (ev.tx_id != 0) {
      len += std::snprintf(buf + len, sizeof(buf) - len, " tx=%" PRIu64, ev.tx_id);
    }
    if (ev.device != 0) {
      len += std::snprintf(buf + len, sizeof(buf) - len, " dev=%u", ev.device);
    }
    if (ev.arg0 != 0) {
      std::snprintf(buf + len, sizeof(buf) - len, " arg=%" PRIu64, ev.arg0);
    }
    out.emplace_back(buf);
  }
  return out;
}

}  // namespace ccnvme
