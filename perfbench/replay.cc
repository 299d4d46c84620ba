// In-process replay of a traced socket run: the recorded frames go through
// the call chain WireServer::HandleFrame makes — decode, registry,
// ExecuteChecked / ExecuteDeltaChecked, encode — with a timer around each
// public call, plus sweep-only, raster and splice calls that split a cold
// map into its layers. Two engines see the same frames in the same order:
// one behind a WireServer (handle_frame_ms), one driven call by call.
#include <algorithm>

#include "core/label_sink.h"
#include "heatmap/incremental.h"
#include "heatmap/influence.h"
#include "perfbench.h"
#include "query/heatmap_engine.h"
#include "serve/wire_server.h"

namespace perfbench {

namespace {

template <typename F>
double TimeMs(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return MsBetween(t0, Clock::now());
}

// Samples of every per-layer quantity, reduced to medians at the end.
struct Samples {
  std::map<std::string, std::vector<double>> values;
  void Add(const std::string& name, double v) { values[name].push_back(v); }
  double MedianOf(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : Median(it->second);
  }
};

// Sweep-only and full-build calls on one cold set: the split between
// core.* (the sweep) and heatmap.raster (build minus sweep).
void SplitColdMap(const CircleSetSnapshot& set, const Rect& domain, int w,
                  int h, const rnnhm::InfluenceMeasure& measure,
                  Samples* s) {
  rnnhm::CountingSink sink;
  double sweep_ms = 0;
  if (set.metric() == Metric::kLInf) {
    rnnhm::CrestStats stats;
    sweep_ms = TimeMs([&] { stats = rnnhm::RunCrest(set.circles(), measure,
                                                    &sink); });
    s->Add("core.crest.sweep_ms", sweep_ms);
    s->Add("core.crest.events", static_cast<double>(stats.num_events));
    s->Add("core.crest.labelings", static_cast<double>(stats.num_labelings));
    s->Add("core.crest.elements_walked",
           static_cast<double>(stats.num_elements_walked));
  } else {
    rnnhm::CrestL2Stats stats;
    sweep_ms = TimeMs([&] {
      stats = rnnhm::RunCrestL2(set.circles(), measure, &sink);
    });
    s->Add("core.crest_l2.sweep_ms", sweep_ms);
    s->Add("core.crest_l2.events", static_cast<double>(stats.num_events));
    s->Add("core.crest_l2.cross_events",
           static_cast<double>(stats.num_cross_events));
    s->Add("core.crest_l2.labelings",
           static_cast<double>(stats.num_labelings));
  }
  const double build_ms = TimeMs([&] {
    rnnhm::BuildHeatmapForMetric(set.metric(), set.circles(), measure,
                                 domain, w, h);
  });
  s->Add("heatmap.raster.self_ms", build_ms - sweep_ms);
  s->Add("heatmap.raster.pixels", static_cast<double>(w) * h);
}

}  // namespace

std::map<std::string, double> ReplayLayers(const SocketRun& run,
                                           Workload workload,
                                           double budget_s,
                                           std::vector<std::string>* problems) {
  const rnnhm::SizeInfluence measure;
  // Two engines configured like the forked server.
  rnnhm::HeatmapEngine engine_a(measure, ServerEngineOptions());
  rnnhm::HeatmapEngine engine_b(measure, ServerEngineOptions());
  rnnhm::WireServer wire_server(engine_a);
  rnnhm::CircleSetRegistry& registry = engine_b.registry();
  // Mirror registry for the standalone ApplyDelta call (engine B's own
  // ExecuteDeltaChecked applies the delta itself, as HandleFrame does).
  rnnhm::CircleSetRegistry mirror;

  std::vector<int> op_of_frame(run.frames.size(), -1);
  for (size_t i = 0; i < run.ops.size(); ++i) {
    if (run.ops[i].frame < op_of_frame.size()) {
      op_of_frame[run.ops[i].frame] = static_cast<int>(i);
    }
  }

  Samples s;
  std::vector<double> transport;
  uint64_t deltas = 0;
  uint64_t spliced_deltas = 0;
  // edit_stream: each fleet's latest response grid by set hash, the base
  // of that fleet's next splice call.
  std::map<uint64_t, rnnhm::HeatmapGrid> latest;

  const Clock::time_point start = Clock::now();
  for (size_t f = 0; f < run.frames.size(); ++f) {
    if (std::chrono::duration<double>(Clock::now() - start).count() >
        budget_s) {
      break;
    }
    const std::vector<uint8_t>& frame = run.frames[f];
    const OpKind kind = run.frame_kinds[f];
    const bool primary = kind == OpKind::kPrimary;
    const double handle_ms =
        TimeMs([&] { wire_server.HandleFrame(frame); });

    std::optional<rnnhm::HeatmapResponse> response;
    std::shared_ptr<const CircleSetSnapshot> swept;  // set of a cold map
    rnnhm::Rect domain;
    int width = 0;
    int height = 0;
    double decode_us = 0;
    double encode_req_us = 0;
    double execute_ms = 0;
    rnnhm::Status status;
    if (rnnhm::IsDeltaRequest(frame)) {
      std::optional<rnnhm::WireDeltaRequest> req;
      decode_us = 1e3 * TimeMs([&] {
        req = rnnhm::DecodeDeltaRequest(frame, &status);
      });
      if (!req.has_value()) {
        problems->push_back("replay: undecodable delta frame");
        break;
      }
      encode_req_us = 1e3 * TimeMs([&] { rnnhm::EncodeDeltaRequest(*req); });
      domain = req->domain;
      width = req->width;
      height = req->height;
      rnnhm::CircleSetHandle mirror_derived;
      rnnhm::DirtyRegionSet dirty;
      s.Add("query.registry.apply_delta_us", 1e3 * TimeMs([&] {
              status = mirror.ApplyDelta(mirror.FindByHash(req->base_hash),
                                         req->edits, req->new_hash,
                                         &mirror_derived, &dirty);
            }));
      const rnnhm::CircleSetHandle base = registry.FindByHash(req->base_hash);
      rnnhm::CircleSetHandle derived;
      bool spliced = false;
      execute_ms = TimeMs([&] {
        status = engine_b.ExecuteDeltaChecked(
            base, req->edits, req->new_hash, req->domain, req->width,
            req->height, &derived, &response, &spliced);
      });
      ++deltas;
      spliced_deltas += spliced ? 1 : 0;
      swept = mirror.Resolve(mirror_derived);
      const auto base_grid = latest.find(req->base_hash);
      if (swept != nullptr && base_grid != latest.end()) {
        rnnhm::HeatmapGrid grid = std::move(base_grid->second);
        latest.erase(base_grid);
        rnnhm::IncrementalRasterStats inc;
        s.Add("heatmap.incremental.splice_ms", TimeMs([&] {
                inc = rnnhm::RecomputeDirtyColumns(
                    &grid, swept->metric(), swept->circles(), measure, dirty);
              }));
        s.Add("heatmap.incremental.dirty_pixel_frac",
              static_cast<double>(inc.dirty_pixels) /
                  (static_cast<double>(width) * height));
      }
    } else {
      std::optional<rnnhm::WireRequest> req;
      decode_us = 1e3 * TimeMs([&] {
        req = rnnhm::DecodeRequest(frame, &status);
      });
      if (!req.has_value()) {
        problems->push_back("replay: undecodable request frame");
        break;
      }
      encode_req_us = 1e3 * TimeMs([&] { rnnhm::EncodeRequest(*req); });
      domain = req->domain;
      width = req->width;
      height = req->height;
      rnnhm::CircleSetHandle handle;
      if (req->inline_circles) {
        if (workload == Workload::kEditStream) {
          mirror.Register(std::span<const NnCircle>(req->circles),
                          req->metric);
        }
        s.Add("query.registry.register_us", 1e3 * TimeMs([&] {
                handle = registry.Register(std::move(req->circles),
                                           req->metric);
              }));
      } else {
        handle = registry.FindByHash(req->set_hash);
      }
      execute_ms = TimeMs([&] {
        status = engine_b.ExecuteChecked(
            rnnhm::HeatmapRequestV2{handle, req->domain, req->width,
                                    req->height},
            &response);
      });
      if (response.has_value() && response->from_cache) {
        s.Add("query.sweep_cache.hit_us", 1e3 * execute_ms);
      } else {
        swept = registry.Resolve(handle);
      }
    }
    if (!status.ok() || !response.has_value()) {
      problems->push_back("replay: frame " + std::to_string(f) +
                          " failed in process: " + status.ToString());
      break;
    }

    std::vector<uint8_t> encoded;
    const double encode_resp_us =
        1e3 * TimeMs([&] { encoded = rnnhm::EncodeResponse(*response); });
    std::string error;
    const double decode_resp_us =
        1e3 * TimeMs([&] { rnnhm::DecodeResponse(encoded, &error); });

    // The counters carried on the socket run's response for this frame
    // must repeat exactly in process.
    const int op_index = op_of_frame[f];
    if (op_index >= 0) {
      const OpRecord& op = run.ops[op_index];
      if (op.ok && (op.crest.num_events != response->stats.num_events ||
                    op.crest.num_labelings != response->stats.num_labelings ||
                    op.l2.num_events != response->l2_stats.num_events ||
                    op.l2.num_cross_events !=
                        response->l2_stats.num_cross_events ||
                    op.l2.num_labelings != response->l2_stats.num_labelings)) {
        problems->push_back("replay: sweep counters of frame " +
                            std::to_string(f) +
                            " differ from the socket run's response");
      }
      if (primary && op.answered) {
        transport.push_back(op.rtt_ms - handle_ms);
      }
    }

    if (primary) {
      s.Add("serve.wire_server.handle_frame_ms", handle_ms);
      s.Add("query.engine.execute_ms", execute_ms);
      s.Add("query.wire.decode_request_us", decode_us);
      s.Add("query.wire.encode_request_us", encode_req_us);
      s.Add("query.wire.encode_response_us", encode_resp_us);
      s.Add("query.wire.decode_response_us", decode_resp_us);
      s.Add("query.wire.response_bytes", static_cast<double>(encoded.size()));
    }
    if (swept != nullptr && kind != OpKind::kWarm) {
      SplitColdMap(*swept, domain, width, height, measure, &s);
    }
    if (workload == Workload::kEditStream && swept != nullptr &&
        kind != OpKind::kCold) {
      latest.insert_or_assign(swept->content_hash(),
                              std::move(response->grid));
    }
  }

  std::map<std::string, double> out;
  for (const char* name :
       {"core.crest.sweep_ms", "core.crest.events", "core.crest.labelings",
        "core.crest.elements_walked", "core.crest_l2.sweep_ms",
        "core.crest_l2.events", "core.crest_l2.cross_events",
        "core.crest_l2.labelings", "heatmap.raster.self_ms",
        "heatmap.raster.pixels", "heatmap.incremental.splice_ms",
        "heatmap.incremental.dirty_pixel_frac",
        "query.registry.register_us", "query.registry.apply_delta_us",
        "query.sweep_cache.hit_us", "query.wire.encode_request_us",
        "query.wire.decode_request_us", "query.wire.encode_response_us",
        "query.wire.decode_response_us", "query.wire.response_bytes",
        "query.engine.execute_ms", "serve.wire_server.handle_frame_ms"}) {
    out[name] = s.MedianOf(name);
  }
  out["heatmap.incremental.spliced_frac"] =
      deltas > 0 ? static_cast<double>(spliced_deltas) / deltas : 0.0;
  out["serve.event_loop.transport_ms"] = Median(transport);
  double percentile = 0;
  out["serve.event_loop.wait_ms"] =
      TailPercentile(transport, 10, &percentile);
  return out;
}

}  // namespace perfbench
