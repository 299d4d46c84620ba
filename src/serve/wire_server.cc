#include "serve/wire_server.h"

#include <exception>
#include <optional>
#include <utility>

#include "serve/frame_buffer.h"

namespace rnnhm {

struct WireServer::Job {
  enum class Kind { kStats, kPlain, kDelta, kTile };

  Kind kind = Kind::kPlain;
  // The set (a delta's base) pinned with the frame's geometry. A delta
  // still names its base to ApplyDelta by handle, so a base evicted
  // before the job runs answers kNotFound, as a later frame would.
  PinnedHeatmapRequest request;
  CircleSetHandle base;
  std::vector<CircleSetEdit> edits;
  uint64_t new_hash = 0;
  int tile_rows = 1;
  int tile_cols = 1;
  int tile_id = 0;

  // The outcome: `reply` holds the encoded response when `status` is ok.
  Status status;
  std::vector<uint8_t> reply;
  CircleSetHandle derived;
  bool spliced = false;
  uint64_t dirty_columns = 0;
};

std::vector<uint8_t> WireServer::HandleFrame(std::span<const uint8_t> frame,
                                             RegistrationScope* scope) {
  Step step = StartFrame(frame, scope);
  if (step.job == nullptr) return std::move(step.reply);
  RunJob(*step.job);
  return FinishJob(*step.job, scope);
}

WireServer::Step WireServer::StartFrame(std::span<const uint8_t> frame,
                                        RegistrationScope* scope) {
  auto job = std::make_shared<Job>();
  Status& status = job->status;
  CircleSetHandle handle;
  if (IsStatsRequest(frame)) {
    job->kind = Job::Kind::kStats;
    status = DecodeStatsRequest(frame);
  } else if (IsDeltaRequest(frame)) {
    job->kind = Job::Kind::kDelta;
    std::optional<WireDeltaRequest> request =
        DecodeDeltaRequest(frame, &status);
    if (request.has_value()) {
      // The base is a by-hash reference with the delta's metric and raster.
      WireRequest base{request->metric, request->base_hash, false,
                       {},              request->domain,    request->width,
                       request->height};
      status = ResolveSet(base, /*delta_base=*/true, scope, &job->base,
                          &job->request);
      job->edits = std::move(request->edits);
      job->new_hash = request->new_hash;
    }
    if (status.ok()) return Step{{}, std::move(job)};
  } else if (IsTileRequest(frame)) {
    job->kind = Job::Kind::kTile;
    std::optional<WireTileRequest> request = DecodeTileRequest(frame, &status);
    if (request.has_value()) {
      status = ResolveSet(*request, /*delta_base=*/false, scope, &handle,
                          &job->request);
      job->tile_rows = request->tile_rows;
      job->tile_cols = request->tile_cols;
      job->tile_id = request->tile_id;
    }
    if (status.ok()) return Step{{}, std::move(job)};
  } else {
    std::optional<WireRequest> request = DecodeRequest(frame, &status);
    if (request.has_value()) {
      status = ResolveSet(*request, /*delta_base=*/false, scope, &handle,
                          &job->request);
    }
    std::optional<HeatmapResponse> hit;
    if (status.ok()) status = engine_.LookupChecked(job->request, &hit);
    if (status.ok() && !hit.has_value()) return Step{{}, std::move(job)};
    if (hit.has_value()) job->reply = EncodeResponse(*hit);
  }
  return Step{FinishJob(*job, scope), nullptr};
}

void WireServer::RunJob(Job& job) const {
  std::optional<HeatmapResponse> response;
  switch (job.kind) {
    case Job::Kind::kStats:
      return;  // answered by StartFrame
    case Job::Kind::kPlain:
      job.status = engine_.SweepChecked(job.request, &response);
      break;
    case Job::Kind::kDelta: {
      IncrementalRasterStats splice_stats;
      job.status = engine_.ExecuteDeltaChecked(
          job.base, job.edits, job.new_hash, job.request.domain,
          job.request.width, job.request.height, &job.derived, &response,
          &job.spliced, &splice_stats);
      job.dirty_columns = static_cast<uint64_t>(splice_stats.dirty_columns);
      break;
    }
    case Job::Kind::kTile:
      job.status = engine_.ExecuteTileFragmentChecked(
          job.request, job.tile_rows, job.tile_cols, job.tile_id, &response);
      break;
  }
  if (!job.status.ok()) return;
  try {
    job.reply = EncodeResponse(*response);
  } catch (const std::exception& e) {  // e.g. no memory for a huge grid
    job.status = Status::Internal(e.what());
  }
}

std::vector<uint8_t> WireServer::FinishJob(Job& job,
                                           RegistrationScope* scope) {
  ++counters_.requests;
  if (job.kind == Job::Kind::kTile) ++counters_.tile_requests;
  // A derived set is registered even when serving it failed afterwards;
  // the scope releases it either way.
  if (job.derived.valid() && scope != nullptr) scope->Track(job.derived);
  if (!job.status.ok()) {
    ++counters_.errors;
    return EncodeErrorResponse(ToWireStatus(job.status.code),
                               job.status.message);
  }
  ++counters_.ok;
  switch (job.kind) {
    case Job::Kind::kStats:
      return EncodeStatsResponse(stats());  // counts this very request
    case Job::Kind::kDelta:
      ++counters_.deltas;
      if (job.spliced) {
        ++counters_.delta_splices;
        counters_.delta_dirty_columns += job.dirty_columns;
      }
      break;
    case Job::Kind::kTile:
      ++counters_.tile_fragments;
      break;
    case Job::Kind::kPlain:
      break;
  }
  return std::move(job.reply);
}

Status WireServer::ResolveSet(WireRequest& request, bool delta_base,
                              RegistrationScope* scope,
                              CircleSetHandle* handle,
                              PinnedHeatmapRequest* pinned) {
  if (static_cast<uint64_t>(request.width) *
          static_cast<uint64_t>(request.height) >
      kMaxWirePixels) {
    return Status::InvalidArgument("raster exceeds the pixel ceiling");
  }
  CircleSetRegistry& registry = engine_.registry();
  if (request.inline_circles) {
    const size_t before = registry.size();
    *handle = registry.Register(std::move(request.circles), request.metric);
    if (registry.size() > before) ++counters_.sets_registered;
    if (scope != nullptr) scope->Track(*handle);
  } else {
    *handle = registry.FindByHash(request.set_hash);
  }
  std::shared_ptr<const CircleSetSnapshot> set =
      handle->valid() ? registry.Resolve(*handle) : nullptr;
  // The bucket matched but the content does not hash to the asked-for
  // value: a 64-bit collision resolved a different set. Refusing is the
  // only correct answer — serving it would be silently wrong.
  const bool collided = set != nullptr && !request.inline_circles &&
                        set->content_hash() != request.set_hash;
  if (delta_base && (set == nullptr || collided)) {
    return Status::NotFound(
        "delta base circle set is not registered on this shard "
        "(released, evicted, or never seen here)");
  }
  if (set == nullptr) {
    return Status::NotFound(
        "circle set is not registered on this shard (never carried "
        "inline, released, or evicted)");
  }
  if (collided) {
    return Status::NotFound(
        "registered set under this hash has different content "
        "(64-bit hash collision)");
  }
  if (set->metric() != request.metric) {
    return Status::InvalidArgument(
        delta_base ? "delta metric disagrees with the registered base"
                   : "request metric disagrees with the registered set");
  }
  *pinned = PinnedHeatmapRequest{std::move(set), request.domain,
                                 request.width, request.height};
  return Status::Ok();
}

WireStatsReply WireServer::stats() const {
  WireStatsReply reply = counters_;
  reply.shards = 1;
  reply.sets_evicted = engine_.registry().total_evicted();
  return reply;
}

Status WireServer::ServeStream(ByteSource& in, ByteSink& out) {
  FrameAssembler assembler(kMaxFramePayloadBytes);
  uint8_t chunk[64 * 1024];
  for (;;) {
    while (std::optional<std::vector<uint8_t>> frame = assembler.Next()) {
      const std::vector<uint8_t> reply = HandleFrame(*frame);
      const uint32_t length = static_cast<uint32_t>(reply.size());
      uint8_t prefix[4];
      for (int i = 0; i < 4; ++i) {
        prefix[i] = static_cast<uint8_t>(length >> (8 * i));
      }
      if (!out.Write(std::span<const uint8_t>(prefix, 4)) ||
          !out.Write(reply) || !out.Flush()) {
        return Status::Unavailable("failed to write response frame");
      }
    }
    if (assembler.poisoned()) return assembler.status();
    const std::ptrdiff_t n = in.Read(chunk, sizeof(chunk));
    if (n < 0) return Status::DataLoss("read error on frame stream");
    if (n == 0) {
      if (assembler.mid_frame()) {
        return Status::DataLoss("stream truncated mid-frame");
      }
      return Status::Ok();
    }
    assembler.Feed(std::span<const uint8_t>(chunk, static_cast<size_t>(n)));
  }
}

}  // namespace rnnhm
