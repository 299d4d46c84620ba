#include "serve/wire_server.h"

#include <optional>
#include <utility>

#include "serve/frame_buffer.h"

namespace rnnhm {

std::vector<uint8_t> WireServer::HandleFrame(std::span<const uint8_t> frame,
                                             RegistrationScope* scope) {
  ++counters_.requests;
  Status status;
  std::optional<HeatmapResponse> response;
  CircleSetHandle handle;
  if (IsStatsRequest(frame)) {
    status = DecodeStatsRequest(frame);
    if (status.ok()) {
      ++counters_.ok;  // the reply counts this very request as served
      return EncodeStatsResponse(stats());
    }
  } else if (IsDeltaRequest(frame)) {
    std::optional<WireDeltaRequest> request =
        DecodeDeltaRequest(frame, &status);
    if (request.has_value()) {
      // The base is a by-hash reference with the delta's metric and raster.
      WireRequest base{request->metric, request->base_hash, false,
                       {},              request->domain,    request->width,
                       request->height};
      status = ResolveSet(base, /*delta_base=*/true, scope, &handle);
    }
    if (status.ok()) {
      CircleSetHandle derived;
      bool spliced = false;
      IncrementalRasterStats splice_stats;
      status = engine_.ExecuteDeltaChecked(
          handle, request->edits, request->new_hash, request->domain,
          request->width, request->height, &derived, &response, &spliced,
          &splice_stats);
      if (status.ok()) {
        if (scope != nullptr) scope->Track(derived);
        ++counters_.deltas;
        if (spliced) {
          ++counters_.delta_splices;
          counters_.delta_dirty_columns +=
              static_cast<uint64_t>(splice_stats.dirty_columns);
        }
      }
    }
  } else if (IsTileRequest(frame)) {
    ++counters_.tile_requests;
    std::optional<WireTileRequest> request = DecodeTileRequest(frame, &status);
    if (request.has_value()) {
      status = ResolveSet(*request, /*delta_base=*/false, scope, &handle);
    }
    if (status.ok()) {
      status = engine_.ExecuteTileFragmentChecked(
          HeatmapRequestV2{handle, request->domain, request->width,
                           request->height},
          request->tile_rows, request->tile_cols, request->tile_id,
          &response);
      if (status.ok()) ++counters_.tile_fragments;
    }
  } else {
    std::optional<WireRequest> request = DecodeRequest(frame, &status);
    if (request.has_value()) {
      status = ResolveSet(*request, /*delta_base=*/false, scope, &handle);
    }
    if (status.ok()) {
      status = engine_.ExecuteChecked(
          HeatmapRequestV2{handle, request->domain, request->width,
                           request->height},
          &response);
    }
  }
  if (!status.ok()) {
    ++counters_.errors;
    return EncodeErrorResponse(ToWireStatus(status.code), status.message);
  }
  ++counters_.ok;
  return EncodeResponse(*response);
}

Status WireServer::ResolveSet(WireRequest& request, bool delta_base,
                              RegistrationScope* scope,
                              CircleSetHandle* handle) {
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
  const std::shared_ptr<const CircleSetSnapshot> set =
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
