#include "query/wire.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "heatmap/influence.h"
#include "heatmap/serialization.h"
#include "query/circle_set_registry.h"
#include "query/heatmap_engine.h"
#include "serve/byte_stream.h"
#include "serve/wire_server.h"
#include "tile/tile_plan.h"

namespace rnnhm {
namespace {

std::vector<NnCircle> MakeCircles(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<NnCircle> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                           rng.Uniform(0.02, 0.2), i});
  }
  return out;
}

const Rect kDomain{{-0.1, -0.1}, {1.1, 1.1}};

WireRequest InlineRequest(uint64_t seed, int n, Metric metric,
                          int size = 32) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(seed, n), metric);
  return MakeWireRequest(*set, kDomain, size, size,
                         /*include_circles=*/true);
}

void ExpectSameRequest(const WireRequest& got, const WireRequest& want) {
  EXPECT_EQ(got.metric, want.metric);
  EXPECT_EQ(got.set_hash, want.set_hash);
  EXPECT_EQ(got.inline_circles, want.inline_circles);
  EXPECT_EQ(got.domain, want.domain);
  EXPECT_EQ(got.width, want.width);
  EXPECT_EQ(got.height, want.height);
  ASSERT_EQ(got.circles.size(), want.circles.size());
  for (size_t i = 0; i < got.circles.size(); ++i) {
    EXPECT_EQ(got.circles[i].center, want.circles[i].center);
    EXPECT_EQ(got.circles[i].radius, want.circles[i].radius);
    EXPECT_EQ(got.circles[i].client, want.circles[i].client);
  }
}

TEST(WireRequestTest, InlineRoundTripPreservesEveryField) {
  const WireRequest request = InlineRequest(1, 40, Metric::kL2);
  Status status;
  const auto decoded = DecodeRequest(EncodeRequest(request), &status);
  ASSERT_TRUE(decoded.has_value()) << status.ToString();
  ExpectSameRequest(*decoded, request);
}

TEST(WireRequestTest, ByReferenceRoundTripCarriesOnlyTheHash) {
  const auto set =
      CircleSetSnapshot::Make(MakeCircles(2, 30), Metric::kLInf);
  const WireRequest request =
      MakeWireRequest(*set, kDomain, 48, 24, /*include_circles=*/false);
  const std::vector<uint8_t> bytes = EncodeRequest(request);
  EXPECT_EQ(bytes.size(), 68u);  // header only, no circle payload
  Status status;
  const auto decoded = DecodeRequest(bytes, &status);
  ASSERT_TRUE(decoded.has_value()) << status.ToString();
  EXPECT_FALSE(decoded->inline_circles);
  EXPECT_TRUE(decoded->circles.empty());
  EXPECT_EQ(decoded->set_hash, set->content_hash());
}

TEST(WireRequestTest, ZeroCircleInlineSetRoundTrips) {
  const auto set = CircleSetSnapshot::Make({}, Metric::kL1);
  const WireRequest request =
      MakeWireRequest(*set, kDomain, 8, 8, /*include_circles=*/true);
  Status status;
  const auto decoded = DecodeRequest(EncodeRequest(request), &status);
  ASSERT_TRUE(decoded.has_value()) << status.ToString();
  EXPECT_TRUE(decoded->inline_circles);
  EXPECT_TRUE(decoded->circles.empty());
}

TEST(WireRequestTest, EveryTruncationDecodesToAnErrorNotACrash) {
  const std::vector<uint8_t> bytes =
      EncodeRequest(InlineRequest(3, 10, Metric::kL2));
  for (size_t len = 0; len < bytes.size(); ++len) {
    Status status;
    EXPECT_FALSE(
        DecodeRequest(std::span(bytes.data(), len), &status).has_value())
        << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(status.code, StatusCode::kInvalidArgument);
    EXPECT_FALSE(status.message.empty());
  }
}

TEST(WireRequestTest, CorruptedHeaderFieldsAreRejected) {
  const std::vector<uint8_t> good =
      EncodeRequest(InlineRequest(4, 12, Metric::kLInf));
  Status status;
  ASSERT_TRUE(DecodeRequest(good, &status).has_value());

  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(DecodeRequest(bad_magic, &status).has_value());

  auto bad_version = good;
  bad_version[4] ^= 0xFF;
  EXPECT_FALSE(DecodeRequest(bad_version, &status).has_value());

  auto bad_metric = good;
  bad_metric[8] = 7;
  EXPECT_FALSE(DecodeRequest(bad_metric, &status).has_value());

  auto bad_flags = good;
  bad_flags[9] |= 0x80;  // undefined flag bit
  EXPECT_FALSE(DecodeRequest(bad_flags, &status).has_value());

  auto bad_reserved = good;
  bad_reserved[10] = 1;
  EXPECT_FALSE(DecodeRequest(bad_reserved, &status).has_value());

  auto bad_width = good;
  bad_width[12] = 0;
  bad_width[13] = 0;
  bad_width[14] = 0;
  bad_width[15] = 0;
  EXPECT_FALSE(DecodeRequest(bad_width, &status).has_value());
}

TEST(WireRequestTest, CorruptedCirclePayloadFailsTheContentHash) {
  const std::vector<uint8_t> good =
      EncodeRequest(InlineRequest(5, 12, Metric::kL2));
  // Flip one byte in the middle of the circle payload: the embedded
  // content hash no longer matches, so the decoder must reject it.
  auto corrupted = good;
  corrupted[68 + 40] ^= 0x01;
  Status status;
  EXPECT_FALSE(DecodeRequest(corrupted, &status).has_value());
  EXPECT_NE(status.message.find("content hash"), std::string::npos);
}

TEST(WireRequestTest, TrailingBytesAreRejected) {
  auto bytes = EncodeRequest(InlineRequest(6, 8, Metric::kLInf));
  bytes.push_back(0);
  Status status;
  EXPECT_FALSE(DecodeRequest(bytes, &status).has_value());
}

// --- Responses ------------------------------------------------------------

HeatmapResponse ComputeResponse(uint64_t seed, int n, Metric metric,
                                int size = 24) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 8 << 20;  // exercise nonzero cache counters
  HeatmapEngine engine(measure, options);
  const CircleSetHandle handle =
      engine.registry().Register(MakeCircles(seed, n), metric);
  return engine.Submit(HeatmapRequestV2{handle, kDomain, size, size}).get();
}

TEST(WireResponseTest, OkRoundTripPreservesGridStatsAndCacheCounters) {
  const HeatmapResponse response = ComputeResponse(7, 30, Metric::kL2);
  std::string error;
  const auto decoded = DecodeResponse(EncodeResponse(response), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kOk);
  ASSERT_TRUE(decoded->response.has_value());
  const HeatmapResponse& got = *decoded->response;
  EXPECT_EQ(got.grid.values(), response.grid.values());
  EXPECT_EQ(got.grid.domain(), response.grid.domain());
  EXPECT_EQ(got.l2_stats.num_labelings, response.l2_stats.num_labelings);
  EXPECT_EQ(got.l2_stats.num_cross_events,
            response.l2_stats.num_cross_events);
  EXPECT_EQ(got.from_cache, response.from_cache);
  EXPECT_EQ(got.cache.misses, response.cache.misses);
  EXPECT_EQ(got.cache.bytes, response.cache.bytes);
}

// The grid travels in its narrowest exact lane (u8, u16 or f64); the
// reply's from_cache flag and cache counters are per-reply arguments, not
// read from the response, so a hit encodes straight from a shared entry.
TEST(WireResponseTest, EveryGridLaneRoundTripsBitExactly) {
  HeatmapResponse response = ComputeResponse(9, 40, Metric::kLInf, 24);
  SweepCacheStats cache;
  cache.hits = 3;
  cache.misses = 4;
  cache.bytes = 1234;
  const size_t fixed = 16 + 17 * sizeof(uint64_t) + kHeatmapHeaderBytes;
  const size_t pixels = response.grid.values().size();
  for (const auto& [value, lane] :
       {std::pair{0.0, 1u}, {70000.0, 8u}, {300.0, 2u}, {-0.0, 8u}}) {
    response.grid.At(5, 7) = value;
    const std::vector<uint8_t> bytes =
        EncodeResponse(response, /*from_cache=*/true, cache);
    EXPECT_EQ(bytes.size(), fixed + pixels * lane) << value;
    std::string error;
    const auto decoded = DecodeResponse(bytes, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    ASSERT_TRUE(decoded->response.has_value());
    const HeatmapResponse& got = *decoded->response;
    ASSERT_EQ(got.grid.values().size(), pixels);
    EXPECT_EQ(std::memcmp(got.grid.data(), response.grid.data(),
                          pixels * sizeof(double)),
              0)
        << value;
    EXPECT_EQ(got.stats.num_labelings, response.stats.num_labelings);
    EXPECT_TRUE(got.from_cache);
    EXPECT_FALSE(response.from_cache);
    EXPECT_EQ(got.cache.hits, 3u);
    EXPECT_EQ(got.cache.misses, 4u);
    EXPECT_EQ(got.cache.bytes, 1234u);
  }
}

TEST(WireResponseTest, DegenerateOnePixelGridRoundTrips) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  const CircleSetHandle empty =
      engine.registry().Register(std::vector<NnCircle>{}, Metric::kLInf);
  const HeatmapResponse response =
      engine.Submit(HeatmapRequestV2{empty, Rect{{0, 0}, {1, 1}}, 1, 1}).get();
  std::string error;
  const auto decoded = DecodeResponse(EncodeResponse(response), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->response->grid.width(), 1);
  EXPECT_EQ(decoded->response->grid.height(), 1);
  EXPECT_EQ(decoded->response->grid.values(), response.grid.values());
}

TEST(WireResponseTest, ErrorResponseRoundTripsItsMessage) {
  const std::vector<uint8_t> bytes =
      EncodeErrorResponse(WireStatus::kUnknownCircleSet, "no such set");
  std::string error;
  const auto decoded = DecodeResponse(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kUnknownCircleSet);
  EXPECT_EQ(decoded->error, "no such set");
  EXPECT_FALSE(decoded->response.has_value());
}

TEST(WireResponseTest, EveryTruncationDecodesToAnErrorNotACrash) {
  const std::vector<uint8_t> bytes =
      EncodeResponse(ComputeResponse(8, 10, Metric::kLInf, 6));
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::string error;
    EXPECT_FALSE(
        DecodeResponse(std::span(bytes.data(), len), &error).has_value())
        << "prefix of " << len << " bytes decoded";
    EXPECT_FALSE(error.empty());
  }
}

// --- Framing --------------------------------------------------------------

TEST(WireFrameTest, FramesRoundTripThroughAFile) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  const std::vector<uint8_t> a = {1, 2, 3};
  const std::vector<uint8_t> empty;
  ASSERT_TRUE(WriteFrame(f, a));
  ASSERT_TRUE(WriteFrame(f, empty));
  std::rewind(f);
  std::string error;
  EXPECT_EQ(ReadFrame(f, &error), a);
  EXPECT_EQ(ReadFrame(f, &error), empty);
  EXPECT_FALSE(ReadFrame(f, &error).has_value());  // clean EOF
  EXPECT_TRUE(error.empty());
  std::fclose(f);
}

TEST(WireFrameTest, TruncatedFrameReportsAnError) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  ASSERT_TRUE(WriteFrame(f, std::vector<uint8_t>{1, 2, 3, 4, 5}));
  // Drop the last byte of the payload.
  ASSERT_EQ(std::fflush(f), 0);
  std::rewind(f);
  uint8_t buffer[8];
  ASSERT_EQ(std::fread(buffer, 1, 8, f), 8u);
  std::FILE* cut = std::tmpfile();
  ASSERT_NE(cut, nullptr);
  ASSERT_EQ(std::fwrite(buffer, 1, 8, cut), 8u);
  std::rewind(cut);
  std::string error;
  EXPECT_FALSE(ReadFrame(cut, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::fclose(f);
  std::fclose(cut);
}

TEST(WireFrameTest, OversizedLengthPrefixIsRejected) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};  // ~4 GiB
  ASSERT_EQ(std::fwrite(huge, 1, 4, f), 4u);
  std::rewind(f);
  std::string error;
  EXPECT_FALSE(ReadFrame(f, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::fclose(f);
}

// --- The serve loop -------------------------------------------------------

// Serves every request frame in `in` through a fresh WireServer over
// `engine`, one response frame each to `out`; returns the server's stats.
WireStatsReply ServeFile(std::FILE* in, std::FILE* out,
                         HeatmapEngine& engine) {
  WireServer server(engine);
  FileByteSource source(in);
  FileByteSink sink(out);
  const Status status = server.ServeStream(source, sink);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return server.stats();
}

TEST(ServeStreamTest, ServesInlineAndByReferenceBitIdentically) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(9, 35), Metric::kL2);
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  // Frame 1 ships the set inline; frames 2-3 reference it by hash at
  // other resolutions.
  ASSERT_TRUE(WriteFrame(
      in, EncodeRequest(MakeWireRequest(*set, kDomain, 20, 20, true))));
  ASSERT_TRUE(WriteFrame(
      in, EncodeRequest(MakeWireRequest(*set, kDomain, 28, 28, false))));
  ASSERT_TRUE(WriteFrame(
      in, EncodeRequest(MakeWireRequest(*set, kDomain, 20, 20, false))));
  std::rewind(in);

  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 8 << 20;
  HeatmapEngine engine(measure, options);
  const WireStatsReply stats = ServeFile(in, out, engine);
  std::string error;
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.sets_registered, 1u);

  std::rewind(out);
  // Reference responses from an identical, separately configured engine.
  SizeInfluence reference_measure;
  HeatmapEngine reference(reference_measure, options);
  const CircleSetHandle handle =
      reference.registry().Register(set->circles(), set->metric());
  const int sizes[3] = {20, 28, 20};
  for (int i = 0; i < 3; ++i) {
    const auto frame = ReadFrame(out, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    const auto decoded = DecodeResponse(*frame, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    ASSERT_EQ(decoded->status, WireStatus::kOk) << decoded->error;
    const HeatmapResponse direct =
        reference.Submit(HeatmapRequestV2{handle, kDomain, sizes[i], sizes[i]})
            .get();
    EXPECT_EQ(decoded->response->grid.values(), direct.grid.values())
        << "request " << i;
  }
  // The third request repeats the first: it must have come from the
  // serve engine's cache, still bit-identical.
  EXPECT_FALSE(ReadFrame(out, &error).has_value());
  std::fclose(in);
  std::fclose(out);
}

TEST(ServeStreamTest, MalformedAndUnknownRequestsGetErrorResponses) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  // Frame 1: garbage payload. Frame 2: well-formed by-reference request
  // whose hash was never shipped. Frame 3: a valid request — the stream
  // must keep serving after errors.
  ASSERT_TRUE(WriteFrame(in, std::vector<uint8_t>{0xDE, 0xAD, 0xBE, 0xEF}));
  const auto set =
      CircleSetSnapshot::Make(MakeCircles(10, 12), Metric::kLInf);
  ASSERT_TRUE(WriteFrame(
      in, EncodeRequest(MakeWireRequest(*set, kDomain, 16, 16, false))));
  ASSERT_TRUE(WriteFrame(
      in, EncodeRequest(MakeWireRequest(*set, kDomain, 16, 16, true))));
  std::rewind(in);

  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  const WireStatsReply stats = ServeFile(in, out, engine);
  std::string error;
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.errors, 2u);

  std::rewind(out);
  const WireStatus expected[3] = {WireStatus::kMalformedRequest,
                                  WireStatus::kUnknownCircleSet,
                                  WireStatus::kOk};
  for (int i = 0; i < 3; ++i) {
    const auto frame = ReadFrame(out, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    const auto decoded = DecodeResponse(*frame, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(decoded->status, expected[i]) << "frame " << i;
  }
  std::fclose(in);
  std::fclose(out);
}

TEST(ServeStreamTest, OversizedRasterIsRefusedPolitely) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(11, 5), Metric::kL2);
  WireRequest request = MakeWireRequest(*set, kDomain, 1, 1, true);
  request.width = 1 << 15;
  request.height = 1 << 15;  // 2^30 pixels > kMaxWirePixels
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  ASSERT_TRUE(WriteFrame(in, EncodeRequest(request)));
  std::rewind(in);
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  ServeFile(in, out, engine);
  std::string error;
  std::rewind(out);
  const auto frame = ReadFrame(out, &error);
  ASSERT_TRUE(frame.has_value()) << error;
  const auto decoded = DecodeResponse(*frame, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kTooLarge);
  std::fclose(in);
  std::fclose(out);
}

// --- v3 additions: stats op, status mapping, routing peek -----------------

TEST(WireStatsTest, RequestRoundTripsAndIsRecognized) {
  const std::vector<uint8_t> bytes = EncodeStatsRequest();
  EXPECT_TRUE(IsStatsRequest(bytes));
  EXPECT_TRUE(DecodeStatsRequest(bytes).ok());
  // A heat-map request is not a stats request.
  const WireRequest request = InlineRequest(21, 8, Metric::kLInf);
  EXPECT_FALSE(IsStatsRequest(EncodeRequest(request)));
}

TEST(WireStatsTest, RequestValidationIsStrict) {
  std::vector<uint8_t> bytes = EncodeStatsRequest();
  bytes[4] ^= 0xFF;  // version
  EXPECT_FALSE(DecodeStatsRequest(bytes).ok());
  bytes = EncodeStatsRequest();
  bytes.push_back(0);  // trailing byte
  EXPECT_FALSE(DecodeStatsRequest(bytes).ok());
  bytes = EncodeStatsRequest();
  bytes.pop_back();  // short
  EXPECT_FALSE(DecodeStatsRequest(bytes).ok());
}

TEST(WireStatsTest, ResponseRoundTripsEveryCounter) {
  WireStatsReply reply;
  reply.shards = 4;
  reply.requests = 1000;
  reply.ok = 990;
  reply.errors = 10;
  reply.sets_registered = 7;
  reply.deltas = 42;
  reply.delta_splices = 40;
  reply.sets_evicted = 13;
  reply.delta_dirty_columns = 512;
  reply.tile_requests = 81;
  reply.tile_fragments = 79;
  std::string error;
  const auto decoded = DecodeStatsResponse(EncodeStatsResponse(reply), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->shards, 4u);
  EXPECT_EQ(decoded->requests, 1000u);
  EXPECT_EQ(decoded->ok, 990u);
  EXPECT_EQ(decoded->errors, 10u);
  EXPECT_EQ(decoded->sets_registered, 7u);
  EXPECT_EQ(decoded->deltas, 42u);
  EXPECT_EQ(decoded->delta_splices, 40u);
  EXPECT_EQ(decoded->sets_evicted, 13u);
  EXPECT_EQ(decoded->delta_dirty_columns, 512u);
  EXPECT_EQ(decoded->tile_requests, 81u);
  EXPECT_EQ(decoded->tile_fragments, 79u);
}

TEST(WireStatsTest, ResponseValidationIsStrict) {
  WireStatsReply reply;
  reply.shards = 1;
  std::string error;
  std::vector<uint8_t> bytes = EncodeStatsResponse(reply);
  bytes.push_back(0);
  EXPECT_FALSE(DecodeStatsResponse(bytes, &error).has_value());
  bytes = EncodeStatsResponse(reply);
  bytes[0] ^= 1;  // magic
  EXPECT_FALSE(DecodeStatsResponse(bytes, &error).has_value());
  // shards == 0 cannot describe any server.
  reply.shards = 0;
  EXPECT_FALSE(
      DecodeStatsResponse(EncodeStatsResponse(reply), &error).has_value());
}

TEST(WireStatusMappingTest, ErrorCodesRoundTrip) {
  for (const WireStatus status :
       {WireStatus::kMalformedRequest, WireStatus::kUnknownCircleSet,
        WireStatus::kServerError, WireStatus::kTooLarge}) {
    EXPECT_EQ(ToWireStatus(FromWireStatus(status)), status);
  }
  EXPECT_EQ(FromWireStatus(WireStatus::kOk), StatusCode::kOk);
}

TEST(WireStatusMappingTest, TransportCodesCollapseToServerError) {
  for (const StatusCode code :
       {StatusCode::kUnavailable, StatusCode::kDataLoss,
        StatusCode::kInternal, StatusCode::kDeadlineExceeded}) {
    EXPECT_EQ(ToWireStatus(code), WireStatus::kServerError);
  }
  // Oversized frames and rasters have a status of their own.
  EXPECT_EQ(ToWireStatus(StatusCode::kResourceExhausted),
            WireStatus::kTooLarge);
}

TEST(WireStatusMappingTest, EveryStatusHasAName) {
  EXPECT_STREQ(WireStatusName(WireStatus::kOk), "ok");
  EXPECT_STREQ(WireStatusName(WireStatus::kMalformedRequest),
               "malformed-request");
  EXPECT_STREQ(WireStatusName(WireStatus::kUnknownCircleSet),
               "unknown-circle-set");
  EXPECT_STREQ(WireStatusName(WireStatus::kServerError), "server-error");
  EXPECT_STREQ(WireStatusName(WireStatus::kTooLarge), "too-large");
  // A too-large reply decodes; a status past the last one does not.
  std::vector<uint8_t> bytes =
      EncodeErrorResponse(WireStatus::kTooLarge, "raster too big");
  std::string error;
  const auto decoded = DecodeResponse(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kTooLarge);
  bytes[8] = 5;
  EXPECT_FALSE(DecodeResponse(bytes, &error).has_value());
}

TEST(WireStatusMappingTest, ExitCodesAreDistinctPerStatusCode) {
  EXPECT_EQ(ExitCodeFor(Status::Ok()), 0);
  std::vector<int> codes;
  for (const StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kInternal, StatusCode::kUnavailable, StatusCode::kDataLoss,
        StatusCode::kResourceExhausted, StatusCode::kDeadlineExceeded}) {
    const int exit_code = ExitCodeFor(Status::Error(code, "x"));
    EXPECT_GT(exit_code, 2);  // 1 and 2 stay reserved for usage/generic
    for (const int seen : codes) EXPECT_NE(exit_code, seen);
    codes.push_back(exit_code);
  }
}

TEST(WireDecodeStatusTest, RequestDecodeFailuresAreInvalidArgument) {
  const WireRequest request = InlineRequest(22, 6, Metric::kL1);
  Status status;
  EXPECT_TRUE(DecodeRequest(EncodeRequest(request), &status).has_value());
  EXPECT_TRUE(status.ok());
  std::vector<uint8_t> bytes = EncodeRequest(request);
  bytes[0] ^= 1;
  EXPECT_FALSE(DecodeRequest(bytes, &status).has_value());
  EXPECT_EQ(status.code, StatusCode::kInvalidArgument);
  EXPECT_FALSE(status.message.empty());
}

// --- v4 additions: delta op, routing peek, scoped registration ------------

/// Mirrors CircleSetRegistry::ApplyDelta's edit semantics on a plain
/// vector, so tests can derive the expected content independently.
void ApplyEditsLocally(std::vector<NnCircle>& circles,
                       std::span<const CircleSetEdit> edits) {
  for (const CircleSetEdit& edit : edits) {
    switch (edit.kind) {
      case CircleSetEdit::Kind::kReplace:
        circles[edit.index] = edit.circle;
        break;
      case CircleSetEdit::Kind::kAppend:
        circles.push_back(edit.circle);
        break;
      case CircleSetEdit::Kind::kSwapRemove:
        circles[edit.index] = circles.back();
        circles.pop_back();
        break;
    }
  }
}

WireDeltaRequest MakeDelta(const std::vector<NnCircle>& base,
                           std::span<const CircleSetEdit> edits,
                           Metric metric, int size) {
  std::vector<NnCircle> derived = base;
  ApplyEditsLocally(derived, edits);
  WireDeltaRequest delta;
  delta.metric = metric;
  delta.base_hash = HashCircleSet(base, metric);
  delta.new_hash = HashCircleSet(derived, metric);
  delta.edits.assign(edits.begin(), edits.end());
  delta.domain = kDomain;
  delta.width = size;
  delta.height = size;
  return delta;
}

TEST(WireDeltaTest, RoundTripPreservesEveryEditKind) {
  WireDeltaRequest request;
  request.metric = Metric::kL2;
  request.base_hash = 0x0123456789ABCDEFull;
  request.new_hash = 0xFEDCBA9876543210ull;
  request.domain = kDomain;
  request.width = 40;
  request.height = 24;
  request.edits.push_back(CircleSetEdit{CircleSetEdit::Kind::kReplace, 3,
                                        NnCircle{{0.25, 0.75}, 0.125, 9}});
  request.edits.push_back(CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                                        NnCircle{{0.5, 0.5}, 0.0625, 10}});
  request.edits.push_back(
      CircleSetEdit{CircleSetEdit::Kind::kSwapRemove, 1, NnCircle{}});

  Status status;
  const auto decoded =
      DecodeDeltaRequest(EncodeDeltaRequest(request), &status);
  ASSERT_TRUE(decoded.has_value()) << status.ToString();
  EXPECT_EQ(decoded->metric, request.metric);
  EXPECT_EQ(decoded->base_hash, request.base_hash);
  EXPECT_EQ(decoded->new_hash, request.new_hash);
  EXPECT_EQ(decoded->domain, request.domain);
  EXPECT_EQ(decoded->width, request.width);
  EXPECT_EQ(decoded->height, request.height);
  ASSERT_EQ(decoded->edits.size(), 3u);
  EXPECT_EQ(decoded->edits[0].kind, CircleSetEdit::Kind::kReplace);
  EXPECT_EQ(decoded->edits[0].index, 3u);
  EXPECT_EQ(decoded->edits[0].circle.center, request.edits[0].circle.center);
  EXPECT_EQ(decoded->edits[0].circle.radius, request.edits[0].circle.radius);
  EXPECT_EQ(decoded->edits[0].circle.client, request.edits[0].circle.client);
  EXPECT_EQ(decoded->edits[1].kind, CircleSetEdit::Kind::kAppend);
  EXPECT_EQ(decoded->edits[1].circle.center, request.edits[1].circle.center);
  EXPECT_EQ(decoded->edits[1].circle.radius, request.edits[1].circle.radius);
  EXPECT_EQ(decoded->edits[1].circle.client, request.edits[1].circle.client);
  EXPECT_EQ(decoded->edits[2].kind, CircleSetEdit::Kind::kSwapRemove);
  EXPECT_EQ(decoded->edits[2].index, 1u);
}

TEST(WireDeltaTest, IsDeltaRequestDistinguishesFrameKinds) {
  const std::vector<NnCircle> base = MakeCircles(40, 6);
  const std::vector<CircleSetEdit> edits = {
      CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                    NnCircle{{0.3, 0.3}, 0.05, 6}}};
  const auto delta = MakeDelta(base, edits, Metric::kLInf, 8);
  EXPECT_TRUE(IsDeltaRequest(EncodeDeltaRequest(delta)));
  EXPECT_FALSE(IsDeltaRequest(EncodeRequest(InlineRequest(40, 6,
                                                          Metric::kLInf))));
  EXPECT_FALSE(IsDeltaRequest(EncodeStatsRequest()));
  EXPECT_FALSE(IsDeltaRequest({}));
}

TEST(WireDeltaTest, EveryTruncationDecodesToAnErrorNotACrash) {
  const std::vector<NnCircle> base = MakeCircles(41, 5);
  const std::vector<CircleSetEdit> edits = {
      CircleSetEdit{CircleSetEdit::Kind::kReplace, 2,
                    NnCircle{{0.6, 0.4}, 0.07, 2}},
      CircleSetEdit{CircleSetEdit::Kind::kSwapRemove, 0, NnCircle{}},
      CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                    NnCircle{{0.2, 0.8}, 0.09, 7}}};
  const std::vector<uint8_t> bytes =
      EncodeDeltaRequest(MakeDelta(base, edits, Metric::kL2, 16));
  for (size_t len = 0; len < bytes.size(); ++len) {
    Status status;
    EXPECT_FALSE(
        DecodeDeltaRequest(std::span(bytes.data(), len), &status).has_value())
        << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(status.code, StatusCode::kInvalidArgument);
    EXPECT_FALSE(status.message.empty());
  }
}

TEST(WireDeltaTest, CorruptedHeaderFieldsAreRejected) {
  const std::vector<NnCircle> base = MakeCircles(42, 4);
  const std::vector<CircleSetEdit> edits = {
      CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                    NnCircle{{0.1, 0.9}, 0.04, 4}}};
  const std::vector<uint8_t> good =
      EncodeDeltaRequest(MakeDelta(base, edits, Metric::kLInf, 12));
  Status status;
  ASSERT_TRUE(DecodeDeltaRequest(good, &status).has_value())
      << status.ToString();

  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(DecodeDeltaRequest(bad_magic, &status).has_value());

  auto bad_version = good;
  bad_version[4] ^= 0xFF;
  EXPECT_FALSE(DecodeDeltaRequest(bad_version, &status).has_value());

  auto bad_metric = good;
  bad_metric[8] = 7;
  EXPECT_FALSE(DecodeDeltaRequest(bad_metric, &status).has_value());

  auto bad_flags = good;
  bad_flags[9] |= 0x80;
  EXPECT_FALSE(DecodeDeltaRequest(bad_flags, &status).has_value());

  auto bad_reserved = good;
  bad_reserved[10] = 1;
  EXPECT_FALSE(DecodeDeltaRequest(bad_reserved, &status).has_value());

  auto bad_width = good;
  bad_width[12] = 0;
  bad_width[13] = 0;
  bad_width[14] = 0;
  bad_width[15] = 0;
  EXPECT_FALSE(DecodeDeltaRequest(bad_width, &status).has_value());

  // First edit's op byte sits right after the fixed header.
  auto bad_edit_kind = good;
  bad_edit_kind[76] = 7;
  EXPECT_FALSE(DecodeDeltaRequest(bad_edit_kind, &status).has_value());

  auto trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeDeltaRequest(trailing, &status).has_value());
}

TEST(PeekRouteInfoTest, PlainRequestRoutesBySetHash) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(43, 9), Metric::kL2);
  for (const bool inline_circles : {true, false}) {
    const auto route = PeekRouteInfo(
        EncodeRequest(MakeWireRequest(*set, kDomain, 16, 16, inline_circles)));
    ASSERT_TRUE(route.has_value());
    EXPECT_EQ(route->route_hash, set->content_hash());
    EXPECT_FALSE(route->is_delta);
  }
}

TEST(PeekRouteInfoTest, DeltaRoutesByBaseHashAndExposesDerived) {
  const std::vector<NnCircle> base = MakeCircles(44, 7);
  const std::vector<CircleSetEdit> edits = {
      CircleSetEdit{CircleSetEdit::Kind::kReplace, 1,
                    NnCircle{{0.45, 0.55}, 0.06, 1}}};
  const auto delta = MakeDelta(base, edits, Metric::kLInf, 10);
  const auto route = PeekRouteInfo(EncodeDeltaRequest(delta));
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(route->is_delta);
  EXPECT_EQ(route->route_hash, delta.base_hash);
  EXPECT_EQ(route->derived_hash, delta.new_hash);
  EXPECT_NE(route->route_hash, route->derived_hash);
}

TEST(PeekRouteInfoTest, RejectsNonRequestPayloads) {
  EXPECT_FALSE(PeekRouteInfo(EncodeStatsRequest()).has_value());
  EXPECT_FALSE(PeekRouteInfo({}).has_value());
  const std::vector<uint8_t> garbage(80, 0xAB);
  EXPECT_FALSE(PeekRouteInfo(garbage).has_value());
}

// --- v6 additions: tile fragment op ---------------------------------------

WireTileRequest TileRequest(const CircleSetSnapshot& set, bool inline_circles,
                            int rows, int cols, int tile_id, int size = 24) {
  return MakeWireTileRequest(set, kDomain, size, size, inline_circles, rows,
                             cols, tile_id);
}

TEST(WireTileRequestTest, InlineRoundTripPreservesEveryField) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(81, 25), Metric::kL2);
  const WireTileRequest request =
      TileRequest(*set, /*inline_circles=*/true, 3, 4, 7);
  const std::vector<uint8_t> bytes = EncodeTileRequest(request);
  EXPECT_TRUE(IsTileRequest(bytes));
  EXPECT_FALSE(IsTileRequest(EncodeRequest(InlineRequest(81, 5, Metric::kL2))));
  Status status;
  const auto decoded = DecodeTileRequest(bytes, &status);
  ASSERT_TRUE(decoded.has_value()) << status.ToString();
  EXPECT_EQ(decoded->metric, request.metric);
  EXPECT_EQ(decoded->set_hash, request.set_hash);
  EXPECT_TRUE(decoded->inline_circles);
  EXPECT_EQ(decoded->circles.size(), request.circles.size());
  EXPECT_EQ(decoded->domain, request.domain);
  EXPECT_EQ(decoded->width, request.width);
  EXPECT_EQ(decoded->height, request.height);
  EXPECT_EQ(decoded->tile_rows, 3);
  EXPECT_EQ(decoded->tile_cols, 4);
  EXPECT_EQ(decoded->tile_id, 7);
}

TEST(WireTileRequestTest, ByReferenceCarriesHeaderOnly) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(82, 10), Metric::kL1);
  const std::vector<uint8_t> bytes =
      EncodeTileRequest(TileRequest(*set, /*inline_circles=*/false, 2, 2, 3));
  EXPECT_EQ(bytes.size(), 80u);  // plain 68-byte header + three i32s
  Status status;
  const auto decoded = DecodeTileRequest(bytes, &status);
  ASSERT_TRUE(decoded.has_value()) << status.ToString();
  EXPECT_FALSE(decoded->inline_circles);
  EXPECT_TRUE(decoded->circles.empty());
  EXPECT_EQ(decoded->set_hash, set->content_hash());
}

TEST(WireTileRequestTest, TileGridValidationIsStrict) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(83, 6), Metric::kLInf);
  const WireTileRequest good = TileRequest(*set, /*inline_circles=*/true, 2,
                                           3, 5);
  Status status;
  ASSERT_TRUE(DecodeTileRequest(EncodeTileRequest(good), &status).has_value());

  // Degenerate and oversized grids, and ids outside the grid, are all
  // refused even when the rest of the frame is pristine.
  WireTileRequest bad = good;
  bad.tile_rows = 0;
  EXPECT_FALSE(DecodeTileRequest(EncodeTileRequest(bad), &status).has_value());
  bad = good;
  bad.tile_cols = kMaxTileGridSide + 1;
  EXPECT_FALSE(DecodeTileRequest(EncodeTileRequest(bad), &status).has_value());
  bad = good;
  bad.tile_id = 6;  // == rows * cols, one past the last tile
  EXPECT_FALSE(DecodeTileRequest(EncodeTileRequest(bad), &status).has_value());
  bad = good;
  bad.tile_id = -1;
  EXPECT_FALSE(DecodeTileRequest(EncodeTileRequest(bad), &status).has_value());
}

TEST(WireTileRequestTest, EveryTruncationDecodesToAnErrorNotACrash) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(84, 8), Metric::kL2);
  const std::vector<uint8_t> bytes =
      EncodeTileRequest(TileRequest(*set, /*inline_circles=*/true, 2, 2, 1));
  for (size_t len = 0; len < bytes.size(); ++len) {
    Status status;
    EXPECT_FALSE(
        DecodeTileRequest(std::span(bytes.data(), len), &status).has_value())
        << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(status.code, StatusCode::kInvalidArgument);
    EXPECT_FALSE(status.message.empty());
  }
  auto trailing = bytes;
  trailing.push_back(0);
  Status status;
  EXPECT_FALSE(DecodeTileRequest(trailing, &status).has_value());
}

TEST(PeekRouteInfoTest, TileRequestRoutesBySetHashAndExposesTheTile) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(85, 9), Metric::kL2);
  for (const bool inline_circles : {true, false}) {
    const auto route = PeekRouteInfo(
        EncodeTileRequest(TileRequest(*set, inline_circles, 3, 3, 5)));
    ASSERT_TRUE(route.has_value());
    EXPECT_EQ(route->route_hash, set->content_hash());
    EXPECT_TRUE(route->is_tile);
    EXPECT_FALSE(route->is_delta);
    EXPECT_EQ(route->tile_id, 5u);
  }
}

TEST(ServeStreamTest, TileFragmentsStitchBitIdenticallyThroughTheServer) {
  // All six tiles of a 2x3 decomposition served as wire frames, stitched
  // client-side — the reassembled raster must equal a direct Execute, and
  // the serve counters must attribute every frame to the tile op.
  const auto set = CircleSetSnapshot::Make(MakeCircles(86, 30), Metric::kL2);
  const int size = 27;
  constexpr int kRows = 2;
  constexpr int kCols = 3;
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  for (int t = 0; t < kRows * kCols; ++t) {
    ASSERT_TRUE(WriteFrame(
        in, EncodeTileRequest(MakeWireTileRequest(
                *set, kDomain, size, size, /*include_circles=*/t == 0, kRows,
                kCols, t))));
  }
  std::rewind(in);

  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  const WireStatsReply stats = ServeFile(in, out, engine);
  std::string error;
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.tile_requests, 6u);
  EXPECT_EQ(stats.tile_fragments, 6u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.sets_registered, 1u);

  std::rewind(out);
  const std::vector<TileWindow> windows =
      TileWindows(kDomain, size, size, kRows, kCols);
  HeatmapGrid stitched(size, size, kDomain, 0.0);
  for (int t = 0; t < kRows * kCols; ++t) {
    const auto frame = ReadFrame(out, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    const auto decoded = DecodeResponse(*frame, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    ASSERT_EQ(decoded->status, WireStatus::kOk) << decoded->error;
    ASSERT_EQ(decoded->response->grid.width(), windows[t].width());
    ASSERT_EQ(decoded->response->grid.height(), windows[t].height());
    TilePlan::StitchFragment(windows[t], decoded->response->grid, &stitched);
  }
  SizeInfluence reference_measure;
  HeatmapEngine reference(reference_measure, options);
  const CircleSetHandle handle =
      reference.registry().Register(set->circles(), set->metric());
  const HeatmapResponse direct =
      reference.Submit(HeatmapRequestV2{handle, kDomain, size, size}).get();
  EXPECT_EQ(stitched.values(), direct.grid.values());
  std::fclose(in);
  std::fclose(out);
}

TEST(ServeStreamTest, ChainedDeltasSpliceAndMatchFromScratch) {
  const Metric metric = Metric::kLInf;
  const int size = 20;
  const std::vector<NnCircle> base = MakeCircles(45, 24);

  const std::vector<CircleSetEdit> edits1 = {
      CircleSetEdit{CircleSetEdit::Kind::kReplace, 5,
                    NnCircle{{0.35, 0.65}, 0.09, 5}},
      CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                    NnCircle{{0.85, 0.15}, 0.05, 24}}};
  std::vector<NnCircle> tick1 = base;
  ApplyEditsLocally(tick1, edits1);
  const std::vector<CircleSetEdit> edits2 = {
      CircleSetEdit{CircleSetEdit::Kind::kSwapRemove, 2, NnCircle{}},
      CircleSetEdit{CircleSetEdit::Kind::kReplace, 0,
                    NnCircle{{0.15, 0.85}, 0.11, 0}}};
  std::vector<NnCircle> tick2 = tick1;
  ApplyEditsLocally(tick2, edits2);

  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  const auto base_set = CircleSetSnapshot::Make(base, metric);
  ASSERT_TRUE(WriteFrame(
      in, EncodeRequest(MakeWireRequest(*base_set, kDomain, size, size,
                                        /*include_circles=*/true))));
  ASSERT_TRUE(
      WriteFrame(in, EncodeDeltaRequest(MakeDelta(base, edits1, metric,
                                                  size))));
  ASSERT_TRUE(
      WriteFrame(in, EncodeDeltaRequest(MakeDelta(tick1, edits2, metric,
                                                  size))));
  ASSERT_TRUE(WriteFrame(in, EncodeStatsRequest()));
  std::rewind(in);

  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 8 << 20;  // the base raster must be spliceable
  HeatmapEngine engine(measure, options);
  const WireStatsReply stats = ServeFile(in, out, engine);
  std::string error;
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.ok, 4u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.sets_registered, 1u);
  EXPECT_EQ(stats.deltas, 2u);
  EXPECT_EQ(stats.delta_splices, 2u);
  // Each splice recomputed a nonempty strict subset of the columns.
  EXPECT_GT(stats.delta_dirty_columns, 0u);
  EXPECT_LT(stats.delta_dirty_columns,
            static_cast<uint64_t>(size) * stats.delta_splices);

  std::rewind(out);
  SizeInfluence reference_measure;
  HeatmapEngine reference(reference_measure, options);
  const std::vector<NnCircle>* ticks[3] = {&base, &tick1, &tick2};
  for (int i = 0; i < 3; ++i) {
    const auto frame = ReadFrame(out, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    const auto decoded = DecodeResponse(*frame, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    ASSERT_EQ(decoded->status, WireStatus::kOk) << decoded->error;
    // The from-scratch reference: a cold sweep over the tick's circles.
    const CircleSetHandle tick =
        reference.registry().Register(*ticks[i], metric);
    const HeatmapResponse direct =
        reference.Submit(HeatmapRequestV2{tick, kDomain, size, size}).get();
    EXPECT_EQ(decoded->response->grid.values(), direct.grid.values())
        << "tick " << i;
  }
  const auto stats_frame = ReadFrame(out, &error);
  ASSERT_TRUE(stats_frame.has_value()) << error;
  const auto stats_reply = DecodeStatsResponse(*stats_frame, &error);
  ASSERT_TRUE(stats_reply.has_value()) << error;
  EXPECT_EQ(stats_reply->shards, 1u);
  EXPECT_EQ(stats_reply->deltas, 2u);
  EXPECT_EQ(stats_reply->delta_splices, 2u);
  EXPECT_EQ(stats_reply->sets_evicted, 0u);
  EXPECT_EQ(stats_reply->delta_dirty_columns, stats.delta_dirty_columns);
  std::fclose(in);
  std::fclose(out);
}

TEST(WireServerTest, DeltaFromUnknownBaseIsRefused) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  WireServer server(engine);
  const std::vector<NnCircle> base = MakeCircles(46, 5);
  const std::vector<CircleSetEdit> edits = {
      CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                    NnCircle{{0.5, 0.5}, 0.05, 5}}};
  const auto reply = server.HandleFrame(
      EncodeDeltaRequest(MakeDelta(base, edits, Metric::kL2, 8)));
  std::string error;
  const auto decoded = DecodeResponse(reply, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kUnknownCircleSet);
  EXPECT_EQ(server.stats().errors, 1u);
  EXPECT_EQ(server.stats().deltas, 0u);
}

// Plain, tile and delta frames name their circle set through the same
// header fields and resolve it through one helper: every frame kind must
// refuse an unknown hash, a collided hash, a metric mismatch and an
// over-ceiling raster with the same wire status, and count each as an
// error.
TEST(WireServerTest, UnresolvableSetsAreRefusedForEveryFrameKind) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  WireServer server(engine);
  // File unrelated content under collided's hash: the bucket matches, the
  // content does not — exactly what a 64-bit collision looks like.
  const auto collided =
      CircleSetSnapshot::Make(MakeCircles(48, 6), Metric::kL2);
  engine.registry().RegisterWithHashForTesting(MakeCircles(47, 6), Metric::kL2,
                                               collided->content_hash());
  const auto known = CircleSetSnapshot::Make(MakeCircles(52, 6), Metric::kL2);
  engine.registry().Register(known->circles(), known->metric());
  const auto unknown =
      CircleSetSnapshot::Make(MakeCircles(53, 6), Metric::kL2);

  WireRequest metric_mismatch = MakeWireRequest(*known, kDomain, 8, 8, false);
  metric_mismatch.metric = Metric::kLInf;
  WireRequest oversized = MakeWireRequest(*known, kDomain, 8, 8, false);
  oversized.width = 1 << 15;
  oversized.height = 1 << 15;  // 2^30 pixels > kMaxWirePixels
  struct Case {
    const char* name;
    WireRequest request;
    WireStatus want;
  };
  const Case cases[] = {
      {"unknown hash", MakeWireRequest(*unknown, kDomain, 8, 8, false),
       WireStatus::kUnknownCircleSet},
      {"collided hash", MakeWireRequest(*collided, kDomain, 8, 8, false),
       WireStatus::kUnknownCircleSet},
      {"metric mismatch", metric_mismatch, WireStatus::kMalformedRequest},
      {"pixel ceiling", oversized, WireStatus::kTooLarge},
  };
  struct FrameKind {
    const char* name;
    std::vector<uint8_t> (*encode)(const WireRequest&);
  };
  const FrameKind kinds[] = {
      {"plain", [](const WireRequest& r) { return EncodeRequest(r); }},
      {"tile",
       [](const WireRequest& r) {
         return EncodeTileRequest(WireTileRequest{r, 1, 1, 0});
       }},
      {"delta",
       [](const WireRequest& r) {
         WireDeltaRequest delta;
         delta.metric = r.metric;
         delta.base_hash = r.set_hash;
         delta.new_hash = 1;
         delta.edits.push_back(CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                                             NnCircle{{0.4, 0.6}, 0.03, 6}});
         delta.domain = r.domain;
         delta.width = r.width;
         delta.height = r.height;
         return EncodeDeltaRequest(delta);
       }},
  };
  uint64_t errors = 0;
  for (const FrameKind& kind : kinds) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(kind.name) + " / " + c.name);
      std::string error;
      const auto reply = DecodeResponse(
          server.HandleFrame(kind.encode(c.request)), &error);
      ASSERT_TRUE(reply.has_value()) << error;
      EXPECT_EQ(reply->status, c.want) << reply->error;
      EXPECT_EQ(server.stats().errors, ++errors);
      if (c.request.set_hash == collided->content_hash() &&
          std::string(kind.name) != "delta") {
        EXPECT_NE(reply->error.find("collision"), std::string::npos);
      }
    }
  }
  EXPECT_EQ(server.stats().ok, 0u);
  EXPECT_EQ(server.stats().tile_fragments, 0u);
  EXPECT_EQ(server.stats().deltas, 0u);
}

TEST(WireServerTest, ScopedRegistrationsReleaseWhenTheScopeDies) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  WireServer server(engine);
  const std::vector<NnCircle> base = MakeCircles(49, 8);
  const auto base_set = CircleSetSnapshot::Make(base, Metric::kLInf);
  const std::vector<CircleSetEdit> edits = {
      CircleSetEdit{CircleSetEdit::Kind::kReplace, 4,
                    NnCircle{{0.7, 0.3}, 0.08, 4}}};
  std::string error;
  {
    RegistrationScope scope(&engine.registry());
    const auto inline_reply = server.HandleFrame(
        EncodeRequest(MakeWireRequest(*base_set, kDomain, 8, 8, true)),
        &scope);
    ASSERT_EQ(DecodeResponse(inline_reply, &error)->status, WireStatus::kOk);
    const auto delta_reply = server.HandleFrame(
        EncodeDeltaRequest(MakeDelta(base, edits, Metric::kLInf, 8)), &scope);
    ASSERT_EQ(DecodeResponse(delta_reply, &error)->status, WireStatus::kOk);
    EXPECT_EQ(engine.registry().size(), 2u);  // base + derived, both tracked
  }
  // No retention budget on this registry: releasing the scope's handles
  // erases the entries outright, as a disconnect would.
  EXPECT_EQ(engine.registry().size(), 0u);
  const auto by_ref_reply = server.HandleFrame(EncodeRequest(
      MakeWireRequest(*base_set, kDomain, 8, 8, /*include_circles=*/false)));
  EXPECT_EQ(DecodeResponse(by_ref_reply, &error)->status,
            WireStatus::kUnknownCircleSet);
}

TEST(WireServerTest, EvictedHandleKeepsPinnedSnapshotAlive) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  CircleSetRegistryOptions registry_options;
  registry_options.max_unpinned_entries = 1;
  options.registry = std::make_shared<CircleSetRegistry>(registry_options);
  HeatmapEngine engine(measure, options);
  WireServer server(engine);
  const auto set = CircleSetSnapshot::Make(MakeCircles(50, 10), Metric::kLInf);
  std::string error;

  std::shared_ptr<const CircleSetSnapshot> pinned;
  {
    RegistrationScope scope(&engine.registry());
    const auto reply = server.HandleFrame(
        EncodeRequest(MakeWireRequest(*set, kDomain, 12, 12, true)), &scope);
    ASSERT_EQ(DecodeResponse(reply, &error)->status, WireStatus::kOk);
    // A request mid-flight holds the snapshot, not the registry entry.
    pinned = engine.registry().Resolve(
        engine.registry().FindByHash(set->content_hash()));
    ASSERT_NE(pinned, nullptr);
  }
  // Unpinned but retained (budget 1): still servable by hash.
  const auto retained_reply = server.HandleFrame(EncodeRequest(
      MakeWireRequest(*set, kDomain, 12, 12, /*include_circles=*/false)));
  EXPECT_EQ(DecodeResponse(retained_reply, &error)->status, WireStatus::kOk);

  // A second unpinned set overflows the budget and evicts the LRU entry.
  const CircleSetHandle filler = engine.registry().Register(
      MakeCircles(51, 3), Metric::kLInf);
  ASSERT_TRUE(engine.registry().Release(filler));
  EXPECT_GE(engine.registry().total_evicted(), 1u);

  // The wire now answers kUnknownCircleSet — while the pinned snapshot
  // (our in-flight request) is still fully intact.
  const auto evicted_reply = server.HandleFrame(EncodeRequest(
      MakeWireRequest(*set, kDomain, 12, 12, /*include_circles=*/false)));
  EXPECT_EQ(DecodeResponse(evicted_reply, &error)->status,
            WireStatus::kUnknownCircleSet);
  EXPECT_EQ(pinned->circles().size(), 10u);
  EXPECT_EQ(pinned->content_hash(), set->content_hash());
}

}  // namespace
}  // namespace rnnhm
