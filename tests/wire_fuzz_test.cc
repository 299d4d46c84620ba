// Deterministic mutation fuzzer for the serving surface. Valid plain,
// inline, delta, tile and stats frames are mutated by bit flips, length
// skew, truncations and cross-frame splices (seeded, so every run sees the
// same inputs), then driven through WireServer::HandleFrame and over one
// EventLoopServer socket. Every input must yield exactly one reply that
// decodes as a response, an error frame or a stats reply: no CHECK, no
// hang, no dropped or extra frame. Needs no libFuzzer.
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "heatmap/influence.h"
#include "query/circle_set_registry.h"
#include "query/heatmap_engine.h"
#include "query/wire.h"
#include "serve/event_loop.h"
#include "serve/options.h"
#include "serve/transport.h"
#include "serve/wire_server.h"

namespace rnnhm {
namespace {

constexpr uint64_t kFuzzSeed = 0x5EEDF00Dull;
constexpr int kMutantsPerSeed = 400;
// A flipped width or height bit can ask for a raster up to the wire
// ceiling (kMaxWirePixels, 2^26 pixels, 512 MiB of grid) that is still a
// valid request. Such mutants are legal work, not malformed input; they
// are counted but not served, to keep the suite's memory small. Mutants
// past the ceiling are served (the server must refuse them).
constexpr uint64_t kMaxServedPixels = 1u << 16;

const Rect kDomain{{-0.1, -0.1}, {1.1, 1.1}};

std::vector<NnCircle> MakeCircles(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<NnCircle> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                           rng.Uniform(0.02, 0.2), i});
  }
  return out;
}

// The valid frames every mutant starts from. Inline frames come before
// the by-hash, delta and tile frames that reference their sets.
std::vector<std::vector<uint8_t>> SeedFrames() {
  std::vector<std::vector<uint8_t>> frames;
  const Metric metrics[3] = {Metric::kLInf, Metric::kL1, Metric::kL2};
  std::vector<std::shared_ptr<const CircleSetSnapshot>> sets;
  for (int m = 0; m < 3; ++m) {
    sets.push_back(CircleSetSnapshot::Make(MakeCircles(40 + m, 12),
                                           metrics[m]));
    frames.push_back(
        EncodeRequest(MakeWireRequest(*sets.back(), kDomain, 16, 16, true)));
    frames.push_back(
        EncodeRequest(MakeWireRequest(*sets.back(), kDomain, 12, 20, false)));
    frames.push_back(EncodeTileRequest(MakeWireTileRequest(
        *sets.back(), kDomain, 16, 16, false, 2, 2, 3)));
  }
  frames.push_back(EncodeTileRequest(
      MakeWireTileRequest(*sets[0], kDomain, 16, 16, true, 3, 2, 1)));
  // A delta over the L-inf set with one edit of each kind.
  std::vector<NnCircle> derived = sets[0]->circles();
  NnCircle moved = derived[2];
  moved.center.y += 0.05;
  const NnCircle joined{{0.5, 0.5}, 0.07, 12};
  derived[2] = moved;
  derived.push_back(joined);
  derived[5] = derived.back();
  derived.pop_back();
  WireDeltaRequest delta;
  delta.metric = Metric::kLInf;
  delta.base_hash = sets[0]->content_hash();
  delta.new_hash = HashCircleSet(derived, Metric::kLInf);
  delta.edits = {CircleSetEdit{CircleSetEdit::Kind::kReplace, 2, moved},
                 CircleSetEdit{CircleSetEdit::Kind::kAppend, 0, joined},
                 CircleSetEdit{CircleSetEdit::Kind::kSwapRemove, 5, {}}};
  delta.domain = kDomain;
  delta.width = 16;
  delta.height = 16;
  frames.push_back(EncodeDeltaRequest(delta));
  frames.push_back(EncodeStatsRequest());
  return frames;
}

std::vector<uint8_t> Mutate(const std::vector<std::vector<uint8_t>>& seeds,
                            const std::vector<uint8_t>& seed, Rng& rng) {
  std::vector<uint8_t> out = seed;
  switch (rng.NextBounded(4)) {
    case 0: {  // bit flips
      const int flips = 1 + static_cast<int>(rng.NextBounded(4));
      for (int i = 0; i < flips && !out.empty(); ++i) {
        const uint64_t bit = rng.NextBounded(out.size() * 8);
        out[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      break;
    }
    case 1: {  // length skew: the payload grows or shrinks a little
      const size_t skew = 1 + rng.NextBounded(16);
      if (rng.NextBounded(2) == 0) {
        for (size_t i = 0; i < skew; ++i) {
          out.push_back(static_cast<uint8_t>(rng.NextBounded(256)));
        }
      } else {
        out.resize(out.size() > skew ? out.size() - skew : 0);
      }
      break;
    }
    case 2:  // truncation anywhere
      out.resize(rng.NextBounded(out.size() + 1));
      break;
    default: {  // splice: a prefix of this frame, a suffix of another
      const std::vector<uint8_t>& other = seeds[rng.NextBounded(seeds.size())];
      out.resize(rng.NextBounded(out.size() + 1));
      const size_t from = rng.NextBounded(other.size() + 1);
      out.insert(out.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
                 other.end());
      break;
    }
  }
  return out;
}

// The raster a frame validly asks for, or 0 when it does not decode.
uint64_t RequestedPixels(const std::vector<uint8_t>& frame) {
  Status status;
  int width = 0;
  int height = 0;
  if (IsDeltaRequest(frame)) {
    if (auto r = DecodeDeltaRequest(frame, &status)) {
      width = r->width;
      height = r->height;
    }
  } else if (IsTileRequest(frame)) {
    if (auto r = DecodeTileRequest(frame, &status)) {
      width = r->width;
      height = r->height;
    }
  } else if (auto r = DecodeRequest(frame, &status)) {
    width = r->width;
    height = r->height;
  }
  return static_cast<uint64_t>(width) * static_cast<uint64_t>(height);
}

// The seeds in order, then every mutant that is served (see
// kMaxServedPixels). `*skipped` counts the valid-but-large mutants left
// out.
std::vector<std::vector<uint8_t>> FuzzInputs(int* skipped) {
  const std::vector<std::vector<uint8_t>> seeds = SeedFrames();
  std::vector<std::vector<uint8_t>> inputs = seeds;
  Rng rng(kFuzzSeed);
  *skipped = 0;
  for (int round = 0; round < kMutantsPerSeed; ++round) {
    for (const std::vector<uint8_t>& seed : seeds) {
      std::vector<uint8_t> mutant = Mutate(seeds, seed, rng);
      const uint64_t pixels = RequestedPixels(mutant);
      if (pixels > kMaxServedPixels && pixels <= kMaxWirePixels) {
        ++*skipped;
        continue;
      }
      inputs.push_back(std::move(mutant));
    }
  }
  return inputs;
}

// True iff `reply` is a well-formed response, error frame or stats reply.
bool IsWellFormedReply(const std::vector<uint8_t>& reply) {
  std::string error;
  return DecodeResponse(reply, &error).has_value() ||
         DecodeStatsResponse(reply, &error).has_value();
}

HeatmapEngineOptions FuzzEngineOptions() {
  HeatmapEngineOptions options;
  options.num_threads = 2;
  options.cache_bytes = 8u << 20;
  return options;
}

TEST(WireFuzzTest, EveryMutantGetsOneWellFormedReplyFromHandleFrame) {
  int skipped = 0;
  const std::vector<std::vector<uint8_t>> inputs = FuzzInputs(&skipped);
  SizeInfluence measure;
  HeatmapEngine engine(measure, FuzzEngineOptions());
  WireServer server(engine);
  RegistrationScope scope(&engine.registry());
  size_t ok_replies = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::vector<uint8_t> reply = server.HandleFrame(inputs[i], &scope);
    ASSERT_TRUE(IsWellFormedReply(reply)) << "input " << i;
    std::string error;
    const auto decoded = DecodeResponse(reply, &error);
    if (decoded.has_value() && decoded->status == WireStatus::kOk) {
      ++ok_replies;
    }
  }
  const WireStatsReply stats = server.stats();
  EXPECT_EQ(stats.requests, inputs.size());
  EXPECT_EQ(stats.ok + stats.errors, inputs.size());
  // The seeds themselves are served, and some mutants (geometry flips)
  // stay valid requests.
  EXPECT_GT(ok_replies, SeedFrames().size() - 1);
  EXPECT_LT(skipped, static_cast<int>(inputs.size()) / 10);
}

TEST(WireFuzzTest, EveryMutantGetsOneWellFormedReplyOverOneSocket) {
  int skipped = 0;
  const std::vector<std::vector<uint8_t>> inputs = FuzzInputs(&skipped);
  SizeInfluence measure;
  HeatmapEngine engine(measure, FuzzEngineOptions());
  Listener listener;
  ASSERT_TRUE(Listener::ListenTcp("127.0.0.1", 0, &listener).ok());
  const int port = listener.port();
  ServeOptions options;
  options.idle_timeout_ms = 0;
  EventLoopServer server(std::move(listener), engine, options);
  Status served;
  std::thread loop([&] { served = server.Run(); });

  int fd = -1;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", port, &fd).ok());
  // A lost reply must fail the test rather than hang it.
  timeval guard{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &guard, sizeof(guard));
  // Pipelined: one thread writes every frame while this one reads.
  Status sent;
  std::thread writer([&] {
    for (const std::vector<uint8_t>& frame : inputs) {
      sent = SendFrame(fd, frame);
      if (!sent.ok()) return;
    }
  });
  size_t received = 0;
  for (; received < inputs.size(); ++received) {
    std::vector<uint8_t> reply;
    const Status status = RecvFrame(fd, &reply);
    if (!status.ok()) {
      ADD_FAILURE() << "reply " << received << ": " << status.ToString();
      break;
    }
    if (!IsWellFormedReply(reply)) {
      ADD_FAILURE() << "reply " << received << " does not decode";
      break;
    }
  }
  writer.join();
  EXPECT_TRUE(sent.ok()) << sent.ToString();
  EXPECT_EQ(received, inputs.size());
  ::close(fd);
  server.RequestShutdown();
  server.RequestShutdown();
  loop.join();
  EXPECT_TRUE(served.ok()) << served.ToString();
  EXPECT_EQ(server.stats().requests, inputs.size());
  EXPECT_EQ(server.stats().ok + server.stats().errors, inputs.size());
}

}  // namespace
}  // namespace rnnhm
