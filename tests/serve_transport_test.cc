// Serving transport tests: frame reassembly under arbitrary delivery
// splits, the WireServer byte-stream surface, and the nonblocking socket
// event loop (both pollers, both socket transports) — connection limits,
// idle timeouts, slow-reader backpressure, graceful shutdown.
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
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
#include "serve/byte_stream.h"
#include "serve/event_loop.h"
#include "serve/frame_buffer.h"
#include "serve/options.h"
#include "serve/transport.h"
#include "serve/wire_server.h"

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

std::vector<uint8_t> Framed(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> bytes;
  const uint32_t length = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<uint8_t>(length >> (8 * i)));
  }
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

// --- FrameAssembler -------------------------------------------------------

TEST(FrameAssemblerTest, ByteAtATimeDeliveryReassemblesEveryFrame) {
  const std::vector<std::vector<uint8_t>> payloads = {
      {}, {1}, {2, 3, 4}, std::vector<uint8_t>(300, 7)};
  std::vector<uint8_t> stream;
  for (const auto& payload : payloads) {
    const auto framed = Framed(payload);
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  FrameAssembler assembler(1 << 20);
  std::vector<std::vector<uint8_t>> got;
  for (const uint8_t byte : stream) {
    assembler.Feed(std::span<const uint8_t>(&byte, 1));
    while (auto frame = assembler.Next()) got.push_back(std::move(*frame));
  }
  EXPECT_TRUE(assembler.status().ok());
  EXPECT_FALSE(assembler.mid_frame());
  ASSERT_EQ(got.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) EXPECT_EQ(got[i], payloads[i]);
}

TEST(FrameAssemblerTest, SplitAtEveryOffsetYieldsTheSameFrames) {
  const std::vector<uint8_t> first(37, 0xA1);
  const std::vector<uint8_t> second(11, 0xB2);
  std::vector<uint8_t> stream = Framed(first);
  const auto tail = Framed(second);
  stream.insert(stream.end(), tail.begin(), tail.end());
  for (size_t split = 0; split <= stream.size(); ++split) {
    FrameAssembler assembler(1 << 20);
    assembler.Feed(std::span<const uint8_t>(stream.data(), split));
    std::vector<std::vector<uint8_t>> got;
    while (auto frame = assembler.Next()) got.push_back(std::move(*frame));
    assembler.Feed(std::span<const uint8_t>(stream.data() + split,
                                            stream.size() - split));
    while (auto frame = assembler.Next()) got.push_back(std::move(*frame));
    ASSERT_EQ(got.size(), 2u) << "split at " << split;
    EXPECT_EQ(got[0], first) << "split at " << split;
    EXPECT_EQ(got[1], second) << "split at " << split;
    EXPECT_FALSE(assembler.mid_frame());
  }
}

TEST(FrameAssemblerTest, OversizedPrefixPoisonsPermanently) {
  FrameAssembler assembler(64);
  const auto bad = Framed(std::vector<uint8_t>(65, 0));
  assembler.Feed(bad);
  EXPECT_FALSE(assembler.Next().has_value());
  EXPECT_TRUE(assembler.poisoned());
  EXPECT_EQ(assembler.status().code, StatusCode::kResourceExhausted);
  // Further feeds are ignored: even a well-formed frame stays unseen.
  assembler.Feed(Framed({1, 2, 3}));
  EXPECT_FALSE(assembler.Next().has_value());
  EXPECT_TRUE(assembler.poisoned());
}

TEST(FrameAssemblerTest, FrameAtTheCeilingIsAccepted) {
  FrameAssembler assembler(64);
  const std::vector<uint8_t> payload(64, 9);
  assembler.Feed(Framed(payload));
  const auto frame = assembler.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, payload);
  EXPECT_TRUE(assembler.status().ok());
}

// --- WireServer over byte streams -----------------------------------------

TEST(WireServerStreamTest, OneByteChunksServeIdenticallyToOneShot) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(3, 25), Metric::kLInf);
  std::vector<uint8_t> input;
  for (int i = 0; i < 3; ++i) {
    const auto framed = Framed(EncodeRequest(
        MakeWireRequest(*set, kDomain, 16 + i, 16 + i, i == 0)));
    input.insert(input.end(), framed.begin(), framed.end());
  }
  SizeInfluence measure;
  HeatmapEngineOptions engine_options;
  engine_options.num_threads = 1;

  std::vector<uint8_t> outputs[2];
  size_t chunk_sizes[2] = {0, 1};  // unthrottled vs byte-at-a-time
  for (int mode = 0; mode < 2; ++mode) {
    HeatmapEngine engine(measure, engine_options);
    WireServer server(engine);
    MemoryByteSource source(input, chunk_sizes[mode]);
    MemoryByteSink sink;
    const Status status = server.ServeStream(source, sink);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(server.stats().requests, 3u);
    EXPECT_EQ(server.stats().ok, 3u);
    outputs[mode] = sink.bytes();
  }
  EXPECT_EQ(outputs[0], outputs[1]);
}

TEST(WireServerStreamTest, TruncatedStreamReportsDataLoss) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(4, 10), Metric::kL1);
  std::vector<uint8_t> input =
      Framed(EncodeRequest(MakeWireRequest(*set, kDomain, 8, 8, true)));
  input.resize(input.size() - 3);  // cut the last frame short
  SizeInfluence measure;
  HeatmapEngineOptions engine_options;
  engine_options.num_threads = 1;
  HeatmapEngine engine(measure, engine_options);
  WireServer server(engine);
  MemoryByteSource source(input);
  MemoryByteSink sink;
  const Status status = server.ServeStream(source, sink);
  EXPECT_EQ(status.code, StatusCode::kDataLoss);
}

// --- Socket event loop ----------------------------------------------------

// An EventLoopServer on its own thread over a fresh single-worker engine.
class TestServer {
 public:
  Status Start(TransportKind transport, const ServeOptions& base) {
    options_ = base;
    options_.transport = transport;
    HeatmapEngineOptions engine_options;
    engine_options.num_threads = 1;
    engine_ = std::make_unique<HeatmapEngine>(measure_, engine_options);
    Listener listener;
    Status status;
    if (transport == TransportKind::kTcp) {
      status = Listener::ListenTcp("127.0.0.1", 0, &listener);
      port_ = listener.port();
    } else {
      path_ = "/tmp/rnnhm-serve-test-" + std::to_string(::getpid()) + "-" +
              std::to_string(++socket_counter_) + ".sock";
      status = Listener::ListenUnix(path_, &listener);
    }
    if (!status.ok()) return status;
    server_ = std::make_unique<EventLoopServer>(std::move(listener), *engine_,
                                                options_);
    thread_ = std::thread([this] { result_ = server_->Run(); });
    return Status::Ok();
  }

  Status Connect(int* fd) const {
    return options_.transport == TransportKind::kTcp
               ? ConnectTcp("127.0.0.1", port_, fd)
               : ConnectUnix(path_, fd);
  }

  // First shutdown request: lame-duck drain.
  void BeginShutdown() { server_->RequestShutdown(); }

  Status Stop() {
    server_->RequestShutdown();
    thread_.join();
    return result_;
  }

  EventLoopServer& server() { return *server_; }
  HeatmapEngine& engine() { return *engine_; }

 private:
  static int socket_counter_;

  SizeInfluence measure_;
  ServeOptions options_;
  std::unique_ptr<HeatmapEngine> engine_;
  std::unique_ptr<EventLoopServer> server_;
  std::thread thread_;
  Status result_;
  int port_ = 0;
  std::string path_;
};

int TestServer::socket_counter_ = 0;

ServeOptions FastOptions() {
  ServeOptions options;
  options.drain_timeout_ms = 2000;
  options.idle_timeout_ms = 0;  // tests opt in explicitly
  return options;
}

// One blocking request/response exchange.
Status RoundTrip(int fd, const std::vector<uint8_t>& request,
                 std::vector<uint8_t>* response) {
  if (const Status status = SendFrame(fd, request); !status.ok()) {
    return status;
  }
  return RecvFrame(fd, response);
}

TEST(EventLoopServerTest, RoundTripsOnEveryTransportAndPoller) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(5, 30), Metric::kL2);
  for (const TransportKind transport :
       {TransportKind::kTcp, TransportKind::kUnix}) {
    for (const bool prefer_epoll : {true, false}) {
      SCOPED_TRACE(std::string(TransportKindName(transport)) +
                   (prefer_epoll ? "/epoll" : "/poll"));
      ServeOptions options = FastOptions();
      options.prefer_epoll = prefer_epoll;
      TestServer server;
      ASSERT_TRUE(server.Start(transport, options).ok());

      int fd = -1;
      ASSERT_TRUE(server.Connect(&fd).ok());
      // Inline registration, then a by-hash request: the set must persist
      // server-side across frames.
      for (const bool inline_circles : {true, false}) {
        std::vector<uint8_t> reply;
        const Status status = RoundTrip(
            fd,
            EncodeRequest(
                MakeWireRequest(*set, kDomain, 24, 24, inline_circles)),
            &reply);
        ASSERT_TRUE(status.ok()) << status.ToString();
        std::string error;
        const auto decoded = DecodeResponse(reply, &error);
        ASSERT_TRUE(decoded.has_value()) << error;
        ASSERT_EQ(decoded->status, WireStatus::kOk) << decoded->error;
        // Bit-identical to a direct engine execute over the same set.
        SizeInfluence measure;
        HeatmapEngineOptions engine_options;
        engine_options.num_threads = 1;
        HeatmapEngine reference(measure, engine_options);
        const CircleSetHandle handle =
            reference.registry().Register(set->circles(), set->metric());
        const HeatmapResponse expected =
            reference.Submit(HeatmapRequestV2{handle, kDomain, 24, 24}).get();
        EXPECT_EQ(decoded->response->grid.values(), expected.grid.values());
      }
      ::close(fd);
      EXPECT_TRUE(server.Stop().ok());
      EXPECT_EQ(server.server().stats().requests, 2u);
      EXPECT_EQ(server.server().stats().ok, 2u);
    }
  }
}

TEST(EventLoopServerTest, ByteAtATimeSocketDeliveryServes) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(6, 12), Metric::kLInf);
  TestServer server;
  ASSERT_TRUE(server.Start(TransportKind::kTcp, FastOptions()).ok());
  int fd = -1;
  ASSERT_TRUE(server.Connect(&fd).ok());
  const std::vector<uint8_t> frame =
      Framed(EncodeRequest(MakeWireRequest(*set, kDomain, 12, 12, true)));
  for (const uint8_t byte : frame) {
    ASSERT_TRUE(SendAll(fd, std::span<const uint8_t>(&byte, 1)).ok());
  }
  std::vector<uint8_t> reply;
  ASSERT_TRUE(RecvFrame(fd, &reply).ok());
  std::string error;
  const auto decoded = DecodeResponse(reply, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kOk) << decoded->error;
  ::close(fd);
  EXPECT_TRUE(server.Stop().ok());
}

TEST(EventLoopServerTest, OversizedFrameGetsAnErrorReplyThenClose) {
  TestServer server;
  ASSERT_TRUE(server.Start(TransportKind::kTcp, FastOptions()).ok());
  int fd = -1;
  ASSERT_TRUE(server.Connect(&fd).ok());
  // A length prefix over the ceiling. SendFrame itself refuses such
  // payloads, so write the poisoned prefix by hand.
  const uint32_t huge = kMaxFramePayloadBytes + 1;
  uint8_t prefix[4];
  for (int i = 0; i < 4; ++i) prefix[i] = static_cast<uint8_t>(huge >> (8 * i));
  ASSERT_TRUE(SendAll(fd, std::span<const uint8_t>(prefix, 4)).ok());
  std::vector<uint8_t> reply;
  ASSERT_TRUE(RecvFrame(fd, &reply).ok());
  std::string error;
  const auto decoded = DecodeResponse(reply, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kMalformedRequest);
  // The connection is closed after the error frame drains.
  const Status eof = RecvFrame(fd, &reply);
  EXPECT_EQ(eof.code, StatusCode::kUnavailable);
  EXPECT_EQ(eof.message, "end of stream");
  ::close(fd);
  EXPECT_TRUE(server.Stop().ok());
}

TEST(EventLoopServerTest, ConnectionsBeyondTheLimitAreClosed) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(7, 8), Metric::kL1);
  ServeOptions options = FastOptions();
  options.max_connections = 1;
  TestServer server;
  ASSERT_TRUE(server.Start(TransportKind::kTcp, options).ok());
  int keeper = -1;
  ASSERT_TRUE(server.Connect(&keeper).ok());
  // A round trip guarantees the first connection is registered before the
  // second arrives.
  std::vector<uint8_t> reply;
  ASSERT_TRUE(
      RoundTrip(keeper,
                EncodeRequest(MakeWireRequest(*set, kDomain, 8, 8, true)),
                &reply)
          .ok());
  int rejected = -1;
  ASSERT_TRUE(server.Connect(&rejected).ok());  // accept + immediate close
  const Status status = RecvFrame(rejected, &reply);
  EXPECT_EQ(status.code, StatusCode::kUnavailable);  // clean EOF
  ::close(rejected);
  ::close(keeper);
  EXPECT_TRUE(server.Stop().ok());
}

TEST(EventLoopServerTest, IdleConnectionsAreReaped) {
  ServeOptions options = FastOptions();
  options.idle_timeout_ms = 100;
  TestServer server;
  ASSERT_TRUE(server.Start(TransportKind::kTcp, options).ok());
  int fd = -1;
  ASSERT_TRUE(server.Connect(&fd).ok());
  std::vector<uint8_t> reply;
  // Never send anything: the server must hang up on its own.
  const Status status = RecvFrame(fd, &reply);
  EXPECT_EQ(status.code, StatusCode::kUnavailable);
  EXPECT_EQ(status.message, "end of stream");
  ::close(fd);
  EXPECT_TRUE(server.Stop().ok());
}

TEST(EventLoopServerTest, SlowReaderBackpressuresIntoServerMemory) {
  // Fire a burst of requests without reading a single response: the
  // responses (64x64 doubles each, ~1.3 MB total) exceed typical socket
  // buffers, so the server must park the overflow in its OutputBuffer
  // without stalling. Then drain everything and check order.
  const auto set = CircleSetSnapshot::Make(MakeCircles(8, 20), Metric::kLInf);
  constexpr int kBurst = 40;
  TestServer server;
  ASSERT_TRUE(server.Start(TransportKind::kTcp, FastOptions()).ok());
  int fd = -1;
  ASSERT_TRUE(server.Connect(&fd).ok());
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(
        SendFrame(fd, EncodeRequest(MakeWireRequest(*set, kDomain, 64, 64,
                                                    /*inline=*/i == 0)))
            .ok());
  }
  for (int i = 0; i < kBurst; ++i) {
    std::vector<uint8_t> reply;
    ASSERT_TRUE(RecvFrame(fd, &reply).ok()) << "response " << i;
    std::string error;
    const auto decoded = DecodeResponse(reply, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(decoded->status, WireStatus::kOk) << "response " << i;
  }
  ::close(fd);
  EXPECT_TRUE(server.Stop().ok());
  EXPECT_EQ(server.server().stats().requests,
            static_cast<uint64_t>(kBurst));
}

TEST(EventLoopServerTest, DisconnectReleasesTheConnectionsRegistrations) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(10, 10), Metric::kLInf);
  TestServer server;
  ASSERT_TRUE(server.Start(TransportKind::kTcp, FastOptions()).ok());
  int fd = -1;
  ASSERT_TRUE(server.Connect(&fd).ok());
  std::vector<uint8_t> reply;
  ASSERT_TRUE(
      RoundTrip(fd, EncodeRequest(MakeWireRequest(*set, kDomain, 10, 10, true)),
                &reply)
          .ok());
  std::string error;
  ASSERT_EQ(DecodeResponse(reply, &error)->status, WireStatus::kOk);
  EXPECT_EQ(server.engine().registry().size(), 1u);
  ::close(fd);
  // The hangup lands asynchronously; the connection's RegistrationScope
  // releases its registrations when the loop reaps the fd. The engine's
  // registry has no retention budget here, so the entry is erased.
  for (int i = 0; i < 400 && server.engine().registry().size() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.engine().registry().size(), 0u);

  // A fresh connection asking by hash gets a clean error, not stale data.
  int fd2 = -1;
  ASSERT_TRUE(server.Connect(&fd2).ok());
  ASSERT_TRUE(RoundTrip(fd2,
                        EncodeRequest(MakeWireRequest(*set, kDomain, 10, 10,
                                                      /*include=*/false)),
                        &reply)
                  .ok());
  const auto decoded = DecodeResponse(reply, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kUnknownCircleSet);
  ::close(fd2);
  EXPECT_TRUE(server.Stop().ok());
}

TEST(EventLoopServerTest, PerConnectionSetCapReleasesTheOldest) {
  ServeOptions options = FastOptions();
  options.max_conn_sets = 2;
  TestServer server;
  ASSERT_TRUE(server.Start(TransportKind::kTcp, options).ok());
  int fd = -1;
  ASSERT_TRUE(server.Connect(&fd).ok());
  const auto s0 = CircleSetSnapshot::Make(MakeCircles(11, 8), Metric::kL2);
  const auto s1 = CircleSetSnapshot::Make(MakeCircles(12, 8), Metric::kL2);
  const auto s2 = CircleSetSnapshot::Make(MakeCircles(13, 8), Metric::kL2);
  std::vector<uint8_t> reply;
  std::string error;
  for (const auto* set : {&s0, &s1, &s2}) {
    ASSERT_TRUE(RoundTrip(fd,
                          EncodeRequest(MakeWireRequest(**set, kDomain, 8, 8,
                                                        /*include=*/true)),
                          &reply)
                    .ok());
    ASSERT_EQ(DecodeResponse(reply, &error)->status, WireStatus::kOk);
  }
  // Tracking s2 pushed s0 past the 2-set connection budget: its
  // registration was released synchronously, before s2's response.
  const WireStatus expected[3] = {WireStatus::kUnknownCircleSet,
                                  WireStatus::kOk, WireStatus::kOk};
  const CircleSetSnapshot* sets[3] = {s0.get(), s1.get(), s2.get()};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(RoundTrip(fd,
                          EncodeRequest(MakeWireRequest(*sets[i], kDomain, 8, 8,
                                                        /*include=*/false)),
                          &reply)
                    .ok());
    const auto decoded = DecodeResponse(reply, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(decoded->status, expected[i]) << "set " << i;
  }
  ::close(fd);
  EXPECT_TRUE(server.Stop().ok());
}

TEST(EventLoopServerTest, GracefulShutdownDrainsInFlightConnections) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(9, 15), Metric::kL2);
  TestServer server;
  ASSERT_TRUE(server.Start(TransportKind::kTcp, FastOptions()).ok());
  int fd = -1;
  ASSERT_TRUE(server.Connect(&fd).ok());
  // Prove the connection is live before the shutdown lands.
  std::vector<uint8_t> reply;
  ASSERT_TRUE(
      RoundTrip(fd, EncodeRequest(MakeWireRequest(*set, kDomain, 16, 16, true)),
                &reply)
          .ok());
  server.BeginShutdown();
  // Lame-duck: the existing connection keeps being served...
  const Status status = RoundTrip(
      fd, EncodeRequest(MakeWireRequest(*set, kDomain, 20, 20, false)),
      &reply);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::string error;
  const auto decoded = DecodeResponse(reply, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kOk) << decoded->error;
  // ...while new connections are refused (listener closed) or, if the
  // shutdown has not landed yet, at least never left half-served.
  for (int attempt = 0; attempt < 50; ++attempt) {
    int late = -1;
    if (!server.Connect(&late).ok()) break;  // listener gone: expected
    ::close(late);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::close(fd);  // lets the drain finish
  EXPECT_TRUE(server.Stop().ok());
}

}  // namespace
}  // namespace rnnhm
