// Serving transport tests: frame reassembly under arbitrary delivery
// splits, the WireServer byte-stream surface, and the nonblocking socket
// event loop (both pollers, both socket transports) — connection limits,
// idle timeouts, slow-reader backpressure, graceful shutdown, and sweeps
// on the engine pool while the loop thread keeps answering.
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/influence_measure.h"
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

// The served grid of `set` from a plain size-measure engine.
std::vector<double> ReferenceValues(const CircleSetSnapshot& set, int size) {
  SizeInfluence measure;
  HeatmapEngineOptions engine_options;
  engine_options.num_threads = 1;
  HeatmapEngine reference(measure, engine_options);
  const CircleSetHandle handle =
      reference.registry().Register(set.circles(), set.metric());
  return reference.Submit(HeatmapRequestV2{handle, kDomain, size, size})
      .get()
      .grid.values();
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

// An EventLoopServer on its own thread over a fresh single-worker engine
// (SizeInfluence unless `measure` is given; no result cache unless
// `cache_bytes` is nonzero).
class TestServer {
 public:
  Status Start(TransportKind transport, const ServeOptions& base,
               const InfluenceMeasure* measure = nullptr,
               size_t cache_bytes = 0) {
    options_ = base;
    options_.transport = transport;
    HeatmapEngineOptions engine_options;
    engine_options.num_threads = 1;
    engine_options.cache_bytes = cache_bytes;
    engine_ = std::make_unique<HeatmapEngine>(
        measure != nullptr ? *measure : measure_, engine_options);
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

  // Connects a blocking client. A reply that never comes fails the test
  // instead of hanging it; no passing run waits anywhere near the bound.
  Status Connect(int* fd) const {
    const Status status = options_.transport == TransportKind::kTcp
                              ? ConnectTcp("127.0.0.1", port_, fd)
                              : ConnectUnix(path_, fd);
    if (status.ok()) {
      timeval guard{60, 0};
      ::setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &guard, sizeof(guard));
    }
    return status;
  }

  // First shutdown request: lame-duck drain.
  void BeginShutdown() { server_->RequestShutdown(); }

  Status Stop() {
    server_->RequestShutdown();
    return Join();
  }

  // Waits for Run to return on its own (a drain that completes).
  Status Join() {
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
        EXPECT_EQ(decoded->response->grid.values(), ReferenceValues(*set, 24));
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

// --- Sweeps on the engine pool ---------------------------------------------

// A size measure whose Evaluate blocks while the gate is armed: the test
// holds a sweep on the engine's worker for exactly as long as it needs,
// with no sleeps. Every sweep evaluates the empty set first (the grid
// background), so a held sweep is held before it paints anything.
class GatedInfluence : public InfluenceMeasure {
 public:
  double Evaluate(std::span<const int32_t> clients) const override {
    std::unique_lock<std::mutex> lock(mu_);
    if (armed_) {
      ++held_;
      changed_.notify_all();
      changed_.wait(lock, [this] { return !armed_; });
    }
    return static_cast<double>(clients.size());
  }

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
    held_ = 0;
  }

  // True once a sweep is held at the gate. The bound only turns a broken
  // server into a failure instead of a hang; no passing run comes near it.
  bool WaitUntilHeld() const {
    std::unique_lock<std::mutex> lock(mu_);
    return changed_.wait_for(lock, std::chrono::seconds(60),
                             [this] { return held_ > 0; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    changed_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable changed_;
  bool armed_ = false;
  mutable int held_ = 0;
};

// Receives one frame and decodes it as a heat-map response.
std::optional<WireResponse> RecvResponse(int fd) {
  std::vector<uint8_t> reply;
  if (!RecvFrame(fd, &reply).ok()) return std::nullopt;
  std::string error;
  return DecodeResponse(reply, &error);
}

WireStatsReply QueryStats(int fd) {
  std::vector<uint8_t> reply;
  EXPECT_TRUE(RoundTrip(fd, EncodeStatsRequest(), &reply).ok());
  std::string error;
  const std::optional<WireStatsReply> stats =
      DecodeStatsResponse(reply, &error);
  EXPECT_TRUE(stats.has_value()) << error;
  return stats.value_or(WireStatsReply{});
}

TEST(EventLoopJobTest, HitIsAnsweredWhileAnotherConnectionsSweepIsHeld) {
  const auto hot = CircleSetSnapshot::Make(MakeCircles(20, 20), Metric::kLInf);
  const auto cold = CircleSetSnapshot::Make(MakeCircles(21, 30), Metric::kL2);
  GatedInfluence gate;
  TestServer server;
  ASSERT_TRUE(
      server.Start(TransportKind::kTcp, FastOptions(), &gate, 16 << 20).ok());
  int a = -1;
  int b = -1;
  ASSERT_TRUE(server.Connect(&a).ok());
  ASSERT_TRUE(server.Connect(&b).ok());
  std::vector<uint8_t> reply;
  ASSERT_TRUE(
      RoundTrip(b, EncodeRequest(MakeWireRequest(*hot, kDomain, 24, 24, true)),
                &reply)
          .ok());

  gate.Arm();
  ASSERT_TRUE(
      SendFrame(a, EncodeRequest(MakeWireRequest(*cold, kDomain, 24, 24, true)))
          .ok());
  ASSERT_TRUE(gate.WaitUntilHeld());
  // A's cold sweep is held on the worker; B's by-hash hit comes back now.
  ASSERT_TRUE(
      RoundTrip(b, EncodeRequest(MakeWireRequest(*hot, kDomain, 24, 24, false)),
                &reply)
          .ok());
  std::string error;
  const auto hit = DecodeResponse(reply, &error);
  ASSERT_TRUE(hit.has_value()) << error;
  ASSERT_EQ(hit->status, WireStatus::kOk) << hit->error;
  EXPECT_TRUE(hit->response->from_cache);
  EXPECT_EQ(hit->response->grid.values(), ReferenceValues(*hot, 24));

  gate.Release();
  const auto swept = RecvResponse(a);
  ASSERT_TRUE(swept.has_value());
  ASSERT_EQ(swept->status, WireStatus::kOk) << swept->error;
  EXPECT_FALSE(swept->response->from_cache);
  EXPECT_EQ(swept->response->grid.values(), ReferenceValues(*cold, 24));
  ::close(a);
  ::close(b);
  EXPECT_TRUE(server.Stop().ok());
  EXPECT_EQ(server.server().stats().requests, 3u);
  EXPECT_EQ(server.server().stats().ok, 3u);
  EXPECT_EQ(server.server().stats().errors, 0u);
}

TEST(EventLoopJobTest, PipelinedFramesOnOneConnectionComeBackInOrder) {
  const auto hot = CircleSetSnapshot::Make(MakeCircles(22, 20), Metric::kLInf);
  const auto cold = CircleSetSnapshot::Make(MakeCircles(23, 25), Metric::kL2);
  GatedInfluence gate;
  TestServer server;
  ASSERT_TRUE(
      server.Start(TransportKind::kUnix, FastOptions(), &gate, 16 << 20).ok());
  int a = -1;
  int b = -1;
  ASSERT_TRUE(server.Connect(&a).ok());
  ASSERT_TRUE(server.Connect(&b).ok());
  std::vector<uint8_t> reply;
  for (const int size : {16, 20}) {  // warm both hits
    ASSERT_TRUE(RoundTrip(a,
                          EncodeRequest(MakeWireRequest(*hot, kDomain, size,
                                                        size, size == 16)),
                          &reply)
                    .ok());
  }

  gate.Arm();
  // hit, cold, hit — in one write.
  std::vector<uint8_t> burst;
  for (const auto& payload :
       {EncodeRequest(MakeWireRequest(*hot, kDomain, 16, 16, false)),
        EncodeRequest(MakeWireRequest(*cold, kDomain, 24, 24, true)),
        EncodeRequest(MakeWireRequest(*hot, kDomain, 20, 20, false))}) {
    const auto framed = Framed(payload);
    burst.insert(burst.end(), framed.begin(), framed.end());
  }
  ASSERT_TRUE(SendAll(a, burst).ok());
  ASSERT_TRUE(gate.WaitUntilHeld());
  const auto first = RecvResponse(a);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->status, WireStatus::kOk);
  EXPECT_EQ(first->response->grid.width(), 16);
  EXPECT_TRUE(first->response->from_cache);
  // The second hit waits behind the held sweep: the server has answered
  // the two warm-ups and the first hit, and now this stats request.
  EXPECT_EQ(QueryStats(b).requests, 4u);

  gate.Release();
  const auto second = RecvResponse(a);
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(second->status, WireStatus::kOk);
  EXPECT_EQ(second->response->grid.width(), 24);
  EXPECT_FALSE(second->response->from_cache);
  EXPECT_EQ(second->response->grid.values(), ReferenceValues(*cold, 24));
  const auto third = RecvResponse(a);
  ASSERT_TRUE(third.has_value());
  ASSERT_EQ(third->status, WireStatus::kOk);
  EXPECT_EQ(third->response->grid.width(), 20);
  EXPECT_TRUE(third->response->from_cache);

  const WireStatsReply stats = QueryStats(b);
  EXPECT_EQ(stats.requests, 7u);
  EXPECT_EQ(stats.ok, 7u);
  EXPECT_EQ(stats.errors, 0u);
  ::close(a);
  ::close(b);
  EXPECT_TRUE(server.Stop().ok());
}

// A peer that hangs up while its job is held keeps its connection state
// until the job completes; then its scope releases every registration it
// owned — for a delta, the derived set the job registered too.
TEST(EventLoopJobTest, DisconnectDuringAHeldJobReleasesItsRegistrations) {
  for (const bool delta : {false, true}) {
    SCOPED_TRACE(delta ? "delta" : "plain");
    const std::vector<NnCircle> circles = MakeCircles(24, 20);
    const auto base = CircleSetSnapshot::Make(circles, Metric::kLInf);
    GatedInfluence gate;
    TestServer server;
    // Unix sockets: the hangup is in the server's socket the moment
    // close() returns, so finishing the job finds the peer gone.
    ASSERT_TRUE(
        server.Start(TransportKind::kUnix, FastOptions(), &gate, 16 << 20)
            .ok());
    CircleSetRegistry& registry = server.engine().registry();
    const auto barrier_set =
        CircleSetSnapshot::Make(MakeCircles(25, 10), Metric::kLInf);
    registry.Register(barrier_set->circles(), barrier_set->metric());
    const size_t baseline = registry.size();

    int a = -1;
    ASSERT_TRUE(server.Connect(&a).ok());
    std::vector<uint8_t> frame;
    if (delta) {
      std::vector<uint8_t> reply;
      ASSERT_TRUE(RoundTrip(a,
                            EncodeRequest(MakeWireRequest(*base, kDomain, 12,
                                                          12, true)),
                            &reply)
                      .ok());
      NnCircle moved = circles[0];
      moved.center.x += 0.01;
      std::vector<NnCircle> derived = circles;
      derived[0] = moved;
      WireDeltaRequest request;
      request.metric = Metric::kLInf;
      request.base_hash = base->content_hash();
      request.new_hash = HashCircleSet(derived, Metric::kLInf);
      request.edits = {CircleSetEdit{CircleSetEdit::Kind::kReplace, 0, moved}};
      request.domain = kDomain;
      request.width = 18;  // not the base's raster: a full sweep
      request.height = 18;
      frame = EncodeDeltaRequest(request);
    } else {
      frame = EncodeRequest(MakeWireRequest(*base, kDomain, 18, 18, true));
    }
    gate.Arm();
    ASSERT_TRUE(SendFrame(a, frame).ok());
    ASSERT_TRUE(gate.WaitUntilHeld());
    // Held: the inline set (plain) or the base plus the derived set
    // (delta) are pinned by A's scope.
    EXPECT_EQ(registry.size(), baseline + (delta ? 2 : 1));
    ::close(a);
    gate.Release();
    // Barrier: B's by-hash miss is a job queued behind A's on the single
    // worker, so its reply leaves after A's completion was finished.
    int b = -1;
    ASSERT_TRUE(server.Connect(&b).ok());
    std::vector<uint8_t> reply;
    ASSERT_TRUE(RoundTrip(b,
                          EncodeRequest(MakeWireRequest(*barrier_set, kDomain,
                                                        14, 14, false)),
                          &reply)
                    .ok());
    std::string error;
    const auto decoded = DecodeResponse(reply, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(decoded->status, WireStatus::kOk) << decoded->error;
    EXPECT_EQ(registry.size(), baseline);
    ::close(b);
    EXPECT_TRUE(server.Stop().ok());
    const WireStatsReply stats = server.server().stats();
    EXPECT_EQ(stats.requests, delta ? 3u : 2u);
    EXPECT_EQ(stats.ok, delta ? 3u : 2u);
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_EQ(stats.deltas, delta ? 1u : 0u);
  }
}

TEST(EventLoopJobTest, SigtermDrainDeliversTheHeldReplyThenStops) {
  const auto cold = CircleSetSnapshot::Make(MakeCircles(26, 25), Metric::kL2);
  GatedInfluence gate;
  ServeOptions options = FastOptions();
  options.drain_timeout_ms = 60000;  // the held job decides, not the clock
  TestServer server;
  ASSERT_TRUE(server.Start(TransportKind::kUnix, options, &gate).ok());
  InstallShutdownSignalHandlers(&server.server());
  int a = -1;
  ASSERT_TRUE(server.Connect(&a).ok());
  gate.Arm();
  ASSERT_TRUE(
      SendFrame(a, EncodeRequest(MakeWireRequest(*cold, kDomain, 20, 20, true)))
          .ok());
  ASSERT_TRUE(gate.WaitUntilHeld());
  ASSERT_EQ(::raise(SIGTERM), 0);  // lame duck: the listener closes
  gate.Release();
  const auto reply = RecvResponse(a);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->status, WireStatus::kOk) << reply->error;
  EXPECT_EQ(reply->response->grid.values(), ReferenceValues(*cold, 20));
  ::close(a);
  // The last connection gone, the drain completes without a second
  // request.
  EXPECT_TRUE(server.Join().ok());
  InstallShutdownSignalHandlers(nullptr);
  EXPECT_EQ(server.server().stats().requests, 1u);
  EXPECT_EQ(server.server().stats().ok, 1u);
}

}  // namespace
}  // namespace rnnhm
