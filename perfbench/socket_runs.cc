// The socket runs: set-up, the measured closed or open loop, the stats-op
// cross-check, and output verification.
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <thread>

#include "heatmap/influence.h"
#include "perfbench.h"
#include "serve/frame_buffer.h"
#include "serve/transport.h"

namespace perfbench {

namespace {

// hit_mix load: hits at a fixed total rate over three connections, one
// cold L2 request per period on the fourth. A cold sweep (~65 ms on a
// 4-vCPU x86 VM) stalls a handful of hits, so the hits' tail is set by
// many stalls, not by the single longest one. The loop sweeps about 13%
// of the time: near a quarter busy, the hits' median sits on the edge of
// the stalled hits and jumps with host speed (2.6 ms instead of 0.5 ms on
// one seed in five at a 220 ms period).
constexpr double kHitRatePerS = 100.0;
constexpr int kHitStreams = 3;
constexpr double kColdPeriodMs = 500.0;
// Cold sets generated during set-up; later ones are generated on demand.
constexpr uint64_t kPregeneratedColdSets = 48;
// The open loop sleeps until this close to a due time, then spins, so
// wake-up jitter does not land in the hits' latency.
constexpr auto kSpinWindow = std::chrono::microseconds(200);
// Every this many requests of edit_stream, a new fleet registers inline:
// a cold map amid the ticks (cold_ms_p50), spread over the whole run.
constexpr uint64_t kEditColdEvery = 32;
// How long the open loop waits for outstanding responses after its
// schedule ends before it counts them as unanswered.
constexpr double kDrainMs = 20000.0;

double UsSince(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

// What one run accumulates, shared by the set-up and measured phases.
class Recorder {
 public:
  Recorder(const SocketRunConfig& config, SocketRun* run)
      : config_(config), run_(run), origin_(Clock::now()) {}

  // Registers a frame about to be sent; returns its send-order index.
  uint32_t AddFrame(const std::vector<uint8_t>& frame, OpKind kind) {
    const auto index = static_cast<uint32_t>(run_->frames_sent++);
    if (config_.record_frames) {
      run_->frames.push_back(frame);
      run_->frame_kinds.push_back(kind);
    }
    return index;
  }

  int AddExpectation(std::shared_ptr<const CircleSetSnapshot> set,
                     const Shape& shape, int chain = -1,
                     std::vector<CircleSetEdit> edits = {}) {
    run_->expect.push_back(Expectation{std::move(set), shape.domain,
                                       shape.raster, chain,
                                       std::move(edits)});
    return static_cast<int>(run_->expect.size()) - 1;
  }

  // Fills `op` from a response payload. Returns the decoded grid when the
  // response is ok (for callers comparing it in place).
  std::optional<rnnhm::HeatmapGrid> Absorb(const std::vector<uint8_t>& reply,
                                           OpRecord* op, bool digest) {
    op->answered = true;
    std::string error;
    std::optional<rnnhm::WireResponse> decoded =
        rnnhm::DecodeResponse(reply, &error);
    if (!decoded.has_value()) return std::nullopt;
    if (decoded->status != rnnhm::WireStatus::kOk ||
        !decoded->response.has_value()) {
      ++run_->frames_error;
      return std::nullopt;
    }
    ++run_->frames_ok;
    op->ok = true;
    op->crest = decoded->response->stats;
    op->l2 = decoded->response->l2_stats;
    op->cache = decoded->response->cache;
    if (digest) op->digest = GridDigest(decoded->response->grid);
    return std::move(decoded->response->grid);
  }

  // Client-side spans of one request: a root and its three phases.
  void Spans(uint32_t request, Clock::time_point root_start,
             Clock::time_point encode_start, Clock::time_point sent,
             Clock::time_point received, Clock::time_point decoded) {
    if (!config_.trace) return;
    const auto root = static_cast<int32_t>(run_->spans.size());
    run_->spans.push_back(Span{"request", UsSince(origin_, root_start),
                               UsSince(origin_, decoded), -1, request});
    run_->spans.push_back(Span{"encode", UsSince(origin_, encode_start),
                               UsSince(origin_, sent), root, request});
    run_->spans.push_back(Span{"send_to_receive", UsSince(origin_, sent),
                               UsSince(origin_, received), root, request});
    run_->spans.push_back(Span{"decode", UsSince(origin_, received),
                               UsSince(origin_, decoded), root, request});
  }

  SocketRun& run() { return *run_; }

 private:
  const SocketRunConfig& config_;
  SocketRun* run_;
  Clock::time_point origin_;
};

// One blocking request/response on `fd`. `build` encodes the frame (its
// time is the op's encode span).
template <typename Build>
std::optional<rnnhm::HeatmapGrid> Exchange(Recorder& rec, int fd,
                                           OpKind kind, Build&& build,
                                           bool digest, OpRecord* op) {
  op->kind = kind;
  const Clock::time_point t0 = Clock::now();
  const std::vector<uint8_t> frame = build();
  const Clock::time_point t1 = Clock::now();
  op->frame = rec.AddFrame(frame, kind);
  std::vector<uint8_t> reply;
  rnnhm::Status status = rnnhm::SendFrame(fd, frame);
  if (status.ok()) status = rnnhm::RecvFrame(fd, &reply);
  const Clock::time_point t2 = Clock::now();
  if (!status.ok()) {
    rec.run().problems.push_back("transport: " + status.ToString());
    return std::nullopt;
  }
  std::optional<rnnhm::HeatmapGrid> grid = rec.Absorb(reply, op, digest);
  const Clock::time_point t3 = Clock::now();
  op->rtt_ms = MsBetween(t1, t2);
  op->latency_ms = MsBetween(t0, t3);
  rec.Spans(op->frame, t0, t0, t1, t2, t3);
  return grid;
}

std::vector<uint8_t> InlineFrame(const CircleSetSnapshot& set,
                                 const Shape& shape, bool include_circles) {
  return rnnhm::EncodeRequest(rnnhm::MakeWireRequest(
      set, shape.domain, shape.raster, shape.raster, include_circles));
}

// Everything tied to one forked server: the process, its connections and
// the workload state set-up produced.
struct Live {
  std::unique_ptr<InputGen> gen;
  ServerProcess server;
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<GeneratedSet> cold_pool;
  // hit_mix: hot sets, their warm-up grids and expectation indices.
  std::vector<GeneratedSet> hot;
  std::vector<std::vector<double>> hot_values;
  std::vector<int> hot_expect;
  std::vector<uint64_t> hot_digest;
  // edit_stream: each fleet's moving population and the set the server
  // holds for it.
  std::vector<EditPopulation> fleets;
  std::vector<std::shared_ptr<const CircleSetSnapshot>> current;
};

// The i-th cold set: pre-generated during set-up, or generated now.
GeneratedSet ColdSetAt(const InputGen& gen, const Live& live, uint64_t i,
                       SocketRun* run) {
  if (i < live.cold_pool.size()) return live.cold_pool[i];
  GeneratedSet set = gen.ColdSet(i);
  run->nn_build_ms.push_back(set.nn_build_ms);
  return set;
}

// Set-up: inputs, fork and bind, connections, registration and warm-up.
// Returns false (with a problem recorded) when the server cannot start.
bool SetUp(const SocketRunConfig& config, const InputGen& gen, Recorder& rec,
           Live* live) {
  SocketRun& run = rec.run();
  const Workload w = config.workload;
  if (w == Workload::kLinfCold || w == Workload::kL2Cold ||
      w == Workload::kHitMix) {
    for (uint64_t i = 0; i < kPregeneratedColdSets; ++i) {
      live->cold_pool.push_back(gen.ColdSet(i));
      run.nn_build_ms.push_back(live->cold_pool.back().nn_build_ms);
    }
  }
  if (w == Workload::kHitMix) {
    for (int h = 0; h < InputGen::kHotSets; ++h) {
      live->hot.push_back(gen.HotSet(h));
      run.nn_build_ms.push_back(live->hot.back().nn_build_ms);
    }
  }
  if (w == Workload::kEditStream) {
    for (int f = 0; f < InputGen::kFleets; ++f) {
      double nn_ms = 0;
      live->fleets.push_back(gen.BasePopulation(f, &nn_ms));
      run.nn_build_ms.push_back(nn_ms);
      live->current.push_back(CircleSetSnapshot::Make(
          live->fleets.back().circles, gen.shape().metric));
    }
  }

  std::string error;
  if (!live->server.Start(config.socket_path, /*disable_simd=*/false,
                          &error)) {
    run.problems.push_back("server start: " + error);
    return false;
  }
  const int connections = w == Workload::kHitMix ? kHitStreams + 1 : 1;
  for (int c = 0; c < connections; ++c) {
    live->conns.push_back(std::make_unique<Connection>());
    if (!live->conns.back()->Open(config.socket_path, &error)) {
      run.problems.push_back("connect: " + error);
      return false;
    }
  }

  // Warm-up: registrations whose registrations belong to the connection
  // that will keep using them (per-connection scopes release on close).
  const int fd = live->conns.front()->fd();
  if (w == Workload::kHitMix) {
    for (const GeneratedSet& hot : live->hot) {
      OpRecord op;
      std::optional<rnnhm::HeatmapGrid> grid = Exchange(
          rec, fd, OpKind::kWarm,
          [&] { return InlineFrame(*hot.set, gen.shape(), true); },
          /*digest=*/true, &op);
      op.verify = rec.AddExpectation(hot.set, gen.shape());
      live->hot_expect.push_back(op.verify);
      live->hot_digest.push_back(op.digest);
      live->hot_values.push_back(grid.has_value() ? grid->values()
                                                  : std::vector<double>{});
      run.ops.push_back(op);
    }
  } else if (w == Workload::kEditStream) {
    for (int f = 0; f < InputGen::kFleets; ++f) {
      OpRecord op;
      Exchange(
          rec, fd, OpKind::kWarm,
          [&] { return InlineFrame(*live->current[f], gen.shape(), true); },
          /*digest=*/true, &op);
      op.verify = rec.AddExpectation(live->current[f], gen.shape(), f);
      run.ops.push_back(op);
    }
  }
  return true;
}

// Closed loop with one client: linf_cold, l2_cold, edit_stream.
void ClosedLoop(const SocketRunConfig& config, const InputGen& gen,
                Recorder& rec, Live* live) {
  SocketRun& run = rec.run();
  const int fd = live->conns.front()->fd();
  const Shape& shape = gen.shape();
  const Clock::time_point start = Clock::now();
  const auto budget = std::chrono::duration<double>(config.seconds);
  uint64_t ticks = 0;
  uint64_t colds = 0;
  for (uint64_t i = 0; Clock::now() - start < budget; ++i) {
    OpRecord op;
    const bool edit_stream = config.workload == Workload::kEditStream;
    if (edit_stream && i % kEditColdEvery != kEditColdEvery - 1) {
      const int f = static_cast<int>(ticks % InputGen::kFleets);
      const std::vector<CircleSetEdit> edits =
          gen.NextTick(ticks++, &live->fleets[f]);
      std::shared_ptr<const CircleSetSnapshot> next =
          CircleSetSnapshot::Make(live->fleets[f].circles, shape.metric);
      const uint64_t base_hash = live->current[f]->content_hash();
      Exchange(
          rec, fd, OpKind::kPrimary,
          [&] {
            rnnhm::WireDeltaRequest delta;
            delta.metric = shape.metric;
            delta.base_hash = base_hash;
            delta.new_hash = next->content_hash();
            delta.edits = edits;
            delta.domain = shape.domain;
            delta.width = shape.raster;
            delta.height = shape.raster;
            return rnnhm::EncodeDeltaRequest(delta);
          },
          /*digest=*/true, &op);
      op.verify = rec.AddExpectation(nullptr, shape, f, edits);
      live->current[f] = std::move(next);
    } else {
      // A cold map: the primary op of the cold workloads, and edit_stream's
      // occasional new fleet.
      const OpKind kind = edit_stream ? OpKind::kCold : OpKind::kPrimary;
      const GeneratedSet set = ColdSetAt(gen, *live, colds++, &run);
      Exchange(
          rec, fd, kind, [&] { return InlineFrame(*set.set, shape, true); },
          /*digest=*/true, &op);
      op.verify = rec.AddExpectation(set.set, shape);
    }
    run.ops.push_back(op);
    if (!op.answered) break;  // the connection is gone
  }
  run.measured_s = std::chrono::duration<double>(Clock::now() - start).count();
}

// Open loop: three hit streams at a fixed total rate and one cold stream,
// each on its own nonblocking connection, multiplexed by one thread.
void OpenLoop(const SocketRunConfig& config, const InputGen& gen,
              Recorder& rec, Live* live) {
  SocketRun& run = rec.run();
  constexpr int kStreams = kHitStreams + 1;
  const double hit_interval_ms = 1000.0 * kHitStreams / kHitRatePerS;
  struct Pending {
    size_t op;
    Clock::time_point due;
    Clock::time_point encode_start;
    Clock::time_point sent;
    int hot = -1;
  };
  struct StreamState {
    int fd = -1;
    double period_ms = 0;
    Clock::time_point next_due;
    uint64_t issued = 0;
    rnnhm::OutputBuffer out;
    rnnhm::FrameAssembler in{rnnhm::kMaxFramePayloadBytes};
    std::deque<Pending> pending;
    bool broken = false;
  };
  std::vector<StreamState> streams(kStreams);
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // ppoll wakes on time, not 50 us late
  const Clock::time_point start = Clock::now();
  const auto at_ms = [&](double ms) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
  };
  for (int s = 0; s < kStreams; ++s) {
    StreamState& st = streams[s];
    st.fd = live->conns[s]->fd();
    ::fcntl(st.fd, F_SETFL, ::fcntl(st.fd, F_GETFL) | O_NONBLOCK);
    st.period_ms = s < kHitStreams ? hit_interval_ms : kColdPeriodMs;
    // The hit streams take evenly spaced turns, so no two hits are ever due
    // together. With a seeded phase per stream, two streams whose phases
    // fall within one hit's service time would queue one behind the other
    // for the whole run, on some seeds only. The seed sets where the hits
    // fall against the cold stream.
    const double phase =
        s < kHitStreams
            ? gen.StreamPhase(0) + static_cast<double>(s) / kHitStreams
            : gen.StreamPhase(s);
    st.next_due = at_ms(phase * st.period_ms);
  }
  const Clock::time_point end = at_ms(1000.0 * config.seconds);
  const Clock::time_point drain_deadline = at_ms(1000.0 * config.seconds +
                                                 kDrainMs);
  Clock::time_point last_completion = start;
  std::vector<uint8_t> chunk(1 << 18);

  for (;;) {
    Clock::time_point now = Clock::now();
    // Issue everything that is due.
    if (now < end) {
      int batch = 0;
      for (int s = 0; s < kStreams; ++s) {
        StreamState& st = streams[s];
        while (!st.broken && st.next_due <= now && st.next_due < end) {
          Pending p;
          p.due = st.next_due;
          p.encode_start = Clock::now();
          OpRecord op;
          std::vector<uint8_t> frame;
          if (s < kHitStreams) {
            op.kind = OpKind::kPrimary;
            p.hot = gen.HotIndexForHit(st.issued * kHitStreams + s);
            frame = InlineFrame(*live->hot[p.hot].set, gen.shape(), false);
            op.verify = live->hot_expect[p.hot];
          } else {
            op.kind = OpKind::kCold;
            const GeneratedSet set = ColdSetAt(gen, *live, st.issued, &run);
            frame = InlineFrame(*set.set, gen.cold_shape(), true);
            op.verify = rec.AddExpectation(set.set, gen.cold_shape());
          }
          op.frame = rec.AddFrame(frame, op.kind);
          st.out.AppendFrame(frame);
          p.sent = Clock::now();
          op.late_ms = MsBetween(p.due, p.sent);
          p.op = run.ops.size();
          run.ops.push_back(op);
          st.pending.push_back(p);
          ++st.issued;
          ++batch;
          st.next_due = at_ms(MsBetween(start, st.next_due) + st.period_ms);
        }
      }
      run.backlog_max = std::max(run.backlog_max, static_cast<double>(batch));
    }
    for (StreamState& st : streams) {
      if (!st.broken && !st.out.empty() && st.out.WriteSome(st.fd) < 0) {
        st.broken = true;
      }
    }
    bool outstanding = false;
    for (const StreamState& st : streams) {
      outstanding |= !st.broken && !st.pending.empty();
    }
    now = Clock::now();
    if (now >= end && !outstanding) break;
    if (now >= drain_deadline) break;

    Clock::time_point wake = drain_deadline;
    if (now < end) {
      for (const StreamState& st : streams) wake = std::min(wake, st.next_due);
    }
    std::vector<pollfd> fds;
    for (const StreamState& st : streams) {
      short events = POLLIN;
      if (!st.out.empty()) events |= POLLOUT;
      fds.push_back(pollfd{st.broken ? -1 : st.fd, events, 0});
    }
    const auto wait_ns = std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(
               wake - kSpinWindow - now)
               .count());
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      run.problems.push_back(std::string("ppoll: ") + std::strerror(errno));
      break;
    }
    for (int s = 0; s < kStreams; ++s) {
      StreamState& st = streams[s];
      if (st.broken || (fds[s].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      for (;;) {
        const ssize_t n = ::recv(st.fd, chunk.data(), chunk.size(), 0);
        if (n > 0) {
          st.in.Feed(std::span<const uint8_t>(chunk.data(),
                                              static_cast<size_t>(n)));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        st.broken = true;  // EOF or error: pending requests stay unanswered
        break;
      }
      while (std::optional<std::vector<uint8_t>> reply = st.in.Next()) {
        const Clock::time_point received = Clock::now();
        if (st.pending.empty()) {
          run.problems.push_back("response without a request");
          st.broken = true;
          break;
        }
        const Pending p = st.pending.front();
        st.pending.pop_front();
        OpRecord& op = run.ops[p.op];
        std::optional<rnnhm::HeatmapGrid> grid =
            rec.Absorb(*reply, &op, /*digest=*/p.hot < 0);
        const Clock::time_point decoded = Clock::now();
        if (grid.has_value() && p.hot >= 0) {
          // A hit must be its warm-up grid, bit for bit.
          const std::vector<double>& warm = live->hot_values[p.hot];
          const bool same =
              grid->values().size() == warm.size() &&
              std::memcmp(grid->data(), warm.data(),
                          warm.size() * sizeof(double)) == 0;
          op.digest = same ? live->hot_digest[p.hot] : 0;
        }
        op.rtt_ms = MsBetween(p.sent, received);
        op.latency_ms = MsBetween(p.due, decoded);
        rec.Spans(op.frame, p.due, p.encode_start, p.sent, received, decoded);
        last_completion = decoded;
      }
    }
  }
  // Measured from the schedule's start to the last response.
  run.measured_s =
      std::chrono::duration<double>(last_completion - start).count();
}

}  // namespace

SocketRun RunSocket(const SocketRunConfig& config) {
  SocketRun run;
  Recorder rec(config, &run);
  std::unique_ptr<Live> live;
  for (int rep = 0; rep < std::max(1, config.setups); ++rep) {
    // Each repetition starts from nothing; only the last server is kept.
    live.reset();
    std::vector<double> setups = std::move(run.setup_s);
    run = SocketRun{};
    run.setup_s = std::move(setups);
    const Clock::time_point t0 = Clock::now();
    live = std::make_unique<Live>();
    live->gen = std::make_unique<InputGen>(config.workload, config.seed);
    const bool ok = SetUp(config, *live->gen, rec, live.get());
    run.setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    if (!ok) return run;
  }
  const InputGen& gen = *live->gen;
  if (config.workload == Workload::kHitMix) {
    OpenLoop(config, gen, rec, live.get());
  } else {
    ClosedLoop(config, gen, rec, live.get());
  }

  // Cross-check the server's own counters against the generator's.
  std::string error;
  run.stats = QueryStats(config.socket_path, &error);
  if (!run.stats.has_value()) {
    run.problems.push_back("stats op: " + error);
  } else if (run.stats->requests != run.frames_sent + 1 ||
             run.stats->ok != run.frames_ok + 1 ||
             run.stats->errors != run.frames_error) {
    run.problems.push_back(
        "stats op disagrees with the generator: server requests/ok/errors " +
        std::to_string(run.stats->requests) + "/" +
        std::to_string(run.stats->ok) + "/" +
        std::to_string(run.stats->errors) + ", generator " +
        std::to_string(run.frames_sent + 1) + "/" +
        std::to_string(run.frames_ok + 1) + "/" +
        std::to_string(run.frames_error) + " (stats request included)");
  }
  run.server_rss_mb = live->server.PeakRssMb();
  return run;
}

int VerifyOutputs(SocketRun* run, int threads) {
  // Batches bound how many rebuilt edit-tick sets are alive at once.
  constexpr size_t kBatch = 32;
  std::vector<uint64_t> expected(run->expect.size(), 0);
  std::map<int, std::shared_ptr<const CircleSetSnapshot>> chains;
  for (size_t lo = 0; lo < run->expect.size(); lo += kBatch) {
    const size_t hi = std::min(run->expect.size(), lo + kBatch);
    std::vector<std::shared_ptr<const CircleSetSnapshot>> sets;
    for (size_t i = lo; i < hi; ++i) {
      const Expectation& e = run->expect[i];
      std::shared_ptr<const CircleSetSnapshot>& chain = chains[e.chain];
      if (e.set == nullptr) {
        std::vector<NnCircle> circles = chain->circles();
        for (const CircleSetEdit& edit : e.edits) {
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
        chain = CircleSetSnapshot::Make(std::move(circles), chain->metric());
      } else {
        chain = e.set;
      }
      sets.push_back(chain);
    }
    std::atomic<size_t> next{lo};
    const auto worker = [&] {
      const rnnhm::SizeInfluence measure;
      for (size_t i = next++; i < hi; i = next++) {
        const Expectation& e = run->expect[i];
        const CircleSetSnapshot& set = *sets[i - lo];
        expected[i] = GridDigest(rnnhm::BuildHeatmapForMetric(
            set.metric(), set.circles(), measure, e.domain, e.raster,
            e.raster));
      }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < std::max(1, threads); ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  int mismatches = 0;
  for (OpRecord& op : run->ops) {
    if (!op.ok || op.verify < 0) continue;
    if (op.digest != expected[op.verify]) {
      op.ok = false;
      ++mismatches;
    }
  }
  return mismatches;
}

std::vector<FrameResult> ReplayOverSocket(
    const std::vector<std::vector<uint8_t>>& frames,
    const std::string& socket_path, bool disable_simd, std::string* error) {
  std::vector<FrameResult> out;
  ServerProcess server;
  if (!server.Start(socket_path, disable_simd, error)) return out;
  Connection conn;
  if (!conn.Open(socket_path, error)) return out;
  for (const std::vector<uint8_t>& frame : frames) {
    std::vector<uint8_t> reply;
    rnnhm::Status status = rnnhm::SendFrame(conn.fd(), frame);
    if (status.ok()) status = rnnhm::RecvFrame(conn.fd(), &reply);
    if (!status.ok()) {
      *error = status.ToString();
      return out;
    }
    FrameResult r;
    std::string decode_error;
    std::optional<rnnhm::WireResponse> decoded =
        rnnhm::DecodeResponse(reply, &decode_error);
    if (decoded.has_value() && decoded->status == rnnhm::WireStatus::kOk &&
        decoded->response.has_value()) {
      r.ok = true;
      r.crest = decoded->response->stats;
      r.l2 = decoded->response->l2_stats;
      r.digest = GridDigest(decoded->response->grid);
    }
    out.push_back(r);
  }
  return out;
}

}  // namespace perfbench
