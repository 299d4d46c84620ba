// Shared declarations of the socket-level serving benchmark.
//
// The benchmark forks one EventLoopServer (this binary re-executed in
// --serve mode) on a Unix socket and drives it from this process. Four
// workloads load different layers:
//   linf_cold   closed loop, 1 client, distinct inline L-inf sets (miss)
//   l2_cold     closed loop, 1 client, distinct inline L2 sets (miss)
//   edit_stream closed loop, 1 client, chained wire-v4 delta ticks over
//               four fleets, and now and then a new fleet sent inline
//   hit_mix     open loop, 3 hit connections at a fixed rate + 1 cold L2
// Every input derives from --seed; the server only ever sees frames.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/crest.h"
#include "core/crest_l2.h"
#include "data/dataset.h"
#include "geom/geometry.h"
#include "heatmap/heatmap.h"
#include "query/circle_set_registry.h"
#include "query/heatmap_engine.h"
#include "query/wire.h"

namespace perfbench {

using rnnhm::CircleSetEdit;
using rnnhm::CircleSetSnapshot;
using rnnhm::Metric;
using rnnhm::NnCircle;
using rnnhm::Point;
using rnnhm::Rect;

// The one cache budget every workload's server runs with: 27 grids of
// 192^2, small enough that every workload fills it early in a run, so the
// server's peak RSS does not grow with throughput.
inline constexpr size_t kServerCacheBytes = 8u << 20;

enum class Workload { kLinfCold, kL2Cold, kEditStream, kHitMix };

const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);

// ---- Clock -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- Inputs ------------------------------------------------------------------

// One raster request geometry over a set population.
struct Shape {
  rnnhm::DatasetKind dataset;
  size_t clients;
  size_t facilities;
  Metric metric;
  Rect domain;
  int raster;
};

// A generated circle set plus what generating it cost (nn.build_ms).
struct GeneratedSet {
  std::shared_ptr<const CircleSetSnapshot> set;
  double nn_build_ms = 0;
};

// The moving population of edit_stream: clients hop, facilities stay.
struct EditPopulation {
  std::vector<Point> clients;
  std::vector<Point> facilities;
  std::vector<NnCircle> circles;
};

// Derives every set, edit script and schedule of one workload from the
// seed. Independent streams (cold sets, hot sets, edits, schedule) use
// independently mixed sub-seeds, so adding draws to one never shifts
// another.
class InputGen {
 public:
  InputGen(Workload workload, uint64_t seed);

  // Geometry of the primary request (cold map, edit tick, hit).
  const Shape& shape() const { return shape_; }
  // Geometry of the cold maps: the primary shape, except for hit_mix's
  // interleaved cold requests.
  const Shape& cold_shape() const { return cold_shape_; }

  // The i-th distinct cold set of the workload.
  GeneratedSet ColdSet(uint64_t i) const;
  // The i-th hot set of hit_mix.
  GeneratedSet HotSet(uint64_t i) const;
  // The starting population of edit_stream's fleet `fleet`.
  EditPopulation BasePopulation(int fleet, double* nn_build_ms) const;
  // Applies tick `t`'s hops to `pop` and returns the wire edits.
  std::vector<CircleSetEdit> NextTick(uint64_t t, EditPopulation* pop) const;
  // hit_mix: which hot set the i-th hit asks for, and the phase of each
  // request stream as a fraction of its period, in [0, 1).
  int HotIndexForHit(uint64_t i) const;
  double StreamPhase(int stream) const;

  static constexpr int kHotSets = 4;
  // edit_stream's fleets, ticking round-robin on one connection: several
  // populations per run keep one unlucky population from setting a run's
  // figures.
  static constexpr int kFleets = 4;

 private:
  GeneratedSet MakeSet(const Shape& shape, uint64_t stream,
                       uint64_t index) const;

  uint64_t seed_;
  Shape shape_;
  Shape cold_shape_;
  rnnhm::Dataset pool_;
};

// 64-bit FNV-1a of a grid's dimensions and raw doubles: two grids share a
// digest iff they are bit-identical (up to a 2^-64 collision).
uint64_t GridDigest(const rnnhm::HeatmapGrid& grid);

// ---- Server process --------------------------------------------------------

// The engine options `rnnhm_cli serve` derives from ServeOptions
// defaults with the benchmark's cache budget: the forked server and the
// in-process replay both use them.
rnnhm::HeatmapEngineOptions ServerEngineOptions();

// The --serve mode entry point: serves on a Unix socket with those
// options until SIGTERM.
int ServeMain(const std::string& socket_path);

// A forked server (this binary re-executed in --serve mode). The
// destructor stops it (SIGTERM, then SIGKILL after a grace period) and
// reaps it, so no path leaves a server behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  // Forks and execs the server on `socket_path`, then waits until the
  // socket accepts connections. `disable_simd` sets RNNHM_DISABLE_SIMD=1
  // in the server's environment.
  bool Start(const std::string& socket_path, bool disable_simd,
             std::string* error);
  // Peak resident set (VmHWM) of the server so far, in MiB; 0 if unknown.
  double PeakRssMb() const;
  void Stop();

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
};

// Blocking client connection (one per stream).
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { Close(); }
  bool Open(const std::string& socket_path, std::string* error);
  void Close();
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

// Sends a stats request on a fresh connection.
std::optional<rnnhm::WireStatsReply> QueryStats(const std::string& socket_path,
                                                std::string* error);

// ---- Socket runs -------------------------------------------------------------

enum class OpKind : uint8_t {
  kWarm,     // setup: registration / warm-up request
  kPrimary,  // the workload's measured operation
  kCold,     // a cold map interleaved with hit_mix's hits or
             // edit_stream's ticks
};

// One request of a socket run, as the client saw it.
struct OpRecord {
  OpKind kind = OpKind::kPrimary;
  uint32_t frame = 0;        // index into SocketRun::frames (send order)
  double latency_ms = 0;     // encode start (closed) or due time (open) ->
                             // decoded response
  double rtt_ms = 0;         // frame sent -> response frame received
  double late_ms = 0;        // open loop: send time minus due time
  bool answered = false;
  bool ok = false;           // status kOk and the output verified
  uint64_t digest = 0;
  int verify = -1;           // index into SocketRun::expect (-1: none)
  rnnhm::CrestStats crest;
  rnnhm::CrestL2Stats l2;
  rnnhm::SweepCacheStats cache;
};

// A set the output of some ops must equal (verified after the run). An
// edit tick carries no set, only its edits: its set is the previous set
// of the same `chain` with `edits` applied, rebuilt at verification time
// so a run never holds one set copy per tick.
struct Expectation {
  std::shared_ptr<const CircleSetSnapshot> set;
  Rect domain;
  int raster = 0;
  int chain = -1;
  std::vector<CircleSetEdit> edits;
};

// Client-side span of the traced socket run.
struct Span {
  const char* name;
  double start_us;
  double end_us;
  int32_t parent;  // index into the span list, -1 for a root
  uint32_t request;
};

struct SocketRunConfig {
  Workload workload;
  uint64_t seed = 0;
  double seconds = 1;
  bool record_frames = false;  // keep every request frame (replay/smoke)
  bool trace = false;          // record client-side spans
  int setups = 1;              // set-up repetitions (median -> setup_s)
  std::string socket_path;
};

struct SocketRun {
  std::vector<double> setup_s;      // one per set-up repetition
  std::vector<double> nn_build_ms;  // one per generated set
  std::vector<OpRecord> ops;
  std::vector<Expectation> expect;
  std::vector<std::vector<uint8_t>> frames;  // when record_frames
  std::vector<OpKind> frame_kinds;
  std::vector<Span> spans;                   // when trace
  double measured_s = 0;
  double server_rss_mb = 0;
  double backlog_max = 0;
  // Generator-side tallies of every frame sent to the measured server,
  // for the stats-op cross-check.
  uint64_t frames_sent = 0;
  uint64_t frames_ok = 0;
  uint64_t frames_error = 0;
  std::optional<rnnhm::WireStatsReply> stats;
  std::vector<std::string> problems;  // failures that are not per-op
};

// Runs set-up (config.setups times) and the measured phase against a
// freshly forked server. Never throws; transport trouble lands in
// `problems` or as unanswered ops.
SocketRun RunSocket(const SocketRunConfig& config);

// Computes every expectation's digest in parallel (at most `threads`),
// marks ops whose digest differs as not ok, and returns the mismatch count.
int VerifyOutputs(SocketRun* run, int threads);

// One response of ReplayOverSocket: its sweep counters and grid digest
// (`ok` false for an error response).
struct FrameResult {
  bool ok = false;
  rnnhm::CrestStats crest;
  rnnhm::CrestL2Stats l2;
  uint64_t digest = 0;
};
// Sends `frames` in order over one connection to a fresh server; stops
// at the first transport failure (with `*error` set).
std::vector<FrameResult> ReplayOverSocket(
    const std::vector<std::vector<uint8_t>>& frames,
    const std::string& socket_path, bool disable_simd, std::string* error);

// ---- In-process replay ---------------------------------------------------------

// Per-layer numbers from replaying a traced run's frames through the call
// chain WireServer::HandleFrame makes, plus sweep-only and splice calls.
std::map<std::string, double> ReplayLayers(const SocketRun& run,
                                           Workload workload,
                                           double budget_s,
                                           std::vector<std::string>* problems);

// ---- Statistics and reporting -------------------------------------------------

double Median(std::vector<double> values);
// The highest percentile with at least `beyond` samples above it: returns
// the value and writes the percentile (0-100) it stands for.
double TailPercentile(std::vector<double> values, size_t beyond,
                      double* percentile);

struct Fingerprint {
  int nproc = 0;
  std::string raster_backend;
  std::string compiler;
  std::string build_type;
  bool simd_disabled = false;
};
Fingerprint HostFingerprint();
std::string FingerprintJson(const Fingerprint& f);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
