// perfbench: the repository's socket-level serving benchmark.
//
//   perfbench --workload <linf_cold|l2_cold|edit_stream|hit_mix|all>
//             --seed N --seconds S --trace 0|1 --out-dir DIR [--smoke]
//
// --trace 0 prints the end-to-end metrics of one untraced run; --trace 1
// runs the workload untraced and again with client-side spans, replays the
// traced run's frames in process and prints the per-layer metrics plus the
// tracing overhead. --smoke runs every workload briefly and checks the
// counters: stats op vs generator, and per-frame sweep counters and grids
// across a second server and a server with RNNHM_DISABLE_SIMD=1.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. A full report (fingerprint, tail percentile, sample counts)
// goes to DIR/results, spans of a traced run to DIR/traces. The exit code
// is 0 only when every output verified.
//
// Internal: `perfbench --serve PATH` is the server process the benchmark
// forks.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {
namespace {

constexpr int kSetupRepetitions = 5;
constexpr size_t kTailBeyond = 10;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string out_dir = ".";
  std::string serve_path;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a->trace = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      a->out_dir = value;
    } else if (flag == "--serve") {
      a->serve_path = value;
    } else {
      return false;
    }
  }
  return a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

struct NamedValue {
  std::string name;
  double value;
  std::string unit;
};

// One finished workload: its metrics and accounting.
struct Result {
  std::string workload;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<NamedValue> metrics;
  std::vector<std::string> notes;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Threads() {
  return std::max(1, std::min(4, static_cast<int>(::sysconf(
                                     _SC_NPROCESSORS_ONLN))));
}

// End-to-end summary of one verified socket run.
struct Summary {
  double setup_s = 0;
  double p50 = 0;
  double tail = 0;
  double tail_percentile = 0;
  size_t samples = 0;
  double rps = 0;
  double ok_frac = 0;
  double failed_frac = 0;
  double rss_mb = 0;
  double cold_p50 = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

Summary Summarize(const SocketRun& run, Workload w) {
  Summary s;
  std::vector<double> primary;
  std::vector<double> cold;
  for (const OpRecord& op : run.ops) {
    ++s.attempted;
    if (!op.ok) {
      ++s.failed;
      continue;
    }
    if (op.kind == OpKind::kPrimary) primary.push_back(op.latency_ms);
    if (op.kind == OpKind::kCold) cold.push_back(op.latency_ms);
  }
  s.setup_s = Median(run.setup_s);
  s.p50 = Median(primary);
  s.tail = TailPercentile(primary, kTailBeyond, &s.tail_percentile);
  s.samples = primary.size();
  s.rps = run.measured_s > 0 ? primary.size() / run.measured_s : 0;
  s.failed_frac =
      s.attempted > 0 ? static_cast<double>(s.failed) / s.attempted : 1;
  s.ok_frac = 1 - s.failed_frac;
  s.rss_mb = run.server_rss_mb;
  switch (w) {
    case Workload::kLinfCold:
    case Workload::kL2Cold:
      s.cold_p50 = s.p50;  // every primary request is a cold map
      break;
    case Workload::kEditStream:
    case Workload::kHitMix:
      s.cold_p50 = Median(cold);
      break;
  }
  return s;
}

// Runs, verifies and summarizes one socket run; problems become notes.
SocketRun RunVerified(const SocketRunConfig& config, Result* result,
                      Summary* summary) {
  SocketRun run = RunSocket(config);
  const int mismatches = VerifyOutputs(&run, Threads());
  *summary = Summarize(run, config.workload);
  result->attempted += summary->attempted;
  result->failed += summary->failed;
  size_t verified = 0;
  for (const OpRecord& op : run.ops) verified += op.verify >= 0 ? 1 : 0;
  result->notes.push_back(
      "verification: " + std::to_string(verified) +
      " outputs bit-compared to in-process BuildHeatmapForMetric "
      "(hits to their warm-up grid), " +
      std::to_string(mismatches) + " mismatches");
  if (run.stats.has_value()) {
    result->notes.push_back(
        "stats op: requests/ok/errors " + std::to_string(run.stats->requests) +
        "/" + std::to_string(run.stats->ok) + "/" +
        std::to_string(run.stats->errors) + ", generator " +
        std::to_string(run.frames_sent + 1) + "/" +
        std::to_string(run.frames_ok + 1) + "/" +
        std::to_string(run.frames_error) + " (stats request included)");
  }
  for (const std::string& p : run.problems) result->notes.push_back(p);
  if (mismatches > 0 || summary->failed > 0 || !run.problems.empty()) {
    result->correct = false;
  }
  return run;
}

void AddEndToEnd(const Summary& s, Result* r) {
  r->metrics = {
      {"setup_s", s.setup_s, "s"},
      {"latency_ms_p50", s.p50, "ms"},
      {"latency_ms_tail", s.tail, "ms"},
      {"throughput_rps", s.rps, "1/s"},
      {"ok_frac", s.ok_frac, "fraction"},
      {"server_rss_mb", s.rss_mb, "MiB"},
      {"cold_ms_p50", s.cold_p50, "ms"},
  };
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "latency_ms_tail is p%.2f of %zu samples (%zu beyond); "
                "failed_frac %.6g",
                s.tail_percentile, s.samples, kTailBeyond, s.failed_frac);
  r->notes.push_back(buf);
}

void WriteSpans(const std::string& path, const SocketRun& run) {
  std::ofstream out(path);
  for (size_t i = 0; i < run.spans.size(); ++i) {
    const Span& s = run.spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_us\": " << Num(s.start_us)
        << ", \"end_us\": " << Num(s.end_us) << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
  }
}

Result RunWorkload(Workload w, const Args& a, const std::string& socket) {
  Result r;
  r.workload = WorkloadName(w);
  SocketRunConfig config;
  config.workload = w;
  config.seed = a.seed;
  config.seconds = a.seconds;
  config.socket_path = socket;
  if (a.trace == 0) {
    config.setups = kSetupRepetitions;
    Summary s;
    const SocketRun run = RunVerified(config, &r, &s);
    AddEndToEnd(s, &r);
    r.notes.insert(r.notes.begin(), std::to_string(s.samples) +
                                        " primary operations in " +
                                        Num(run.measured_s) + " s");
    return r;
  }

  // Traced: an untraced run, then the same run with spans and recorded
  // frames, then the in-process replay of those frames.
  Summary plain;
  RunVerified(config, &r, &plain);
  config.trace = true;
  config.record_frames = true;
  Summary traced;
  const SocketRun run = RunVerified(config, &r, &traced);
  const std::string spans_path = a.out_dir + "/traces/" + r.workload +
                                 "-seed" + std::to_string(a.seed) + ".jsonl";
  WriteSpans(spans_path, run);
  r.notes.push_back("spans: " + spans_path);
  std::vector<std::string> problems;
  std::map<std::string, double> layers =
      ReplayLayers(run, w, a.seconds, &problems);
  for (const std::string& p : problems) r.notes.push_back(p);
  if (!problems.empty()) r.correct = false;

  // Layers read from outside the replay: the server's stats op, the
  // response cache counters, the generator.
  layers["serve.event_loop.requests"] =
      run.stats.has_value() ? static_cast<double>(run.stats->requests) : 0;
  layers["serve.event_loop.errors"] =
      run.stats.has_value() ? static_cast<double>(run.stats->errors) : 0;
  rnnhm::SweepCacheStats cache;
  for (const OpRecord& op : run.ops) {
    if (op.ok && op.cache.hits + op.cache.misses >=
                     cache.hits + cache.misses) {
      cache = op.cache;
    }
  }
  layers["query.sweep_cache.hit_ratio"] =
      cache.hits + cache.misses > 0
          ? static_cast<double>(cache.hits) / (cache.hits + cache.misses)
          : 0;
  layers["nn.build_ms"] = Median(run.nn_build_ms);
  double late = 0;
  for (const OpRecord& op : run.ops) late = std::max(late, op.late_ms);
  layers["loadgen.late_ms_max"] = late;
  layers["loadgen.backlog_max"] = run.backlog_max;
  layers["trace.overhead_latency_ms_p50"] = traced.p50 - plain.p50;
  layers["trace.overhead_throughput_rps"] = plain.rps - traced.rps;

  static const std::vector<std::pair<const char*, const char*>> kUnits = {
      {"core.crest.sweep_ms", "ms"},
      {"core.crest.events", "count"},
      {"core.crest.labelings", "count"},
      {"core.crest.elements_walked", "count"},
      {"core.crest_l2.sweep_ms", "ms"},
      {"core.crest_l2.events", "count"},
      {"core.crest_l2.cross_events", "count"},
      {"core.crest_l2.labelings", "count"},
      {"heatmap.raster.self_ms", "ms"},
      {"heatmap.raster.pixels", "count"},
      {"heatmap.incremental.splice_ms", "ms"},
      {"heatmap.incremental.dirty_pixel_frac", "fraction"},
      {"heatmap.incremental.spliced_frac", "fraction"},
      {"query.registry.register_us", "us"},
      {"query.registry.apply_delta_us", "us"},
      {"query.sweep_cache.hit_ratio", "fraction"},
      {"query.sweep_cache.hit_us", "us"},
      {"query.wire.encode_request_us", "us"},
      {"query.wire.decode_request_us", "us"},
      {"query.wire.encode_response_us", "us"},
      {"query.wire.decode_response_us", "us"},
      {"query.wire.response_bytes", "bytes"},
      {"query.engine.execute_ms", "ms"},
      {"serve.wire_server.handle_frame_ms", "ms"},
      {"serve.event_loop.transport_ms", "ms"},
      {"serve.event_loop.wait_ms", "ms"},
      {"serve.event_loop.requests", "count"},
      {"serve.event_loop.errors", "count"},
      {"nn.build_ms", "ms"},
      {"loadgen.late_ms_max", "ms"},
      {"loadgen.backlog_max", "count"},
      {"trace.overhead_latency_ms_p50", "ms"},
      {"trace.overhead_throughput_rps", "1/s"},
  };
  for (const auto& [name, unit] : kUnits) {
    r.metrics.push_back({name, layers[name], unit});
  }
  return r;
}

// Compares a second server's per-frame results with the run's own.
void CompareFrames(const char* label, const SocketRun& run,
                   const std::vector<FrameResult>& replayed, Result* r) {
  size_t bad = 0;
  size_t compared = 0;
  if (replayed.size() != run.frames.size()) {
    r->notes.push_back(std::string(label) + ": replay answered " +
                       std::to_string(replayed.size()) + " of " +
                       std::to_string(run.frames.size()) + " frames");
    r->correct = false;
  }
  for (const OpRecord& op : run.ops) {
    if (op.frame >= replayed.size() || !op.answered) continue;
    const FrameResult& f = replayed[op.frame];
    ++compared;
    const bool same =
        f.ok == op.ok && f.crest.num_events == op.crest.num_events &&
        f.crest.num_labelings == op.crest.num_labelings &&
        f.l2.num_events == op.l2.num_events &&
        f.l2.num_cross_events == op.l2.num_cross_events &&
        f.l2.num_labelings == op.l2.num_labelings &&
        (!op.ok || f.digest == op.digest);
    bad += same ? 0 : 1;
  }
  r->notes.push_back(std::string(label) + ": " + std::to_string(compared) +
                     " frames compared (sweep counters and grid), " +
                     std::to_string(bad) + " differ");
  if (bad > 0) r->correct = false;
}

Result SmokeWorkload(Workload w, const Args& a, const std::string& socket) {
  Result r;
  r.workload = WorkloadName(w);
  SocketRunConfig config;
  config.workload = w;
  config.seed = a.seed;
  config.seconds = a.seconds;
  config.socket_path = socket;
  config.record_frames = true;
  Summary s;
  const SocketRun run = RunVerified(config, &r, &s);
  AddEndToEnd(s, &r);
  std::string error;
  const std::vector<FrameResult> again =
      ReplayOverSocket(run.frames, socket, /*disable_simd=*/false, &error);
  CompareFrames("repeat on a fresh server", run, again, &r);
  const std::vector<FrameResult> scalar =
      ReplayOverSocket(run.frames, socket, /*disable_simd=*/true, &error);
  CompareFrames("repeat with RNNHM_DISABLE_SIMD=1", run, scalar, &r);
  if (!error.empty()) r.notes.push_back("replay: " + error);
  std::vector<std::string> problems;
  ReplayLayers(run, w, 1.0, &problems);
  r.notes.push_back("in-process replay: " +
                    (problems.empty() ? std::string("counters repeat")
                                      : problems.front()));
  if (!problems.empty()) r.correct = false;
  return r;
}

void PrintResult(const Result& r) {
  std::printf("[%s] %s\n", r.workload.c_str(),
              r.correct ? "ok" : "FAILED");
  for (const NamedValue& m : r.metrics) {
    std::printf("  %-38s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& n : r.notes) std::printf("  # %s\n", n.c_str());
}

std::string MetricsJson(const std::vector<Result>& results, bool prefix) {
  std::string out = "{";
  bool first = true;
  for (const Result& r : results) {
    for (const NamedValue& m : r.metrics) {
      if (!first) out += ", ";
      first = false;
      const std::string name = prefix ? r.workload + "." + m.name : m.name;
      out += JsonString(name) + ": {\"value\": " + Num(m.value) +
             ", \"unit\": " + JsonString(m.unit) + "}";
    }
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W|all --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR [--smoke]\n");
    return 64;
  }
  if (!a.serve_path.empty()) return ServeMain(a.serve_path);

  std::vector<Workload> workloads;
  if (a.workload == "all" || (a.smoke && a.workload.empty())) {
    workloads = {Workload::kLinfCold, Workload::kL2Cold,
                 Workload::kEditStream, Workload::kHitMix};
  } else {
    Workload w;
    if (!ParseWorkload(a.workload, &w)) {
      std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
      return 64;
    }
    workloads = {w};
  }

  // Sockets live in a private directory under the output directory; the
  // process works from there so the socket path stays short.
  char resolved[4096];
  ::mkdir(a.out_dir.c_str(), 0755);
  if (::realpath(a.out_dir.c_str(), resolved) == nullptr) {
    std::fprintf(stderr, "cannot use output directory %s\n",
                 a.out_dir.c_str());
    return 2;
  }
  a.out_dir = resolved;
  ::mkdir((a.out_dir + "/results").c_str(), 0755);
  ::mkdir((a.out_dir + "/traces").c_str(), 0755);
  const std::string sock_dir =
      a.out_dir + "/sock-" + std::to_string(::getpid());
  if (::mkdir(sock_dir.c_str(), 0700) != 0 || ::chdir(sock_dir.c_str()) != 0) {
    std::fprintf(stderr, "cannot create %s\n", sock_dir.c_str());
    return 2;
  }

  const Fingerprint fingerprint = HostFingerprint();
  const std::string fp_json = FingerprintJson(fingerprint);
  std::printf("fingerprint %s\n", fp_json.c_str());
  std::printf("seed %llu, %g s per run, trace %d%s\n",
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace,
              a.smoke ? ", smoke" : "");
  std::fflush(stdout);

  std::vector<Result> results;
  for (const Workload w : workloads) {
    results.push_back(a.smoke ? SmokeWorkload(w, a, "srv.sock")
                              : RunWorkload(w, a, "srv.sock"));
    PrintResult(results.back());
    std::fflush(stdout);
  }
  ::chdir(a.out_dir.c_str());
  ::rmdir(sock_dir.c_str());

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Result& r : results) {
    correct &= r.correct;
    attempted += r.attempted;
    failed += r.failed;
  }
  const bool single = results.size() == 1;
  const std::string metrics = MetricsJson(results, !single);
  const std::string line =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, attempted)) +
      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": " + metrics +
      "}";

  // The full report, for `run.py compare`.
  const std::string report_path =
      a.out_dir + "/results/" + (single ? results[0].workload : "all") +
      "-seed" + std::to_string(a.seed) + "-trace" + std::to_string(a.trace) +
      (a.smoke ? "-smoke" : "") + ".json";
  std::ofstream report(report_path);
  report << "{\"workload\": " << JsonString(single ? results[0].workload : "all")
         << ", \"seed\": " << a.seed << ", \"seconds\": " << Num(a.seconds)
         << ", \"trace\": " << a.trace << ", \"fingerprint\": " << fp_json
         << ", \"result\": " << line << ", \"notes\": [";
  bool first = true;
  for (const Result& r : results) {
    for (const std::string& n : r.notes) {
      report << (first ? "" : ", ") << JsonString(r.workload + ": " + n);
      first = false;
    }
  }
  report << "]}\n";
  report.close();
  std::printf("report %s\n", report_path.c_str());
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
