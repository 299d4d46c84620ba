// The transport-agnostic serving surface: one frame in, one frame out.
//
// WireServer owns the request semantics of the wire protocol — decode,
// registry interaction, engine execution, stats — with zero knowledge of
// where bytes come from. A frame is served in up to three steps:
//   * StartFrame (the caller's thread): decode, resolve the set, probe
//     the result cache. Stats frames, cache hits and errors are answered
//     right here; a cache miss, a delta or a tile fragment comes back as
//     a Job instead.
//   * RunJob (any thread): the engine work and the reply encoding.
//   * FinishJob (the StartFrame thread again): counters, the delta's
//     derived registration, and the reply bytes.
// Two transports drive it:
//   * ServeStream(ByteSource, ByteSink) — the blocking loop (stdio,
//     files via FileByteSource/FileByteSink, in-memory tests), which
//     runs every job inline through HandleFrame;
//   * EventLoopServer (serve/event_loop.h) — the nonblocking socket
//     server, which reassembles frames itself (serve/frame_buffer.h) and
//     runs jobs on the engine's worker pool. Both transports take the
//     same steps, so they answer byte-identically.
//
// Serving never fails: every input byte string maps to exactly one
// response payload (ok, error-status, or stats), so transports need no
// error protocol of their own — transport-level failures (truncated
// stream, dead peer) are the only thing they report, as Status.
#ifndef RNNHM_SERVE_WIRE_SERVER_H_
#define RNNHM_SERVE_WIRE_SERVER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "query/wire.h"
#include "serve/byte_stream.h"

namespace rnnhm {

/// Executes wire frames against a HeatmapEngine. StartFrame, FinishJob,
/// HandleFrame, ServeStream and stats() belong to one thread (the serving
/// loop's); RunJob may run on any thread, concurrently with them — it
/// reads nothing of the WireServer but the engine. The engine behind it
/// may be shared.
class WireServer {
 public:
  /// A frame's off-thread work: a cache miss, a delta or a tile fragment,
  /// with its circle set pinned. Opaque to transports, which only carry
  /// it from StartFrame through RunJob to FinishJob.
  struct Job;

  /// What StartFrame made of a frame: the reply itself, or (when `job` is
  /// set) the job whose FinishJob yields it.
  struct Step {
    std::vector<uint8_t> reply;
    std::shared_ptr<Job> job;
  };

  explicit WireServer(HeatmapEngine& engine) : engine_(engine) {}

  /// Serves one request frame payload, returning the response payload:
  /// StartFrame, then RunJob and FinishJob inline when it made a job.
  /// Heat-map requests probe the result cache and sweep on a miss (inline
  /// sets register into the engine's registry first); delta requests
  /// derive a new set from a registered base and run through
  /// ExecuteDeltaChecked; tile requests compute one fragment of the tiled
  /// decomposition through ExecuteTileFragmentChecked; stats requests
  /// return this server's counters; anything malformed returns an
  /// error-status response. Total: every input produces one response.
  ///
  /// `scope`, when non-null, takes ownership of the registration bumps
  /// this frame performs (inline registers and delta derivations), so a
  /// transport that owns the scope — EventLoopServer keeps one per
  /// connection — releases them on disconnect. With a null scope the
  /// registrations persist for the engine's lifetime (the stream
  /// behavior: later by-reference requests depend on them).
  std::vector<uint8_t> HandleFrame(std::span<const uint8_t> frame,
                                   RegistrationScope* scope = nullptr);

  /// The caller-thread first step of HandleFrame: decodes `frame`,
  /// resolves (and, for inline sets, registers into `scope`) its circle
  /// set and probes the cache. Returns the reply for a stats frame, a
  /// cache hit or any error; otherwise the job that must pass through
  /// RunJob and then FinishJob, with the same `scope`.
  Step StartFrame(std::span<const uint8_t> frame, RegistrationScope* scope);

  /// The engine work of `job` plus its reply encoding. Safe on any
  /// thread while the StartFrame thread keeps serving other frames.
  void RunJob(Job& job) const;

  /// The last step, on the StartFrame thread: counts the outcome, hands a
  /// delta's derived registration to `scope`, and returns the reply.
  std::vector<uint8_t> FinishJob(Job& job, RegistrationScope* scope);

  /// The blocking serve loop: drains frames from `in` until end of
  /// stream, answering each on `out` in order. Returns kOk on clean EOF;
  /// kDataLoss on a stream truncated mid-frame; kResourceExhausted on an
  /// oversized frame prefix; kUnavailable when the sink fails.
  Status ServeStream(ByteSource& in, ByteSink& out);

  /// Counters since construction, exactly as the stats op reports them:
  /// `shards` is 1 and `sets_evicted` is read from the engine's registry.
  WireStatsReply stats() const;

 private:
  // Resolves the circle set a frame names to a live handle and pins its
  // snapshot with the frame's geometry, after the pixel-ceiling check: an
  // inline payload registers (the bump tracked in `scope`); a by-hash
  // reference must find a set whose content really hashes to the
  // asked-for value; either way the set's metric must match the frame's.
  // `delta_base` selects the delta op's error wording.
  Status ResolveSet(WireRequest& request, bool delta_base,
                    RegistrationScope* scope, CircleSetHandle* handle,
                    PinnedHeatmapRequest* pinned);

  HeatmapEngine& engine_;
  // Every served counter, bumped as each reply leaves FinishJob (or
  // StartFrame), so a stats reply never counts a request whose reply is
  // still being computed; `shards` and `sets_evicted` are filled in by
  // stats().
  WireStatsReply counters_;
};

}  // namespace rnnhm

#endif  // RNNHM_SERVE_WIRE_SERVER_H_
