// The nonblocking serving core: one event-loop thread multiplexing many
// connections, with the sweeps themselves on the HeatmapEngine's worker
// pool.
//
// Design, in one paragraph: a Poller (epoll on Linux, poll everywhere)
// reports readiness on the listener, a self-pipe wake fd, and every live
// connection. Each connection owns a FrameAssembler and an OutputBuffer
// (serve/frame_buffer.h); reads feed the assembler, and each complete
// frame goes through WireServer::StartFrame on the loop thread. Stats
// frames, cache hits and errors are answered there and then; a cache
// miss, a delta or a tile fragment becomes a job posted to the engine's
// pool (HeatmapEngine::Post), whose completion comes back through the
// wake pipe and is finished (WireServer::FinishJob) on the loop thread.
// A connection has at most one job in flight: while it is busy it stops
// reading, and the frames it already read wait in its assembler, so its
// replies stay in request order with no reorder buffer, jobs in flight
// are bounded by max_connections, and a pipelining client is held back
// by TCP backpressure. Responses queue in the output buffer to drain as
// the peer accepts them. No syscall in the loop ever blocks on a peer,
// and no sweep runs on the loop thread, so one slow peer or one cold map
// cannot stall the rest.
//
// Lifetimes: a connection whose peer hangs up while its job runs keeps
// its state (and its RegistrationScope) until the completion arrives;
// connections are keyed by a monotonic id, since the kernel reuses fds.
// Run does not return while any job can still post a completion.
//
// Shutdown protocol: RequestShutdown (safe from signal handlers and other
// threads — it only writes the wake pipe) puts the loop into lame-duck
// mode: the listener closes, in-flight connections keep being served
// until each peer closes or ServeOptions::drain_timeout_ms elapses. A
// second request stops the loop immediately (after the jobs in flight
// finish). InstallShutdownSignalHandlers wires SIGINT/SIGTERM to exactly
// that.
#ifndef RNNHM_SERVE_EVENT_LOOP_H_
#define RNNHM_SERVE_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/frame_buffer.h"
#include "serve/options.h"
#include "serve/transport.h"
#include "serve/wire_server.h"

namespace rnnhm {

/// Readiness multiplexer: epoll where available, poll as the portable
/// fallback. Move-only; single-threaded.
class Poller {
 public:
  enum class Backend { kEpoll, kPoll };

  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool broken = false;  ///< HUP or error: the fd is done
  };

  Poller() = default;
  Poller(Poller&& other) noexcept;
  Poller& operator=(Poller&& other) noexcept;
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;
  ~Poller();

  /// Builds a poller. `prefer_epoll` picks epoll when the platform has
  /// it; the poll backend is always available.
  static Status Create(bool prefer_epoll, Poller* out);

  Backend backend() const { return backend_; }

  Status Add(int fd, bool want_read, bool want_write);
  Status Modify(int fd, bool want_read, bool want_write);
  void Remove(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever) and appends ready fds to
  /// `events` (cleared first). EINTR returns kOk with no events.
  Status Wait(int timeout_ms, std::vector<Event>* events);

 private:
  Backend backend_ = Backend::kPoll;
  int epoll_fd_ = -1;
  // Poll backend state: interest set mirrored into a pollfd array per Wait.
  std::map<int, short> poll_interest_;
};

/// One serving process: accepts on a Listener, multiplexes connections,
/// executes frames on the engine's worker pool.
class EventLoopServer {
 public:
  /// Takes ownership of the bound listener. `options` supplies connection
  /// policy (max_connections, idle_timeout_ms, drain_timeout_ms,
  /// prefer_epoll); addressing fields are ignored here (the listener is
  /// already bound).
  EventLoopServer(Listener listener, HeatmapEngine& engine,
                  const ServeOptions& options);
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  /// Serves until shutdown completes. Returns kOk after a clean drain (or
  /// hard stop); an error Status if the loop infrastructure itself fails.
  /// Either way it returns only once every job it posted has completed.
  /// The calling thread becomes the loop thread and is the only one
  /// allowed to touch the loop state below.
  Status Run() RNNHM_EXCLUDES(loop_thread_);

  /// Async-signal-safe and thread-safe. First call begins the lame-duck
  /// drain; a second forces an immediate stop. Deliberately NOT a holder
  /// of `loop_thread_`: the analysis proves it cannot touch the
  /// loop-confined state — it only bumps the lock-free request counter
  /// and writes the wake pipe, both async-signal-safe.
  void RequestShutdown();

  /// The listener (valid until the drain begins); tests read the resolved
  /// port/path from here.
  const Listener& listener() const { return listener_; }

  WireStatsReply stats() const { return wire_server_.stats(); }

 private:
  struct Connection;
  // A finished job on its way back to the loop thread.
  struct Completion {
    uint64_t conn_id = 0;
    std::shared_ptr<WireServer::Job> job;
  };

  // The serve loop proper; Run wraps it with setup and teardown.
  Status Loop() RNNHM_REQUIRES(loop_thread_);
  // Closes the socket. A busy connection's state stays (fd -1) until its
  // completion arrives; an idle one is erased, releasing its scope.
  void CloseConnection(Connection& conn) RNNHM_REQUIRES(loop_thread_);
  /// Reads everything available into the connection's assembler.
  void HandleReadable(Connection& conn) RNNHM_REQUIRES(loop_thread_);
  /// Answers complete frames in order until one becomes a job (the
  /// connection is then busy) or none is left.
  void ServeFrames(Connection& conn) RNNHM_REQUIRES(loop_thread_);
  /// Writes what is queued, then closes the connection or recomputes its
  /// poller interest.
  void Settle(Connection& conn) RNNHM_REQUIRES(loop_thread_);
  /// Finishes every posted completion (waiting for all jobs in flight
  /// when `wait_all`).
  void FinishJobs(bool wait_all) RNNHM_REQUIRES(loop_thread_);
  /// Worker-thread side: queues a completion and wakes the loop.
  void PostCompletion(Completion completion) RNNHM_EXCLUDES(done_mu_);
  /// Writes one byte to the wake pipe (any thread, signal handlers too).
  void Wake();

  Listener listener_;
  HeatmapEngine& engine_;
  WireServer wire_server_;
  CircleSetRegistry* registry_;  // the engine's; scopes release into it
  const ServeOptions options_;

  /// Thread-confinement capability: held by Run for its whole body. The
  /// state below is loop-thread-only; guarding it by the role makes a
  /// cross-thread touch (e.g. from RequestShutdown or a worker's
  /// completion) a compile error instead of a latent data race.
  ThreadRole loop_thread_;
  Poller poller_ RNNHM_GUARDED_BY(loop_thread_);
  /// Every connection by id, including busy ones whose socket is closed.
  std::map<uint64_t, std::unique_ptr<Connection>> connections_
      RNNHM_GUARDED_BY(loop_thread_);
  /// Open sockets to connection ids (poller events name fds).
  std::unordered_map<int, uint64_t> ids_by_fd_ RNNHM_GUARDED_BY(loop_thread_);
  uint64_t next_conn_id_ RNNHM_GUARDED_BY(loop_thread_) = 1;
  /// Jobs posted and not yet finished (one per busy connection).
  size_t jobs_in_flight_ RNNHM_GUARDED_BY(loop_thread_) = 0;
  /// Self-pipe [read, write]: created in the constructor, closed in the
  /// destructor, never reassigned in between — the write end is safe to
  /// use from any thread or signal handler, which is the whole point.
  int wake_fds_[2] = {-1, -1};
  /// Lock-free cross-thread input: the only state RequestShutdown writes.
  std::atomic<int> shutdown_requests_{0};
  /// Completions posted by workers, finished by the loop thread.
  Mutex done_mu_;
  CondVar job_done_;
  std::deque<Completion> completions_ RNNHM_GUARDED_BY(done_mu_);
  bool draining_ RNNHM_GUARDED_BY(loop_thread_) = false;
  std::chrono::steady_clock::time_point drain_deadline_
      RNNHM_GUARDED_BY(loop_thread_){};
};

/// Points SIGINT and SIGTERM at `server->RequestShutdown()`. One server at
/// a time; pass nullptr to restore default dispositions. The handler path
/// is async-signal-safe end to end: an atomic pointer load, an atomic
/// counter bump, and a write(2) on the wake pipe. Uninstall (nullptr)
/// before destroying the server — the handler holds a raw pointer.
void InstallShutdownSignalHandlers(EventLoopServer* server);

}  // namespace rnnhm

#endif  // RNNHM_SERVE_EVENT_LOOP_H_
