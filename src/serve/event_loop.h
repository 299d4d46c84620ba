// The nonblocking serving core: a single-threaded event loop multiplexing
// many connections over one HeatmapEngine.
//
// Design, in one paragraph: a Poller (epoll on Linux, poll everywhere)
// reports readiness on the listener, a self-pipe wake fd, and every live
// connection. Each connection owns a FrameAssembler and an OutputBuffer
// (serve/frame_buffer.h); reads feed the assembler, complete frames run
// through WireServer::HandleFrame, and responses queue in the output
// buffer to drain as the peer accepts them. No syscall in the loop ever
// blocks on a peer, so one slow or half-delivered connection cannot stall
// the rest.
//
// Shutdown protocol: RequestShutdown (safe from signal handlers and other
// threads — it only writes the wake pipe) puts the loop into lame-duck
// mode: the listener closes, in-flight connections keep being served
// until each peer closes or ServeOptions::drain_timeout_ms elapses. A
// second request stops the loop immediately. InstallShutdownSignalHandlers
// wires SIGINT/SIGTERM to exactly that.
#ifndef RNNHM_SERVE_EVENT_LOOP_H_
#define RNNHM_SERVE_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
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
/// executes frames on the engine behind `server`.
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
  /// Single-threaded: the calling thread becomes the loop thread and is
  /// the only one allowed to touch the loop state below.
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

  void CloseConnection(int fd) RNNHM_REQUIRES(loop_thread_);
  /// Reads everything available, runs complete frames, queues responses.
  void HandleReadable(int fd, Connection& conn)
      RNNHM_REQUIRES(loop_thread_);
  /// Recomputes poller interest from connection state.
  void UpdateInterest(int fd, Connection& conn)
      RNNHM_REQUIRES(loop_thread_);

  Listener listener_;
  WireServer wire_server_;
  CircleSetRegistry* registry_;  // the engine's; scopes release into it
  const ServeOptions options_;

  /// Thread-confinement capability: held by Run for its whole body. The
  /// state below is loop-thread-only; guarding it by the role makes a
  /// cross-thread touch (e.g. from RequestShutdown or a signal-handler
  /// path) a compile error instead of a latent data race.
  ThreadRole loop_thread_;
  Poller poller_ RNNHM_GUARDED_BY(loop_thread_);
  std::map<int, std::unique_ptr<Connection>> connections_
      RNNHM_GUARDED_BY(loop_thread_);
  /// Self-pipe [read, write]: created in the constructor, closed in the
  /// destructor, never reassigned in between — the write end is safe to
  /// use from any thread or signal handler, which is the whole point.
  int wake_fds_[2] = {-1, -1};
  /// Lock-free cross-thread input: the only state RequestShutdown writes.
  std::atomic<int> shutdown_requests_{0};
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
