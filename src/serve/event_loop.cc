#include "serve/event_loop.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#if defined(__linux__)
#include <sys/epoll.h>
#define RNNHM_HAVE_EPOLL 1
#endif

namespace rnnhm {

// --- Poller ---------------------------------------------------------------

Poller::Poller(Poller&& other) noexcept
    : backend_(other.backend_),
      epoll_fd_(std::exchange(other.epoll_fd_, -1)),
      poll_interest_(std::move(other.poll_interest_)) {
  other.poll_interest_.clear();
}

Poller& Poller::operator=(Poller&& other) noexcept {
  if (this != &other) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    backend_ = other.backend_;
    epoll_fd_ = std::exchange(other.epoll_fd_, -1);
    poll_interest_ = std::move(other.poll_interest_);
    other.poll_interest_.clear();
  }
  return *this;
}

Poller::~Poller() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status Poller::Create(bool prefer_epoll, Poller* out) {
  Poller poller;
#if RNNHM_HAVE_EPOLL
  if (prefer_epoll) {
    const int fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (fd < 0) {
      return Status::Unavailable(std::string("epoll_create1: ") +
                                 std::strerror(errno));
    }
    poller.backend_ = Backend::kEpoll;
    poller.epoll_fd_ = fd;
    *out = std::move(poller);
    return Status::Ok();
  }
#else
  (void)prefer_epoll;
#endif
  poller.backend_ = Backend::kPoll;
  *out = std::move(poller);
  return Status::Ok();
}

namespace {

short PollMask(bool want_read, bool want_write) {
  short mask = 0;
  if (want_read) mask |= POLLIN;
  if (want_write) mask |= POLLOUT;
  return mask;
}

#if RNNHM_HAVE_EPOLL
uint32_t EpollMask(bool want_read, bool want_write) {
  uint32_t mask = 0;
  if (want_read) mask |= EPOLLIN;
  if (want_write) mask |= EPOLLOUT;
  return mask;
}
#endif

}  // namespace

Status Poller::Add(int fd, bool want_read, bool want_write) {
#if RNNHM_HAVE_EPOLL
  if (backend_ == Backend::kEpoll) {
    epoll_event ev{};
    ev.events = EpollMask(want_read, want_write);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      return Status::Unavailable(std::string("epoll_ctl add: ") +
                                 std::strerror(errno));
    }
    return Status::Ok();
  }
#endif
  poll_interest_[fd] = PollMask(want_read, want_write);
  return Status::Ok();
}

Status Poller::Modify(int fd, bool want_read, bool want_write) {
#if RNNHM_HAVE_EPOLL
  if (backend_ == Backend::kEpoll) {
    epoll_event ev{};
    ev.events = EpollMask(want_read, want_write);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
      return Status::Unavailable(std::string("epoll_ctl mod: ") +
                                 std::strerror(errno));
    }
    return Status::Ok();
  }
#endif
  poll_interest_[fd] = PollMask(want_read, want_write);
  return Status::Ok();
}

void Poller::Remove(int fd) {
#if RNNHM_HAVE_EPOLL
  if (backend_ == Backend::kEpoll) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    return;
  }
#endif
  poll_interest_.erase(fd);
}

Status Poller::Wait(int timeout_ms, std::vector<Event>* events) {
  events->clear();
#if RNNHM_HAVE_EPOLL
  if (backend_ == Backend::kEpoll) {
    epoll_event ready[64];
    const int n = ::epoll_wait(epoll_fd_, ready, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return Status::Ok();
      return Status::Unavailable(std::string("epoll_wait: ") +
                                 std::strerror(errno));
    }
    for (int i = 0; i < n; ++i) {
      Event event;
      event.fd = ready[i].data.fd;
      event.readable = (ready[i].events & EPOLLIN) != 0;
      event.writable = (ready[i].events & EPOLLOUT) != 0;
      event.broken = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      events->push_back(event);
    }
    return Status::Ok();
  }
#endif
  std::vector<pollfd> fds;
  fds.reserve(poll_interest_.size());
  for (const auto& [fd, mask] : poll_interest_) {
    fds.push_back(pollfd{fd, mask, 0});
  }
  const int n = ::poll(fds.data(), fds.size(), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return Status::Ok();
    return Status::Unavailable(std::string("poll: ") + std::strerror(errno));
  }
  for (const pollfd& pfd : fds) {
    if (pfd.revents == 0) continue;
    Event event;
    event.fd = pfd.fd;
    event.readable = (pfd.revents & POLLIN) != 0;
    event.writable = (pfd.revents & POLLOUT) != 0;
    event.broken = (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    events->push_back(event);
  }
  return Status::Ok();
}

// --- EventLoopServer ------------------------------------------------------

struct EventLoopServer::Connection {
  Connection(uint64_t conn_id, int conn_fd, size_t max_payload,
             CircleSetRegistry* registry, size_t max_conn_sets)
      : id(conn_id),
        fd(conn_fd),
        assembler(max_payload),
        scope(registry, max_conn_sets) {}

  const uint64_t id;
  int fd;  // -1 once the socket is closed while a job still runs
  FrameAssembler assembler;
  // Registrations this connection owns (inline sets, delta derivations);
  // released when the connection closes — the destructor runs as the
  // connection leaves the map — so one client cannot pin sets forever.
  RegistrationScope scope;
  OutputBuffer output;
  std::chrono::steady_clock::time_point last_activity;
  bool peer_done = false;  // read side saw EOF or poison: close once drained
  bool busy = false;       // a job of this connection is on the pool
};

EventLoopServer::EventLoopServer(Listener listener, HeatmapEngine& engine,
                                 const ServeOptions& options)
    : listener_(std::move(listener)),
      engine_(engine),
      wire_server_(engine),
      registry_(&engine.registry()),
      options_(options) {
  if (::pipe(wake_fds_) == 0) {
    MakeNonblocking(wake_fds_[0]);
    MakeNonblocking(wake_fds_[1]);
  } else {
    wake_fds_[0] = wake_fds_[1] = -1;
  }
}

EventLoopServer::~EventLoopServer() {
  // Run has returned (or never ran), so no job can still post here.
  for (auto& [id, conn] : connections_) {
    (void)id;
    if (conn->fd >= 0) ::close(conn->fd);
  }
  connections_.clear();
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

void EventLoopServer::Wake() {
  if (wake_fds_[1] >= 0) {
    const uint8_t byte = 1;
    // Best effort: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
}

void EventLoopServer::RequestShutdown() {
  // Async-signal-safety audit: fetch_add on a lock-free atomic and
  // write(2) are both on the signal-safety(7) list; nothing here touches
  // the loop-confined state (the analysis enforces that — this method
  // does not hold loop_thread_).
  static_assert(std::atomic<int>::is_always_lock_free,
                "RequestShutdown must stay async-signal-safe");
  shutdown_requests_.fetch_add(1, std::memory_order_relaxed);
  Wake();
}

void EventLoopServer::PostCompletion(Completion completion) {
  // Wake and notify under the lock: once the loop thread has taken this
  // completion (under the same lock), this thread touches nothing of the
  // server again, so Run may return and the server be destroyed.
  MutexLock lock(&done_mu_);
  completions_.push_back(std::move(completion));
  Wake();
  job_done_.NotifyOne();
}

void EventLoopServer::CloseConnection(Connection& conn) {
  if (conn.fd >= 0) {
    poller_.Remove(conn.fd);
    ::close(conn.fd);
    ids_by_fd_.erase(conn.fd);
    conn.fd = -1;
  }
  if (!conn.busy) connections_.erase(conn.id);
}

void EventLoopServer::HandleReadable(Connection& conn) {
  uint8_t chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.last_activity = std::chrono::steady_clock::now();
      conn.assembler.Feed(
          std::span<const uint8_t>(chunk, static_cast<size_t>(n)));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF: serve what we have, then close once the responses are flushed.
    // A hard connection error ends the same way (the writes will fail).
    conn.peer_done = true;
    break;
  }
}

void EventLoopServer::ServeFrames(Connection& conn) {
  while (!conn.busy) {
    std::optional<std::vector<uint8_t>> frame = conn.assembler.Next();
    if (!frame.has_value()) break;
    WireServer::Step step = wire_server_.StartFrame(*frame, &conn.scope);
    if (step.job == nullptr) {
      conn.output.AppendFrame(step.reply);
      continue;
    }
    conn.busy = true;
    ++jobs_in_flight_;
    engine_.Post(HeatmapEngine::Task{
        [this, job = step.job] { wire_server_.RunJob(*job); },
        [this, completion = Completion{conn.id, step.job}] {
          PostCompletion(completion);
        }});
  }
  if (!conn.busy && conn.assembler.poisoned() && !conn.peer_done) {
    // The framing is unrecoverable: answer with the protocol error (after
    // the replies to every frame before it) and hang up once it drains.
    const Status& status = conn.assembler.status();
    conn.output.AppendFrame(
        EncodeErrorResponse(ToWireStatus(status.code), status.message));
    conn.peer_done = true;
  }
}

void EventLoopServer::Settle(Connection& conn) {
  if (!conn.output.empty()) {
    const std::ptrdiff_t n = conn.output.WriteSome(conn.fd);
    if (n < 0) {
      CloseConnection(conn);
      return;
    }
    if (n > 0) conn.last_activity = std::chrono::steady_clock::now();
  }
  if (conn.peer_done && !conn.busy && conn.output.empty()) {
    CloseConnection(conn);
    return;
  }
  poller_.Modify(conn.fd, !conn.peer_done && !conn.busy,
                 !conn.output.empty());
}

void EventLoopServer::FinishJobs(bool wait_all) {
  std::deque<Completion> done;
  {
    MutexLock lock(&done_mu_);
    while (wait_all && completions_.size() < jobs_in_flight_) {
      job_done_.Wait(done_mu_);
    }
    done.swap(completions_);
  }
  for (Completion& completion : done) {
    --jobs_in_flight_;
    const auto it = connections_.find(completion.conn_id);
    Connection& conn = *it->second;
    conn.busy = false;
    const std::vector<uint8_t> reply =
        wire_server_.FinishJob(*completion.job, &conn.scope);
    if (conn.fd < 0) {
      // The peer left while the job ran: the scope releases everything
      // now, a delta's derived set included.
      connections_.erase(it);
      continue;
    }
    if (wait_all) continue;  // shutting down: no new jobs, no writes
    conn.output.AppendFrame(reply);
    conn.last_activity = std::chrono::steady_clock::now();
    ServeFrames(conn);
    Settle(conn);
  }
}

Status EventLoopServer::Run() {
  // The calling thread becomes the loop thread: it holds the confinement
  // role for the whole serve loop, licensing every touch of the guarded
  // loop state (connections_, poller_, draining_, drain_deadline_).
  ThreadRoleGuard loop(&loop_thread_);
  if (!listener_.valid()) {
    return Status::InvalidArgument("event loop needs a bound listener");
  }
  if (wake_fds_[0] < 0) {
    return Status::Unavailable("failed to create the shutdown wake pipe");
  }
  if (const Status status = Poller::Create(options_.prefer_epoll, &poller_);
      !status.ok()) {
    return status;
  }
  if (const Status status = poller_.Add(wake_fds_[0], true, false);
      !status.ok()) {
    return status;
  }
  if (const Status status = poller_.Add(listener_.fd(), true, false);
      !status.ok()) {
    return status;
  }
  const Status status = Loop();
  // Jobs still on the pool post their completion here: finish every one
  // before closing what is left (hard stop, drain bound or loop failure).
  FinishJobs(/*wait_all=*/true);
  while (!connections_.empty()) CloseConnection(*connections_.begin()->second);
  listener_.Close();
  return status;
}

Status EventLoopServer::Loop() {
  const auto idle_limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<Poller::Event> events;
  for (;;) {
    // Shutdown bookkeeping first, so a request observed between waits is
    // honored before blocking again.
    const int requests = shutdown_requests_.load(std::memory_order_relaxed);
    if (requests >= 2) return Status::Ok();  // hard stop
    if (requests >= 1 && !draining_) {
      draining_ = true;
      poller_.Remove(listener_.fd());
      listener_.Close();
      drain_deadline_ = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
    }
    // Clean drain: busy connections stay in the map until their job ends.
    if (draining_ && connections_.empty()) return Status::Ok();

    // The wait bound: the nearest of the drain deadline and any idle
    // deadline; -1 (forever) when neither applies.
    const auto now = std::chrono::steady_clock::now();
    int timeout_ms = -1;
    auto bound_timeout = [&timeout_ms,
                          now](std::chrono::steady_clock::time_point dl) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(dl - now)
              .count();
      const int ms = remaining < 0 ? 0 : static_cast<int>(
                                             std::min<long long>(
                                                 remaining, 60 * 1000));
      if (timeout_ms < 0 || ms < timeout_ms) timeout_ms = ms;
    };
    if (draining_) {
      if (now >= drain_deadline_) return Status::Ok();  // drain bound
      bound_timeout(drain_deadline_);
    }
    if (options_.idle_timeout_ms > 0) {
      for (const auto& [id, conn] : connections_) {
        (void)id;
        if (!conn->busy) bound_timeout(conn->last_activity + idle_limit);
      }
    }

    if (const Status status = poller_.Wait(timeout_ms, &events);
        !status.ok()) {
      return status;
    }

    for (const Poller::Event& event : events) {
      if (event.fd == wake_fds_[0]) {
        uint8_t drain[64];
        while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
        }
        // Shutdown counters are re-read at the top of the loop.
        FinishJobs(/*wait_all=*/false);
        continue;
      }
      if (event.fd == listener_.fd() && listener_.valid()) {
        for (;;) {
          int client_fd = -1;
          const Status status = listener_.Accept(&client_fd);
          if (!status.ok()) break;  // would-block or transient error
          if (draining_ ||
              connections_.size() >=
                  static_cast<size_t>(options_.max_connections)) {
            ::close(client_fd);
            continue;
          }
          if (!poller_.Add(client_fd, true, false).ok()) {
            ::close(client_fd);
            continue;
          }
          const uint64_t id = next_conn_id_++;
          auto conn = std::make_unique<Connection>(
              id, client_fd, kMaxFramePayloadBytes, registry_,
              options_.max_conn_sets);
          conn->last_activity = std::chrono::steady_clock::now();
          connections_.emplace(id, std::move(conn));
          ids_by_fd_.emplace(client_fd, id);
        }
        continue;
      }
      const auto id = ids_by_fd_.find(event.fd);
      if (id == ids_by_fd_.end()) continue;
      Connection& conn = *connections_.at(id->second);
      if (event.readable || event.broken) HandleReadable(conn);
      if (event.broken && conn.busy) {
        // Hung up mid-job: nothing can be delivered, and a broken fd would
        // keep reporting. Close it; the state waits for the completion.
        CloseConnection(conn);
        continue;
      }
      ServeFrames(conn);
      Settle(conn);
    }

    // Idle sweep; a busy connection is waiting on the server, not idle.
    if (options_.idle_timeout_ms > 0) {
      const auto cutoff = std::chrono::steady_clock::now() - idle_limit;
      std::vector<Connection*> stale;
      for (const auto& [id, conn] : connections_) {
        (void)id;
        if (!conn->busy && conn->last_activity <= cutoff) {
          stale.push_back(conn.get());
        }
      }
      for (Connection* conn : stale) CloseConnection(*conn);
    }
  }
}

// --- Signal wiring --------------------------------------------------------

namespace {

// Signal-handler target. Audit (see also RequestShutdown): the handler
// performs one relaxed atomic pointer load and calls RequestShutdown,
// whose body is an atomic increment plus a pipe write — every step is
// async-signal-safe. The pointer is only as alive as the caller keeps
// it: InstallShutdownSignalHandlers(nullptr) must run before the server
// is destroyed.
std::atomic<EventLoopServer*> g_signal_server{nullptr};
static_assert(std::atomic<EventLoopServer*>::is_always_lock_free,
              "signal handler must not take a lock to load the target");

void ShutdownSignalHandler(int /*signum*/) {
  EventLoopServer* server = g_signal_server.load(std::memory_order_relaxed);
  if (server != nullptr) server->RequestShutdown();
}

}  // namespace

void InstallShutdownSignalHandlers(EventLoopServer* server) {
  g_signal_server.store(server, std::memory_order_relaxed);
  struct sigaction action{};
  if (server != nullptr) {
    action.sa_handler = ShutdownSignalHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: the loop re-checks on EINTR
  } else {
    action.sa_handler = SIG_DFL;
  }
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

}  // namespace rnnhm
