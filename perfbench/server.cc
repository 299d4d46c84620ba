// The server process and the client's connections to it.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "heatmap/influence.h"
#include "perfbench.h"
#include "query/heatmap_engine.h"
#include "serve/event_loop.h"
#include "serve/options.h"
#include "serve/transport.h"

extern char** environ;

namespace perfbench {

rnnhm::HeatmapEngineOptions ServerEngineOptions() {
  const rnnhm::ServeOptions defaults;
  rnnhm::HeatmapEngineOptions options;
  options.num_threads = defaults.threads;
  options.slabs_per_request = defaults.slabs;
  options.cache_bytes = kServerCacheBytes;
  rnnhm::CircleSetRegistryOptions registry_options;
  registry_options.max_unpinned_entries = defaults.retain_sets;
  options.registry =
      std::make_shared<rnnhm::CircleSetRegistry>(registry_options);
  return options;
}

int ServeMain(const std::string& socket_path) {
  rnnhm::ServeOptions options;
  options.transport = rnnhm::TransportKind::kUnix;
  options.socket_path = socket_path;
  options.cache_bytes = kServerCacheBytes;
  rnnhm::SizeInfluence measure;
  rnnhm::HeatmapEngine engine(measure, ServerEngineOptions());
  rnnhm::Listener listener;
  rnnhm::Status status =
      rnnhm::Listener::ListenUnix(options.socket_path, &listener);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench server: %s\n", status.ToString().c_str());
    return 2;
  }
  rnnhm::EventLoopServer server(std::move(listener), engine, options);
  rnnhm::InstallShutdownSignalHandlers(&server);
  status = server.Run();
  rnnhm::InstallShutdownSignalHandlers(nullptr);
  return status.ok() ? 0 : 1;
}

bool ServerProcess::Start(const std::string& socket_path, bool disable_simd,
                          std::string* error) {
  Stop();
  socket_path_ = socket_path;
  ::unlink(socket_path.c_str());
  // Everything exec needs is built before fork: the child only execs.
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) {
    *error = "cannot resolve /proc/self/exe";
    return false;
  }
  self[n] = '\0';
  std::vector<std::string> args = {self, "--serve", socket_path};
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RNNHM_DISABLE_SIMD=", 19) == 0) continue;
    env.emplace_back(*e);
  }
  if (disable_simd) {
    env.emplace_back("RNNHM_DISABLE_SIMD=1");
  } else if (const char* v = std::getenv("RNNHM_DISABLE_SIMD")) {
    env.push_back(std::string("RNNHM_DISABLE_SIMD=") + v);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (std::string& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(3);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(4);
  }
  pid_ = pid;
  // Wait until the socket accepts connections (bind happens after exec).
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  for (;;) {
    int fd = -1;
    if (rnnhm::ConnectUnix(socket_path, &fd).ok()) {
      ::close(fd);
      return true;
    }
    int wstatus = 0;
    if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "server exited during start-up";
      return false;
    }
    if (Clock::now() > deadline) {
      *error = "server did not start listening";
      Stop();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  // SIGTERM starts the lame-duck drain, which ends at once: the benchmark
  // has already closed its connections.
  ::kill(pid_, SIGTERM);
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  int wstatus = 0;
  while (::waitpid(pid_, &wstatus, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &wstatus, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  ::unlink(socket_path_.c_str());
}

bool Connection::Open(const std::string& socket_path, std::string* error) {
  Close();
  const rnnhm::Status status = rnnhm::ConnectUnix(socket_path, &fd_);
  if (!status.ok()) {
    fd_ = -1;
    *error = status.ToString();
    return false;
  }
  return true;
}

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::optional<rnnhm::WireStatsReply> QueryStats(const std::string& socket_path,
                                                std::string* error) {
  Connection conn;
  if (!conn.Open(socket_path, error)) return std::nullopt;
  std::vector<uint8_t> reply;
  const std::vector<uint8_t> request = rnnhm::EncodeStatsRequest();
  rnnhm::Status status = rnnhm::SendFrame(conn.fd(), request);
  if (status.ok()) status = rnnhm::RecvFrame(conn.fd(), &reply);
  if (!status.ok()) {
    *error = status.ToString();
    return std::nullopt;
  }
  return rnnhm::DecodeStatsResponse(reply, error);
}

}  // namespace perfbench
