// The one place serving configuration lives.
//
// Every knob of `rnnhm_cli serve` and `rnnhm_cli route` lands in this
// struct — transport selection, socket addressing, connection policy,
// shard count, and the engine knobs each worker gets. The CLI parses its
// flags into a ServeOptions in a single function (tools/rnnhm_cli.cc,
// ParseServeFlags) and every serving path reads from here; tests and
// benches construct it directly.
#ifndef RNNHM_SERVE_OPTIONS_H_
#define RNNHM_SERVE_OPTIONS_H_

#include <cstddef>
#include <string>

namespace rnnhm {

/// Which byte transport a server (or router front) speaks.
enum class TransportKind {
  kStdio,  ///< length-prefixed frames on stdin/stdout (or --in/--out files)
  kTcp,    ///< nonblocking TCP event loop
  kUnix,   ///< nonblocking Unix-domain-socket event loop
};

/// Parses "stdio" | "tcp" | "unix"; false on anything else.
bool ParseTransportKind(const std::string& name, TransportKind* out);

const char* TransportKindName(TransportKind kind);

/// Default cap on the circle sets one connection pins, and on the
/// released sets a worker retains: retaining as many as one connection
/// may pin keeps a whole disconnected connection's sets resolvable. A
/// worker then holds at most 32 released sets plus 32 per open connection,
/// however fast it serves (a 4000-client set is 128 KiB of circles).
inline constexpr size_t kDefaultConnSets = 32;

/// Everything `serve` and `route` need, with serving defaults.
struct ServeOptions {
  // --- Transport ---------------------------------------------------------
  TransportKind transport = TransportKind::kStdio;
  /// TCP bind/connect host.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (the server prints the resolved
  /// one on stderr).
  int port = 0;
  /// Unix-domain socket path (required for kUnix).
  std::string socket_path;

  // --- Connection policy (socket transports) -----------------------------
  /// Accepted connections beyond this are closed immediately.
  int max_connections = 64;
  /// Connections with no read/write progress for this long are closed;
  /// 0 disables the timeout.
  int idle_timeout_ms = 30000;
  /// Graceful-shutdown bound: after SIGINT/SIGTERM the server stops
  /// accepting and keeps serving open connections until they close, at
  /// most this long.
  int drain_timeout_ms = 5000;
  /// Use epoll where available (Linux); false forces the portable poll
  /// backend.
  bool prefer_epoll = true;

  // --- Sharding (route) --------------------------------------------------
  /// Worker processes behind the router, one engine each.
  int num_shards = 2;
  /// Directory for the fleet's worker sockets; empty derives a
  /// per-process default under /tmp.
  std::string socket_dir;
  /// Route plain heat-map requests by *domain tile* instead of by set
  /// hash: the router decodes each plain request, fans one tile
  /// sub-request per non-empty tile window to shard `tile_id %
  /// num_shards`, and stitches the returned fragments into one response
  /// grid bit-identical to an untiled ExecuteChecked. Delta and stats frames
  /// keep their usual routing. Requires tile_rows * tile_cols >=
  /// num_shards so every shard can be given work.
  bool route_by_tile = false;
  /// Tile grid of the by-tile mode (ignored unless route_by_tile).
  int tile_rows = 1;
  int tile_cols = 1;

  // --- Engine knobs (per worker) -----------------------------------------
  int threads = 1;
  int slabs = 1;
  size_t cache_bytes = 0;

  // --- Registry retention (per worker) -----------------------------------
  /// Fully released circle sets retained unpinned (LRU) before eviction,
  /// so a reconnecting client's by-hash requests keep resolving. 0 erases
  /// sets the moment their last registration goes away (legacy behavior —
  /// with per-connection scopes that means the instant the registering
  /// connection closes). Independent of request rate by design: a fast
  /// server cycling many distinct sets retains no more than a slow one.
  size_t retain_sets = kDefaultConnSets;
  /// Registrations one connection may hold at once (inline registers and
  /// delta derivations); the oldest is released as new ones push past the
  /// cap. 0 = unbounded per connection.
  size_t max_conn_sets = kDefaultConnSets;

  // --- Stdio/file mode ---------------------------------------------------
  std::string in_path;   ///< empty = stdin
  std::string out_path;  ///< empty = stdout
};

}  // namespace rnnhm

#endif  // RNNHM_SERVE_OPTIONS_H_
