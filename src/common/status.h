// The unified result type of the serving stack.
//
// Before this existed, every layer reported failure its own way: the wire
// decoders returned nullopt + a string, the serve loop returned bool + a
// string, the engine CHECK-failed or threw, and the CLI collapsed all of
// it onto exit code 2. Status is the one currency they all trade in now:
// wire request decoders return a Status, the transport layer and
// the event-loop server return Status everywhere, HeatmapEngine grows a
// non-throwing ExecuteChecked, and the CLI maps each code to a distinct
// process exit code (ExitCodeFor) so scripts can tell a malformed request
// from a dead shard.
//
// The code set is deliberately small and transport-meaningful rather than
// a copy of any particular RPC vocabulary; WireStatus (the on-the-wire
// response status) maps into it losslessly via query/wire.h's
// FromWireStatus/ToWireStatus.
#ifndef RNNHM_COMMON_STATUS_H_
#define RNNHM_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>

namespace rnnhm {

enum class StatusCode : uint8_t {
  kOk = 0,
  /// The caller's bytes or arguments are wrong (malformed frame, bad
  /// geometry, unknown flag). Retrying the same input cannot succeed.
  kInvalidArgument = 1,
  /// A referenced entity does not exist (a by-hash circle set that was
  /// never registered, a stale handle).
  kNotFound = 2,
  /// The server failed internally (a sweep threw). The input may be fine.
  kInternal = 3,
  /// The transport is down: connect/accept/bind failed, a peer vanished,
  /// a shard connection dropped.
  kUnavailable = 4,
  /// The stream ended mid-message: a truncated frame, a short read where
  /// bytes were promised.
  kDataLoss = 5,
  /// A configured limit was hit: frame size ceiling, connection limit,
  /// queue bound.
  kResourceExhausted = 6,
  /// A deadline or idle timeout expired.
  kDeadlineExceeded = 7,
};

/// Stable lowercase name for logs and CLI diagnostics.
const char* StatusCodeName(StatusCode code);

/// A code plus a human-readable message (empty iff ok). Cheap to move;
/// construct through the named factories so call sites read as intent.
struct Status {
  StatusCode code = StatusCode::kOk;
  std::string message;

  bool ok() const { return code == StatusCode::kOk; }

  static Status Ok() { return Status{}; }
  static Status Error(StatusCode code, std::string message) {
    return Status{code, std::move(message)};
  }
  static Status InvalidArgument(std::string m) {
    return Error(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Error(StatusCode::kNotFound, std::move(m));
  }
  static Status Internal(std::string m) {
    return Error(StatusCode::kInternal, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Error(StatusCode::kUnavailable, std::move(m));
  }
  static Status DataLoss(std::string m) {
    return Error(StatusCode::kDataLoss, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Error(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status DeadlineExceeded(std::string m) {
    return Error(StatusCode::kDeadlineExceeded, std::move(m));
  }

  /// "ok" or "<code name>: <message>".
  std::string ToString() const;
};

/// The CLI's process exit code for a status. 0 for ok; each error code
/// gets its own value (kInvalidArgument=3, kNotFound=4, kInternal=5,
/// kUnavailable=6, kDataLoss=7, kResourceExhausted=8,
/// kDeadlineExceeded=9). Exit codes 1 (usage) and 2 (generic I/O or
/// verification failure) are reserved by the CLI and never returned here.
int ExitCodeFor(const Status& status);

}  // namespace rnnhm

#endif  // RNNHM_COMMON_STATUS_H_
