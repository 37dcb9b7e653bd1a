// Minimal blocking client for the bb-served wire protocol: one
// connection, newline-delimited request/reply lines.  Used by bb-client,
// bb-top, the chaos harness and the serve_mixed perfbench workload; each
// instance is single-threaded, open one Client per concurrent connection.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace bb::serve {

/// Thrown by recv_line/roundtrip when the reply deadline passes (the
/// request may still execute server-side).  A subclass of the generic
/// transport runtime_error so existing catch sites keep working, but
/// distinguishable where timeout and transport failure mean different
/// things — bb-client maps them to different exit codes.
class ClientTimeout : public std::runtime_error {
 public:
  explicit ClientTimeout(const std::string& what)
      : std::runtime_error(what) {}
};

/// Tuning for Client::request_idempotent.
struct RetryOptions {
  int attempts = 5;          ///< total tries (1 = no retry)
  int timeout_ms = 30000;    ///< per-attempt reply deadline (-1 = forever)
  int backoff_ms = 50;       ///< first retry delay
  int backoff_cap_ms = 2000; ///< exponential backoff ceiling
  std::uint64_t jitter_seed = 1;  ///< seeds the deterministic jitter stream
};

/// What request_idempotent actually did (for logs and the chaos harness).
struct RetryStats {
  int attempts = 0;  ///< connections tried (1 = first try succeeded)
};

class Client {
 public:
  /// Connects to the daemon's Unix-domain socket.  Throws
  /// std::runtime_error when the socket does not exist or refuses.
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request line (the trailing newline is added here).
  /// Throws std::runtime_error on a broken connection.
  void send_line(const std::string& line);

  /// Reads the next reply line.  `timeout_ms` < 0 waits forever.
  /// Throws std::runtime_error on EOF, error, or timeout.
  std::string recv_line(int timeout_ms = -1);

  /// send_line + recv_line.  Correct for one-request-at-a-time use;
  /// pipelined callers must match ids themselves.
  std::string roundtrip(const std::string& line, int timeout_ms = -1);

  /// Resilient request: opens a fresh connection per attempt, sends
  /// `line`, and waits up to opts.timeout_ms for the reply.  A refused
  /// connection, broken socket, or timeout triggers a capped
  /// exponential backoff (with jitter drawn from opts.jitter_seed) and
  /// a retry.  `line` MUST carry a request id — the server's
  /// idempotency key — so a retry whose original actually executed is
  /// answered with the original's reply instead of re-running.  Throws
  /// std::runtime_error after the final attempt fails.
  static std::string request_idempotent(const std::string& socket_path,
                                        const std::string& line,
                                        const RetryOptions& opts = {},
                                        RetryStats* stats = nullptr);

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes received past the last returned line
};

}  // namespace bb::serve
