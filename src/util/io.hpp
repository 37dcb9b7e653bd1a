// Small file-system and file-descriptor helpers shared by the service
// tier, the benchmark runners and the tool binaries.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include <poll.h>
#include <sys/types.h>

namespace bb::util {

/// Reads the whole of `path` as bytes.  nullopt when the file cannot be
/// opened (missing, permissions, a racing delete) or the read fails.
std::optional<std::string> read_file(const std::string& path);

/// Writes `content` to `path` atomically and durably: the data goes to a
/// sibling temporary file first, is fsync'd, and is renamed over the
/// target only after a successful write+close; the parent directory is
/// then fsync'd so the rename itself survives a crash (a rename that
/// only lives in the directory's page cache can be lost on power
/// failure, resurrecting the old file or no file at all — see
/// DESIGN.md §15).  Neither an interrupted run nor a crash right after
/// the rename can leave a truncated artifact behind (CI uploads these
/// files directly and the disk cache trusts any file it finds to be
/// complete).  Throws std::runtime_error when the temporary cannot be
/// written or the rename fails.
///
/// Failpoints (util/failpoint.hpp): io.wfa.open, io.wfa.write (error and
/// short-write), io.wfa.fsync, io.wfa.rename inject errors; the crash
/// sites io.wfa.crash_before_rename / io.wfa.crash_after_rename bracket
/// the publication step for crash-consistency testing.
void write_file_atomic(const std::string& path, const std::string& content);

// ---- EINTR-retrying descriptor wrappers ----
//
// Every blocking descriptor call in the service path goes through these
// (TEMP_FAILURE_RETRY-style): a signal delivered to a serving thread —
// SIGTERM starting a graceful drain is routine — must never surface as
// a phantom I/O error.  Each returns what the underlying call returns,
// with EINTR retried internally; other errors pass through in errno.

ssize_t retry_read(int fd, void* buf, std::size_t count);
ssize_t retry_write(int fd, const void* buf, std::size_t count);
ssize_t retry_recv(int fd, void* buf, std::size_t count, int flags);
ssize_t retry_send(int fd, const void* buf, std::size_t count, int flags);

/// poll() with EINTR retried.  The timeout is NOT re-armed on retry
/// (the wait can stretch past `timeout_ms` by the interrupted fraction);
/// callers that need a hard deadline already loop on a steady clock.
int retry_poll(pollfd* fds, nfds_t nfds, int timeout_ms);

/// Sends all of `data` on a stream socket (MSG_NOSIGNAL, EINTR retried).
/// Returns false when the peer is gone or the kernel refuses; consults
/// the serve.send failpoint so the chaos harness can sever replies.
bool send_all(int fd, std::string_view data);

}  // namespace bb::util
