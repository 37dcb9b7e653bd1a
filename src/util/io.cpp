#include "src/util/io.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/util/failpoint.hpp"

namespace bb::util {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("write_file_atomic: " + what + " '" + path +
                           "': " + std::strerror(errno));
}

[[noreturn]] void fail_injected(const std::string& what,
                                const std::string& path) {
  errno = EIO;
  fail(what + " (failpoint)", path);
}

/// Best-effort fsync of the directory containing `path`, so the rename
/// itself is durable.  Failures are ignored: some filesystems refuse
/// directory fsync, and the entry rename is already crash-atomic.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

ssize_t retry_read(int fd, void* buf, std::size_t count) {
  for (;;) {
    const ssize_t n = ::read(fd, buf, count);
    if (n >= 0 || errno != EINTR) return n;
  }
}

ssize_t retry_write(int fd, const void* buf, std::size_t count) {
  for (;;) {
    const ssize_t n = ::write(fd, buf, count);
    if (n >= 0 || errno != EINTR) return n;
  }
}

ssize_t retry_recv(int fd, void* buf, std::size_t count, int flags) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, count, flags);
    if (n >= 0 || errno != EINTR) return n;
  }
}

ssize_t retry_send(int fd, const void* buf, std::size_t count, int flags) {
  for (;;) {
    const ssize_t n = ::send(fd, buf, count, flags);
    if (n >= 0 || errno != EINTR) return n;
  }
}

int retry_poll(pollfd* fds, nfds_t nfds, int timeout_ms) {
  for (;;) {
    const int ready = ::poll(fds, nfds, timeout_ms);
    if (ready >= 0 || errno != EINTR) return ready;
  }
}

bool send_all(int fd, std::string_view data) {
  if (failpoint("serve.send")) return false;
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        retry_send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) return false;  // peer went away; nothing to do about it
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return buf.str();
}

void write_file_atomic(const std::string& path, const std::string& content) {
  // The temporary must live in the same directory as the target so the
  // rename is a same-filesystem metadata operation.  Its name must be
  // unique per writer (pid + process-wide counter): concurrent writers
  // of the same target — threads, or processes sharing a cache
  // directory — must each rename their own complete file, never a temp
  // another writer is still filling.
  static std::atomic<std::uint64_t> serial{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(serial.fetch_add(1));
  if (failpoint("io.wfa.open")) fail_injected("cannot open", tmp);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot open", tmp);

  // An injected short write leaves `write_cap` bytes in the temp and
  // then fails — the torn-write case recovery must scavenge.
  std::size_t write_cap = content.size();
  bool injected_write_error = false;
  if (const auto hit = failpoint("io.wfa.write")) {
    if (hit.kind == FailpointHit::Kind::kShortWrite) {
      write_cap = std::min<std::size_t>(write_cap, hit.arg);
    }
    injected_write_error = true;
  }

  std::size_t written = 0;
  while (written < write_cap) {
    const ssize_t n =
        retry_write(fd, content.data() + written, write_cap - written);
    if (n < 0) {
      ::close(fd);
      std::remove(tmp.c_str());
      fail("short write to", tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (injected_write_error) {
    ::close(fd);
    std::remove(tmp.c_str());
    fail_injected("short write to", tmp);
  }

  // The data must be durable *before* the rename publishes it: without
  // the fsync a crash after the rename can leave a correctly-named but
  // truncated (even empty) artifact, which is exactly what atomicity is
  // supposed to rule out.  The disk cache relies on this ordering.
  if (failpoint("io.wfa.fsync")) {
    ::close(fd);
    std::remove(tmp.c_str());
    fail_injected("cannot fsync", tmp);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    std::remove(tmp.c_str());
    fail("cannot fsync", tmp);
  }
  if (::close(fd) != 0) {
    std::remove(tmp.c_str());
    fail("cannot close", tmp);
  }
  // Crash sites bracketing publication: before the rename the target
  // must be untouched (only an orphaned temp remains); after it the new
  // content must be complete.  There is no window with a torn target.
  (void)failpoint("io.wfa.crash_before_rename");
  if (failpoint("io.wfa.rename")) {
    std::remove(tmp.c_str());
    fail_injected("cannot rename", tmp + "' to '" + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail("cannot rename", tmp + "' to '" + path);
  }
  (void)failpoint("io.wfa.crash_after_rename");
  sync_parent_dir(path);
}

}  // namespace bb::util
