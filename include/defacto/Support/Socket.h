//===- Socket.h - Unix-domain socket and line framing ----------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport layer under the DSE daemon (Serve/Server.h): blocking
/// Unix-domain stream sockets with newline-delimited framing, wrapped in
/// the repo's Status/Expected error model so callers never touch errno.
///
///  - UnixListener binds a filesystem socket path and accepts
///    connections without blocking, once poll() reports one pending;
///  - UnixConnection carries one byte stream with sendLine()/recvLine()
///    framing: one request or reply per '\n'-terminated line, exactly
///    the journal's and metrics sampler's JSONL convention, so every
///    wire message is also a valid JSONL record.
///
/// Both types own their file descriptor (move-only, closed on
/// destruction). sendLine()/recvLine() block (clients, tests); the
/// daemon's event loop switches its connections to non-blocking mode and
/// drives them with fill()/takeLine() and queueLine()/flush() from one
/// poll() loop, so it needs no thread per connection.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_SUPPORT_SOCKET_H
#define DEFACTO_SUPPORT_SOCKET_H

#include "defacto/Support/Error.h"

#include <optional>
#include <string>

namespace defacto {

/// One connected Unix-domain stream socket with line framing.
class UnixConnection {
public:
  UnixConnection() = default;
  ~UnixConnection();

  UnixConnection(UnixConnection &&Other) noexcept;
  UnixConnection &operator=(UnixConnection &&Other) noexcept;
  UnixConnection(const UnixConnection &) = delete;
  UnixConnection &operator=(const UnixConnection &) = delete;

  /// Connects to the listener at \p Path.
  static Expected<UnixConnection> connectTo(const std::string &Path);

  /// Adopts an already-connected descriptor (accept side).
  static UnixConnection fromFd(int Fd);

  /// Writes \p Line plus a terminating '\n' (the line itself must not
  /// contain one — jsonQuote escapes embedded newlines, so any JSON
  /// document serialized on one line is safe). Retries short writes.
  Status sendLine(const std::string &Line);

  /// Default bound on one received line: a runaway peer must not
  /// balloon daemon memory.
  static constexpr size_t MaxLineBytes = 1 << 20;

  /// Reads up to the next '\n' (stripped). std::nullopt on clean EOF
  /// with no buffered partial line; an error Status on transport
  /// failure or when \p MaxBytes is exceeded.
  Expected<std::optional<std::string>>
  recvLine(size_t MaxBytes = MaxLineBytes);

  //===--------------------------------------------------------------===//
  // Event-loop I/O: never blocks once setNonBlocking() succeeded.
  //===--------------------------------------------------------------===//

  Status setNonBlocking();

  /// One recv() of whatever the socket holds now, appended to the line
  /// buffer. false on EOF (the peer closed its sending side), true
  /// otherwise, including when nothing was ready. An error Status on
  /// transport failure or when the buffer holds more than \p MaxBytes
  /// without a newline.
  Expected<bool> fill(size_t MaxBytes = MaxLineBytes);

  /// Pops the next complete buffered line ('\n' stripped), if any.
  std::optional<std::string> takeLine();

  /// Appends \p Line plus '\n' to the output buffer; flush() sends it.
  void queueLine(const std::string &Line);

  /// Sends as much buffered output as the socket takes now. true once
  /// nothing is left to send.
  Expected<bool> flush();

  bool hasPendingOutput() const { return OutSent < Out.size(); }

  bool valid() const { return Fd >= 0; }

  /// The raw descriptor, for a poll() loop that waits on it.
  int fd() const { return Fd; }

  void close();

private:
  explicit UnixConnection(int Fd) : Fd(Fd) {}

  int Fd = -1;
  std::string Buffer; // bytes received past the last returned line
  std::string Out;    // queued output; the first OutSent bytes are sent
  size_t OutSent = 0;
};

/// A bound-and-listening Unix-domain socket.
class UnixListener {
public:
  UnixListener() = default;
  ~UnixListener();

  UnixListener(UnixListener &&Other) noexcept;
  UnixListener &operator=(UnixListener &&Other) noexcept;
  UnixListener(const UnixListener &) = delete;
  UnixListener &operator=(const UnixListener &) = delete;

  /// Binds and listens on \p Path. An existing socket file at the path
  /// is unlinked first (a previous daemon's leftover); a live listener
  /// would have held the bind, so clobbering is safe for the daemon's
  /// single-owner deployment model. Path length is validated against
  /// sockaddr_un.
  static Expected<UnixListener> listenOn(const std::string &Path,
                                         int Backlog = 64);

  /// One pending connection, without waiting: the listener is
  /// non-blocking, and an event loop calls this once poll() reports the
  /// descriptor readable. std::nullopt when none is pending (any more).
  Expected<std::optional<UnixConnection>> accept();

  const std::string &path() const { return Path; }
  bool valid() const { return Fd >= 0; }
  /// The raw descriptor, for a poll() loop that waits on it.
  int fd() const { return Fd; }

  /// Closes the descriptor and unlinks the socket path.
  void close();

private:
  UnixListener(int Fd, std::string Path) : Fd(Fd), Path(std::move(Path)) {}

  int Fd = -1;
  std::string Path;
};

} // namespace defacto

#endif // DEFACTO_SUPPORT_SOCKET_H
