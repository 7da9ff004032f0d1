//===- Socket.cpp ---------------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Support/Socket.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace defacto;

namespace {

Status errnoStatus(const std::string &What) {
  return Status::error(ErrorCode::Internal,
                       What + ": " + std::strerror(errno));
}

} // namespace

//===----------------------------------------------------------------------===//
// UnixConnection
//===----------------------------------------------------------------------===//

UnixConnection::~UnixConnection() { close(); }

UnixConnection::UnixConnection(UnixConnection &&Other) noexcept
    : Fd(Other.Fd), Buffer(std::move(Other.Buffer)), Out(std::move(Other.Out)),
      OutSent(Other.OutSent) {
  Other.Fd = -1;
  Other.OutSent = 0;
}

UnixConnection &UnixConnection::operator=(UnixConnection &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = Other.Fd;
    Buffer = std::move(Other.Buffer);
    Out = std::move(Other.Out);
    OutSent = Other.OutSent;
    Other.Fd = -1;
    Other.OutSent = 0;
  }
  return *this;
}

Expected<UnixConnection> UnixConnection::connectTo(const std::string &Path) {
  sockaddr_un Addr{};
  if (Path.size() >= sizeof(Addr.sun_path))
    return Status::error(ErrorCode::InvalidInput,
                         "socket path too long: '" + Path + "'");
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return errnoStatus("socket()");
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Status E = errnoStatus("connect('" + Path + "')");
    ::close(Fd);
    return E;
  }
  return UnixConnection(Fd);
}

UnixConnection UnixConnection::fromFd(int Fd) { return UnixConnection(Fd); }

Status UnixConnection::sendLine(const std::string &Line) {
  if (Fd < 0)
    return Status::error(ErrorCode::InvalidInput, "send on closed connection");
  if (Line.find('\n') != std::string::npos)
    return Status::error(ErrorCode::InvalidInput,
                         "line framing forbids embedded newlines");
  std::string Framed = Line;
  Framed.push_back('\n');
  size_t Sent = 0;
  while (Sent < Framed.size()) {
    // MSG_NOSIGNAL: a peer that hung up turns into EPIPE, not a
    // process-killing SIGPIPE from a daemon worker thread.
    ssize_t N = ::send(Fd, Framed.data() + Sent, Framed.size() - Sent,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return errnoStatus("send()");
    }
    Sent += static_cast<size_t>(N);
  }
  return Status::ok();
}

std::optional<std::string> UnixConnection::takeLine() {
  size_t Newline = Buffer.find('\n');
  if (Newline == std::string::npos)
    return std::nullopt;
  std::string Line = Buffer.substr(0, Newline);
  Buffer.erase(0, Newline + 1);
  return Line;
}

Expected<std::optional<std::string>> UnixConnection::recvLine(size_t MaxBytes) {
  if (Fd < 0)
    return Status::error(ErrorCode::InvalidInput, "recv on closed connection");
  for (;;) {
    if (std::optional<std::string> Line = takeLine())
      return Line;
    if (Buffer.size() > MaxBytes)
      return Status::error(ErrorCode::InvalidInput,
                           "line exceeds " + std::to_string(MaxBytes) +
                               " bytes without a newline");
    char Chunk[4096];
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return errnoStatus("recv()");
    }
    if (N == 0) {
      if (Buffer.empty())
        return std::optional<std::string>(); // clean EOF
      return Status::error(ErrorCode::InvalidInput,
                           "connection closed mid-line");
    }
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
}

Status UnixConnection::setNonBlocking() {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags < 0 || ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) != 0)
    return errnoStatus("fcntl(O_NONBLOCK)");
  return Status::ok();
}

Expected<bool> UnixConnection::fill(size_t MaxBytes) {
  char Chunk[16384];
  ssize_t N;
  do
    N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
  while (N < 0 && errno == EINTR);
  if (N < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return true;
    return errnoStatus("recv()");
  }
  if (N == 0)
    return false;
  Buffer.append(Chunk, static_cast<size_t>(N));
  // Only a buffer that still lacks a newline past the bound is runaway;
  // the scan runs only once the buffer is that large.
  if (Buffer.size() > MaxBytes && Buffer.find('\n') == std::string::npos)
    return Status::error(ErrorCode::InvalidInput,
                         "line exceeds " + std::to_string(MaxBytes) +
                             " bytes without a newline");
  return true;
}

void UnixConnection::queueLine(const std::string &Line) {
  Out += Line;
  Out.push_back('\n');
}

Expected<bool> UnixConnection::flush() {
  while (OutSent < Out.size()) {
    ssize_t N = ::send(Fd, Out.data() + OutSent, Out.size() - OutSent,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return false;
      return errnoStatus("send()");
    }
    OutSent += static_cast<size_t>(N);
  }
  Out.clear();
  OutSent = 0;
  return true;
}

void UnixConnection::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Buffer.clear();
  Out.clear();
  OutSent = 0;
}

//===----------------------------------------------------------------------===//
// UnixListener
//===----------------------------------------------------------------------===//

UnixListener::~UnixListener() { close(); }

UnixListener::UnixListener(UnixListener &&Other) noexcept
    : Fd(Other.Fd), Path(std::move(Other.Path)) {
  Other.Fd = -1;
  Other.Path.clear();
}

UnixListener &UnixListener::operator=(UnixListener &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = Other.Fd;
    Path = std::move(Other.Path);
    Other.Fd = -1;
    Other.Path.clear();
  }
  return *this;
}

Expected<UnixListener> UnixListener::listenOn(const std::string &Path,
                                              int Backlog) {
  sockaddr_un Addr{};
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path))
    return Status::error(ErrorCode::InvalidInput,
                         "socket path empty or too long: '" + Path + "'");
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return errnoStatus("socket()");
  ::unlink(Path.c_str());
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Status E = errnoStatus("bind('" + Path + "')");
    ::close(Fd);
    return E;
  }
  if (::listen(Fd, Backlog) != 0 ||
      ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL, 0) | O_NONBLOCK) != 0) {
    Status E = errnoStatus("listen('" + Path + "')");
    ::close(Fd);
    ::unlink(Path.c_str());
    return E;
  }
  return UnixListener(Fd, Path);
}

Expected<std::optional<UnixConnection>> UnixListener::accept() {
  if (Fd < 0)
    return Status::error(ErrorCode::InvalidInput, "accept on closed listener");
  int Conn = ::accept(Fd, nullptr, nullptr);
  if (Conn < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED)
      return std::optional<UnixConnection>();
    return errnoStatus("accept()");
  }
  return std::optional<UnixConnection>(UnixConnection::fromFd(Conn));
}

void UnixListener::close() {
  if (Fd >= 0) {
    ::close(Fd);
    ::unlink(Path.c_str());
    Fd = -1;
  }
}
