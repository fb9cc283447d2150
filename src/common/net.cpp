#include "common/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/error.hpp"
#include "common/wire.hpp"

namespace pnp::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

sockaddr_un make_unix_sockaddr(const std::string& path) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  PNP_CHECK_MSG(path.size() < sizeof(sa.sun_path),
                "unix socket path too long (" << path.size() << " bytes): '"
                                              << path << "'");
  std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
  return sa;
}

sockaddr_in make_tcp_sockaddr(const Address& a) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(a.port));
  PNP_CHECK_MSG(inet_pton(AF_INET, a.host.c_str(), &sa.sin_addr) == 1,
                "bad IPv4 host '" << a.host << "'");
  return sa;
}

}  // namespace

Address Address::parse(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    Address a;
    a.is_unix = true;
    a.path = spec.substr(5);
    PNP_CHECK_MSG(!a.path.empty(), "empty unix socket path in '" << spec << "'");
    return a;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    Address a;
    const std::string rest = spec.substr(4);
    const auto colon = rest.rfind(':');
    std::string port_str = rest;
    if (colon != std::string::npos) {
      a.host = rest.substr(0, colon);
      port_str = rest.substr(colon + 1);
      PNP_CHECK_MSG(!a.host.empty(), "empty host in '" << spec << "'");
    }
    try {
      std::size_t pos = 0;
      a.port = std::stoi(port_str, &pos);
      PNP_CHECK(pos == port_str.size());
    } catch (const std::exception&) {
      throw Error("bad tcp port in '" + spec + "'");
    }
    PNP_CHECK_MSG(a.port >= 0 && a.port <= 65535,
                  "tcp port " << a.port << " out of range in '" << spec << "'");
    return a;
  }
  throw Error("bad address '" + spec +
              "' (expected unix:PATH or tcp:[HOST:]PORT)");
}

std::string Address::to_string() const {
  if (is_unix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

std::size_t Socket::read_exact(void* buf, std::size_t n) {
  PNP_CHECK_MSG(valid(), "read on a closed socket");
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, static_cast<char*>(buf) + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) return got;  // peer closed (or shutdown_read on our end)
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      throw Error("socket read timed out");
    throw_errno("socket read failed");
  }
  return got;
}

void Socket::write_all(const void* buf, std::size_t n) {
  PNP_CHECK_MSG(valid(), "write on a closed socket");
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd_, static_cast<const char*>(buf) + sent,
                             n - sent, MSG_NOSIGNAL);
    if (r >= 0) {
      sent += static_cast<std::size_t>(r);
      continue;
    }
    if (errno == EINTR) continue;
    throw_errno("socket write failed");
  }
}

void Socket::shutdown_read() {
  if (valid()) ::shutdown(fd_, SHUT_RD);
}

void Socket::shutdown_write() {
  if (valid()) ::shutdown(fd_, SHUT_WR);
}

void Socket::set_recv_timeout_ms(int ms) {
  PNP_CHECK_MSG(valid(), "timeout on a closed socket");
  PNP_CHECK_MSG(ms >= 0, "negative receive timeout");
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0)
    throw_errno("setsockopt(SO_RCVTIMEO) failed");
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(const Address& addr, int backlog) : bound_(addr) {
  fd_ = ::socket(addr.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket() failed");
  try {
    if (addr.is_unix) {
      const sockaddr_un sa = make_unix_sockaddr(addr.path);
      if (::bind(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0)
        throw_errno("bind(" + addr.to_string() + ") failed");
      unlink_on_close_ = true;
    } else {
      const int one = 1;
      ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      const sockaddr_in sa = make_tcp_sockaddr(addr);
      if (::bind(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0)
        throw_errno("bind(" + addr.to_string() + ") failed");
      sockaddr_in actual{};
      socklen_t len = sizeof actual;
      if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&actual), &len) != 0)
        throw_errno("getsockname() failed");
      bound_.port = ntohs(actual.sin_port);
    }
    if (::listen(fd_, backlog) != 0)
      throw_errno("listen(" + bound_.to_string() + ") failed");
    int pipefd[2];
    if (::pipe(pipefd) != 0) throw_errno("pipe() failed");
    wake_rd_ = pipefd[0];
    wake_wr_ = pipefd[1];
  } catch (...) {
    close();
    throw;
  }
}

Listener::~Listener() { close(); }

std::optional<Socket> Listener::accept() {
  for (;;) {
    pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_rd_, POLLIN, 0}};
    if (fd_ < 0 || wake_rd_ < 0) return std::nullopt;
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll() on listener failed");
    }
    if (fds[1].revents) return std::nullopt;  // interrupted
    if (!(fds[0].revents & POLLIN)) continue;
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw_errno("accept() failed");
    }
    return Socket(conn);
  }
}

void Listener::interrupt() {
  if (wake_wr_ >= 0) {
    const char b = 'x';
    // Best effort: a full pipe already means a pending wake-up.
    [[maybe_unused]] const ssize_t r = ::write(wake_wr_, &b, 1);
  }
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (wake_rd_ >= 0) {
    ::close(wake_rd_);
    wake_rd_ = -1;
  }
  if (wake_wr_ >= 0) {
    ::close(wake_wr_);
    wake_wr_ = -1;
  }
  if (unlink_on_close_) {
    ::unlink(bound_.path.c_str());
    unlink_on_close_ = false;
  }
}

Socket connect_to(const Address& addr, int retry_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(retry_ms);
  for (;;) {
    const int fd = ::socket(addr.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket() failed");
    Socket s(fd);
    int rc;
    if (addr.is_unix) {
      const sockaddr_un sa = make_unix_sockaddr(addr.path);
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
    } else {
      const sockaddr_in sa = make_tcp_sockaddr(addr);
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
    }
    if (rc == 0) {
      if (!addr.is_unix) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      }
      return s;
    }
    const bool retryable = errno == ECONNREFUSED || errno == ENOENT ||
                           errno == EAGAIN || errno == EINTR;
    if (!retryable || std::chrono::steady_clock::now() >= deadline)
      throw_errno("connect(" + addr.to_string() + ") failed");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void send_frame(Socket& s, std::string_view payload) {
  PNP_CHECK_MSG(payload.size() <= kMaxFrameBytes,
                "frame payload of " << payload.size() << " bytes exceeds "
                                    << kMaxFrameBytes);
  std::string msg;
  msg.reserve(4 + payload.size());
  wire::put_u32(msg, static_cast<std::uint32_t>(payload.size()));
  wire::put_bytes(msg, payload);
  s.write_all(msg.data(), msg.size());
}

std::optional<std::string> recv_frame(Socket& s, std::uint32_t max_payload) {
  unsigned char hdr[4];
  const std::size_t got = s.read_exact(hdr, 4);
  if (got == 0) return std::nullopt;  // clean EOF at a frame boundary
  PNP_CHECK_MSG(got == 4, "truncated frame length prefix (" << got
                          << " of 4 bytes)");
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(hdr[i]) << (8 * i);
  PNP_CHECK_MSG(len <= max_payload, "frame length claim of " << len
                                    << " bytes exceeds limit " << max_payload);
  std::string payload(len, '\0');
  if (len > 0) {
    const std::size_t body = s.read_exact(payload.data(), len);
    PNP_CHECK_MSG(body == len, "connection closed mid-frame (" << body
                               << " of " << len << " payload bytes)");
  }
  return payload;
}

std::size_t Socket::read_some(void* buf, std::size_t n) {
  PNP_CHECK_MSG(valid(), "read on a closed socket");
  for (;;) {
    const ssize_t r = ::recv(fd_, buf, n, 0);
    if (r >= 0) return static_cast<std::size_t>(r);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      throw Error("socket read timed out");
    throw_errno("socket read failed");
  }
}

namespace {

// FrameReader's framing checks: recv_frame's conditions and messages, so
// a fault reads the same whichever parser met it (only the source
// location in the text differs).
std::uint32_t frame_length(const char* hdr) {
  const auto* b = reinterpret_cast<const unsigned char*>(hdr);
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return len;
}

void check_prefix(std::size_t got) {
  PNP_CHECK_MSG(got == 4, "truncated frame length prefix (" << got
                          << " of 4 bytes)");
}

void check_length(std::uint32_t len, std::uint32_t max_payload) {
  PNP_CHECK_MSG(len <= max_payload, "frame length claim of " << len
                                    << " bytes exceeds limit " << max_payload);
}

void check_body(std::size_t body, std::uint32_t len) {
  PNP_CHECK_MSG(body == len, "connection closed mid-frame (" << body
                             << " of " << len << " payload bytes)");
}

/// FrameReader's first buffer: room for many pipelined requests per recv.
constexpr std::size_t kReadChunk = 16 * 1024;

}  // namespace

FrameReader::FrameReader(std::uint32_t max_payload)
    : max_payload_(max_payload) {}

bool FrameReader::fill(Socket& s) {
  // Move the partial frame next() left to the front, and make room for
  // all of it: its claim was checked when its header arrived.
  const std::size_t held = buffered();
  std::size_t need = kReadChunk;
  if (held >= 4) {
    const std::size_t frame =
        4 + std::size_t{frame_length(buf_.get() + begin_)};
    if (frame > need) need = frame;
  }
  if (cap_ < need) {
    std::unique_ptr<char[]> grown(new char[need]);  // uninitialised
    if (held > 0) std::memcpy(grown.get(), buf_.get() + begin_, held);
    buf_ = std::move(grown);
    cap_ = need;
  } else if (begin_ > 0) {
    std::memmove(buf_.get(), buf_.get() + begin_, held);
  }
  begin_ = 0;
  end_ = held;
  const std::size_t r = s.read_some(buf_.get() + end_, cap_ - end_);
  end_ += r;
  if (r > 0) return true;
  if (held == 0) return false;  // clean EOF at a frame boundary
  // EOF inside the partial frame.
  if (held < 4) check_prefix(held);
  check_body(held - 4, frame_length(buf_.get()));
  return false;  // not reached while callers drain next() before fill()
}

std::optional<std::string_view> FrameReader::next() {
  if (buffered() < 4) return std::nullopt;
  const char* frame = buf_.get() + begin_;
  const std::uint32_t len = frame_length(frame);
  check_length(len, max_payload_);
  if (buffered() - 4 < len) return std::nullopt;
  begin_ += 4 + std::size_t{len};
  return std::string_view(frame + 4, len);
}

}  // namespace pnp::net
