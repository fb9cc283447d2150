#pragma once

/// \file net.hpp
/// Minimal blocking-socket helpers for the serving daemon and its clients
/// (docs/SERVING.md, "Network protocol"):
///
///  - Address: a parsed listen/connect endpoint — `unix:PATH` (an
///    AF_UNIX stream socket) or `tcp:PORT` / `tcp:HOST:PORT` (IPv4;
///    `tcp:0` binds an ephemeral loopback port, reported by
///    Listener::bound());
///  - Socket: a move-only RAII fd with read_exact / write_all loops
///    (EINTR-safe, MSG_NOSIGNAL so a dead peer is an error, not a
///    SIGPIPE), half-close via shutdown_read/shutdown_write, and an
///    optional receive timeout;
///  - Listener: bind + listen + accept with an internal self-pipe so
///    interrupt() wakes a blocked accept() deterministically (the
///    graceful-shutdown path closes listeners first);
///  - send_frame / recv_frame: the length-prefixed framing every protocol
///    message rides in — a little-endian u32 payload length, then the
///    payload. recv_frame distinguishes a clean EOF at a frame boundary
///    (std::nullopt) from truncation mid-frame or an oversized length
///    claim (pnp::Error);
///  - FrameReader: the same framing parsed from a reused receive buffer,
///    one recv() per fill() and every complete frame it holds — the
///    server's read side. Its framing faults carry recv_frame's
///    conditions and messages (the source location in the text differs).
///
/// Everything is deliberately blocking + thread-per-connection: the
/// server's concurrency policy lives in serve::Server, not here.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace pnp::net {

/// A parsed endpoint: `unix:PATH` or `tcp:[HOST:]PORT`.
struct Address {
  bool is_unix = false;
  std::string path;               ///< unix: filesystem path
  std::string host = "127.0.0.1"; ///< tcp: IPv4 dotted quad
  int port = 0;                   ///< tcp: 0 = ephemeral (listen only)

  /// Parse "unix:/tmp/x.sock", "tcp:7070", or "tcp:127.0.0.1:7070".
  /// Throws pnp::Error on anything else.
  static Address parse(const std::string& spec);
  std::string to_string() const;
};

/// Move-only RAII wrapper of a connected stream-socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Read exactly n bytes. Returns the bytes read before EOF: n on
  /// success, 0 if the peer closed before the first byte, and anything in
  /// between on a mid-read close. Throws pnp::Error on transport errors.
  std::size_t read_exact(void* buf, std::size_t n);
  /// One recv() of at most n bytes: the count read, 0 at EOF. Throws
  /// pnp::Error on transport errors, as read_exact does.
  std::size_t read_some(void* buf, std::size_t n);
  /// Write all n bytes (MSG_NOSIGNAL). Throws pnp::Error on any failure,
  /// including a closed peer.
  void write_all(const void* buf, std::size_t n);

  /// Half-close: further reads on this end see EOF / the peer sees EOF.
  /// Safe to call from another thread to wake a blocked read_exact.
  void shutdown_read();
  void shutdown_write();

  /// Blocking-receive timeout (SO_RCVTIMEO); a timed-out read throws
  /// pnp::Error mentioning "timed out". 0 = wait forever.
  void set_recv_timeout_ms(int ms);

  void close();

 private:
  int fd_ = -1;
};

/// A bound, listening socket. accept() blocks until a connection arrives
/// or interrupt() is called from another thread (then returns nullopt
/// forever after).
class Listener {
 public:
  /// Bind + listen. For unix addresses the path must not already exist
  /// (a stale socket file is an error, not silently stolen); the file is
  /// unlinked on close. For tcp, port 0 picks an ephemeral port.
  /// Throws pnp::Error on failure.
  explicit Listener(const Address& addr, int backlog = 128);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The actual bound address (tcp port resolved).
  const Address& bound() const { return bound_; }

  /// Next connection, or nullopt once interrupt() has been called.
  std::optional<Socket> accept();

  /// Wake any blocked accept() and make all future accepts return
  /// nullopt. Idempotent, callable from any thread.
  void interrupt();

  void close();

 private:
  Address bound_;
  int fd_ = -1;
  int wake_rd_ = -1, wake_wr_ = -1;  ///< self-pipe: interrupt() -> accept()
  bool unlink_on_close_ = false;
};

/// Connect to an address, retrying ECONNREFUSED / missing-socket-file for
/// up to `retry_ms` (a daemon started in parallel may not be listening
/// yet). Throws pnp::Error when the deadline passes.
Socket connect_to(const Address& addr, int retry_ms = 0);

/// Maximum payload a peer may claim in a frame header; anything larger is
/// rejected before allocation (recv_frame throws).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// Write one frame: little-endian u32 payload size, then the payload.
void send_frame(Socket& s, std::string_view payload);

/// Read one frame. Returns nullopt on a clean EOF at a frame boundary.
/// Throws pnp::Error on a truncated length prefix, EOF mid-payload, a
/// length claim above `max_payload`, or transport errors.
std::optional<std::string> recv_frame(Socket& s,
                                      std::uint32_t max_payload = kMaxFrameBytes);

/// Buffered frame reader for one connection. fill() does one recv() into
/// the free tail of a reused buffer (grown only to fit a frame, never
/// zero-filled); next() then yields every complete frame buffered. A
/// reader that drains next() after each fill() sees the frames, errors
/// and EOFs recv_frame would, from however the stream was split.
class FrameReader {
 public:
  explicit FrameReader(std::uint32_t max_payload = kMaxFrameBytes);

  /// One recv() into the buffer. Returns false on a clean EOF at a frame
  /// boundary; throws pnp::Error (recv_frame's message) on EOF inside a
  /// length prefix or a payload, and on transport errors.
  bool fill(Socket& s);
  /// The next complete buffered frame's payload, or nullopt when none is
  /// complete. The view is valid until the next fill(). Throws
  /// pnp::Error on a length claim above max_payload as soon as its 4
  /// header bytes are buffered.
  std::optional<std::string_view> next();
  /// Bytes buffered past the frames next() returned.
  std::size_t buffered() const { return end_ - begin_; }

 private:
  std::uint32_t max_payload_;
  std::unique_ptr<char[]> buf_;
  std::size_t cap_ = 0;
  std::size_t begin_ = 0;  ///< first byte not yet returned by next()
  std::size_t end_ = 0;    ///< one past the last byte received
};

}  // namespace pnp::net
