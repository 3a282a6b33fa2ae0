// Shared NDJSON socket transport for epgc_serve and the epgc_cluster
// front.
//
// One wire format over two listener families:
//   * Unix domain sockets (local clients, cluster front -> worker links);
//   * TCP (external clients and load balancers).
//
// Frames are newline-delimited JSON with a hard per-frame byte cap — a
// complete line over the cap is answered with a structured error and the
// connection resyncs at the next newline; a stream that exceeds the cap
// without ever producing a newline is not a protocol client and is
// answered then dropped. All writes use MSG_NOSIGNAL (a client that hung
// up must not SIGPIPE the server) and every accepted connection gets a
// dedicated reader thread feeding one bounded admission queue; a full
// queue rejects immediately (visible backpressure), and executors charge
// each request's deadline against its queue wait. An owner may answer
// some frames on the reader thread instead (inline_handler), but only
// while that connection has nothing admitted and unanswered, so each
// connection's replies keep request order.
//
// LineServer is protocol-agnostic: the owner supplies the handler and the
// reject/oversize response renderers, so the service and the cluster
// front reuse byte-for-byte identical admission behavior.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

namespace epg {

/// Bind + listen on a Unix domain socket (unlinks a stale path first).
/// Returns the listening fd, or -1 with `err` filled in.
int listen_unix(const std::string& path, std::string& err);

/// Bind + listen on TCP `host:port` (port 0 = ephemeral); the actually
/// bound port lands in `bound_port`. Returns the fd, or -1 with `err`.
int listen_tcp(const std::string& host, std::uint16_t port,
               std::uint16_t& bound_port, std::string& err);

/// Connect to a Unix domain socket; -1 with `err` on failure.
int connect_unix(const std::string& path, std::string& err);

/// Connect to TCP host:port; -1 with `err` on failure.
int connect_tcp(const std::string& host, std::uint16_t port,
                std::string& err);

/// Buffered line-oriented connection (the client side of the protocol;
/// the cluster front drives its workers through this). Owns the fd.
class LineConn {
 public:
  LineConn() = default;
  explicit LineConn(int fd) : fd_(fd) {}
  ~LineConn() { close(); }
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;
  LineConn(LineConn&& other) noexcept { *this = std::move(other); }
  LineConn& operator=(LineConn&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Send `line` + '\n' fully; false when the peer is gone.
  bool write_line(const std::string& line);
  /// Read up to the next '\n' (not included). False on EOF/error with no
  /// complete line. `timeout_ms` > 0 bounds the wait per recv (probe
  /// mode); 0 blocks indefinitely.
  bool read_line(std::string& line, int timeout_ms = 0);

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct LineServerConfig {
  std::size_t max_queue = 64;
  /// Per-frame (per-line) byte cap; also the cap on a lineless stream.
  std::size_t max_frame_bytes = std::size_t{64} << 20;
  /// Threads draining the admission queue. 1 (the calling thread)
  /// answers admitted requests in admission order — what epgc_serve
  /// wants, since one BatchCompiler run may execute at a time; the
  /// cluster front runs one executor per worker so independent workers
  /// proceed in parallel.
  std::size_t executors = 1;
  /// The request handler: line in, response line out (no trailing '\n').
  /// Called from executor threads; must be thread-safe when executors>1.
  std::function<std::string(const std::string& line, double queued_ms)>
      handler;
  /// Optional reader-side answer, called on the connection's reader
  /// thread for a complete frame when that connection has no admitted
  /// request still unanswered. A non-empty return is written as the reply
  /// and the frame is never admitted; empty admits it as usual. Runs
  /// concurrently with the executors and other readers. Unset = every
  /// frame is admitted.
  std::function<std::string(const std::string& line)> inline_handler;
  /// Render (and count) the rejection for an admission-queue overflow.
  std::function<std::string(const std::string& line)> reject_response;
  /// Render the error for a frame over max_frame_bytes.
  std::function<std::string(const std::string& line)> oversize_response;
};

/// Serve `listen_fd` until `stop` becomes true: accept connections, split
/// lines, admit into the bounded queue, answer via cfg.handler. Drains
/// the queue before returning (stop = drain, not abort) and closes
/// `listen_fd`. Returns 0.
class LineServer {
 public:
  explicit LineServer(LineServerConfig cfg);
  int serve(int listen_fd, std::atomic<bool>& stop);

  /// Requests admitted but not yet picked up by an executor (health).
  std::size_t queue_depth() const { return depth_.load(); }

 private:
  LineServerConfig cfg_;
  std::atomic<std::size_t> depth_{0};
};

}  // namespace epg
