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
// answered then dropped. Every accepted connection gets a dedicated
// reader thread feeding one bounded admission queue, drained by one
// executor; a full queue rejects immediately (visible backpressure), and
// the executor charges each request's deadline against its queue wait.
// An owner may take some frames on the reader thread instead
// (reader_hook), but only while that connection has nothing admitted and
// unanswered; it answers them through the connection's ReplySink.
//
// Replies never block the thread that sends them: the bytes a client's
// socket will not take yet wait in that connection's outbox, which the
// listener thread flushes, and a connection whose outbox outgrows the
// frame cap is dropped. All writes use MSG_NOSIGNAL (a client that hung
// up must not SIGPIPE the server).
//
// LineServer is protocol-agnostic: the owner supplies the handler and the
// reject/oversize response renderers, so the service and the cluster
// front reuse byte-for-byte identical admission behavior.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

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

/// Splits a byte stream into '\n'-terminated frames. Each received byte is
/// scanned once, and the frames already taken are dropped in one move per
/// refill, so a frame that arrives in many pieces, or many frames that
/// arrive in one piece, cost time linear in their bytes.
class FrameBuffer {
 public:
  /// Drop the frames already taken, then recv once from `fd` (blocking)
  /// and append what arrived. Returns recv's result.
  ssize_t refill(int fd);
  /// The next complete frame, without its '\n'; it stays valid until the
  /// next refill. False when no complete frame is buffered.
  bool next(std::string_view& frame);
  /// Bytes buffered past the last complete frame.
  std::size_t partial() const { return buf_.size() - start_; }

 private:
  std::string buf_;
  std::size_t start_ = 0;    ///< first byte not yet returned by next()
  std::size_t scanned_ = 0;  ///< [start_, scanned_) holds no '\n'
};

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

  /// Send `line` + '\n' fully (blocking); false when the peer is gone.
  bool write_line(std::string_view line);
  /// Read up to the next '\n' (not included). False on EOF/error with no
  /// complete line. `timeout_ms` > 0 bounds the wait per recv (probe
  /// mode); 0 blocks indefinitely.
  bool read_line(std::string& line, int timeout_ms = 0);

 private:
  int fd_ = -1;
  FrameBuffer frames_;
};

class ClientConn;

/// Where the replies to one server connection go. Sending never blocks:
/// bytes the client's socket will not take yet wait in the connection's
/// outbox, and a client that lets its outbox outgrow the frame cap is
/// dropped. Copies share the connection.
class ReplySink {
 public:
  ReplySink() = default;
  /// Send `reply` + '\n' as the answer to one frame the owner took from
  /// the reader hook; call it exactly once per taken frame, from any
  /// thread.
  void send(std::string_view reply) const;

 private:
  friend class LineServer;
  explicit ReplySink(std::shared_ptr<ClientConn> conn)
      : conn_(std::move(conn)) {}
  std::shared_ptr<ClientConn> conn_;
};

struct LineServerConfig {
  std::size_t max_queue = 64;
  /// Per-frame (per-line) byte cap; also the cap on a lineless stream.
  std::size_t max_frame_bytes = std::size_t{64} << 20;
  /// The request handler: line in, response line out (no trailing '\n').
  /// Called on the one executor thread, in admission order.
  std::function<std::string(const std::string& line, double queued_ms)>
      handler;
  /// Optional, called on the connection's reader thread for a complete
  /// frame when that connection has no admitted request still unanswered.
  /// True takes the frame: the owner answers it through `reply`, at once
  /// or later from any thread, and it is never admitted. False admits it
  /// as usual. Runs concurrently with the executor and other readers.
  /// Unset = every frame is admitted.
  std::function<bool(const std::string& line, const ReplySink& reply)>
      reader_hook;
  /// Render (and count) the rejection for an admission-queue overflow.
  std::function<std::string(const std::string& line)> reject_response;
  /// Render the error for a frame over max_frame_bytes.
  std::function<std::string(const std::string& line)> oversize_response;
};

/// Serve `listen_fd` until `stop` becomes true: accept connections, split
/// lines, admit into the bounded queue, answer via cfg.handler. Before
/// returning it drains the queue, waits for every frame taken by the
/// reader hook to be answered and flushes the outboxes (stop = drain, not
/// abort), then closes `listen_fd`. Returns 0.
class LineServer {
 public:
  explicit LineServer(LineServerConfig cfg);
  int serve(int listen_fd, std::atomic<bool>& stop);

  /// Requests admitted but not yet picked up by the executor (health).
  std::size_t queue_depth() const { return depth_.load(); }

 private:
  LineServerConfig cfg_;
  std::atomic<std::size_t> depth_{0};
};

}  // namespace epg
