#include "service/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace epg {

namespace {

std::string errno_string() { return std::strerror(errno); }

/// Send `line` + '\n' in one call where the socket takes it all. With
/// MSG_DONTWAIT it stops where the socket would block and returns the
/// bytes sent (the rest is the caller's); without it, it sends everything.
/// -1 when the peer is gone.
ssize_t send_line(int fd, std::string_view line, int flags) {
  iovec iov[2] = {{const_cast<char*>(line.data()), line.size()},
                  {const_cast<char*>("\n"), 1}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  std::size_t sent = 0;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a peer that hung up must not SIGPIPE the server.
    const ssize_t n = ::sendmsg(fd, &msg, flags | MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) return -1;
    sent += static_cast<std::size_t>(n);
    auto left = static_cast<std::size_t>(n);
    while (msg.msg_iovlen > 0 && left >= msg.msg_iov->iov_len) {
      left -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + left;
      msg.msg_iov->iov_len -= left;
    }
  }
  return static_cast<ssize_t>(sent);
}

}  // namespace

int listen_unix(const std::string& path, std::string& err) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    err = "socket path too long: " + path;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    err = "socket(): " + errno_string();
    return -1;
  }
  ::unlink(path.c_str());  // stale socket from a previous run
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    err = "cannot listen on " + path + ": " + errno_string();
    ::close(fd);
    return -1;
  }
  return fd;
}

int listen_tcp(const std::string& host, std::uint16_t port,
               std::uint16_t& bound_port, std::string& err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    err = "socket(): " + errno_string();
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    err = "bad bind address '" + host + "'";
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    err = "cannot listen on " + host + ":" + std::to_string(port) + ": " +
          errno_string();
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    bound_port = ntohs(bound.sin_port);
  else
    bound_port = port;
  return fd;
}

int connect_unix(const std::string& path, std::string& err) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    err = "socket path too long: " + path;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    err = "socket(): " + errno_string();
    return -1;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    err = "connect " + path + ": " + errno_string();
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(const std::string& host, std::uint16_t port,
                std::string& err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    err = "socket(): " + errno_string();
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    err = "bad address '" + host + "'";
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    err = "connect " + host + ":" + std::to_string(port) + ": " +
          errno_string();
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// ---- FrameBuffer -----------------------------------------------------------

ssize_t FrameBuffer::refill(int fd) {
  if (start_ > 0) {
    buf_.erase(0, start_);
    scanned_ -= start_;
    start_ = 0;
  }
  char chunk[65536];
  const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
  if (n > 0) buf_.append(chunk, static_cast<std::size_t>(n));
  return n;
}

bool FrameBuffer::next(std::string_view& frame) {
  const std::size_t nl = buf_.find('\n', scanned_);
  if (nl == std::string::npos) {
    scanned_ = buf_.size();
    return false;
  }
  frame = std::string_view(buf_).substr(start_, nl - start_);
  start_ = scanned_ = nl + 1;
  return true;
}

// ---- LineConn --------------------------------------------------------------

LineConn& LineConn::operator=(LineConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    frames_ = std::move(other.frames_);
    other.fd_ = -1;
    other.frames_ = FrameBuffer();
  }
  return *this;
}

void LineConn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  frames_ = FrameBuffer();
}

bool LineConn::write_line(std::string_view line) {
  return fd_ >= 0 && send_line(fd_, line, 0) >= 0;
}

bool LineConn::read_line(std::string& line, int timeout_ms) {
  if (fd_ < 0) return false;
  std::string_view frame;
  while (!frames_.next(frame)) {
    if (timeout_ms > 0) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready <= 0) return false;  // timeout or poll error
    }
    if (frames_.refill(fd_) <= 0) return false;
  }
  line.assign(frame);
  return true;
}

// ---- LineServer ------------------------------------------------------------

/// What the replies of one server's connections share: the listener's
/// list of connections whose outbox waits for the socket, and the count
/// of frames the reader hook took and has not answered yet.
struct Outboxes {
  /// A connection whose outbox holds more than this is dropped.
  std::size_t bound = 0;
  /// Wakes the listener when a connection stalls (eventfd).
  int wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  std::mutex mutex;
  std::vector<std::shared_ptr<ClientConn>> stalled;  ///< not yet polled
  std::atomic<std::size_t> taken{0};

  explicit Outboxes(std::size_t b) : bound(b) {}
  ~Outboxes() {
    if (wake_fd >= 0) ::close(wake_fd);
  }
  void stall(std::shared_ptr<ClientConn> conn) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stalled.push_back(std::move(conn));
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof one);
  }
};

/// One accepted connection. Replies go out under `mutex_`, in the order
/// they are sent, and never block: what the socket does not take at once
/// waits in the outbox, which the listener flushes when the socket is
/// writable again.
class ClientConn : public std::enable_shared_from_this<ClientConn> {
 public:
  ClientConn(int f, std::shared_ptr<Outboxes> outboxes)
      : fd(f), outboxes_(std::move(outboxes)) {}
  ~ClientConn() {
    if (fd >= 0) ::close(fd);
  }

  const int fd;
  /// Requests admitted from this connection and not yet answered: raised
  /// by the reader before it queues one, lowered by send.
  std::atomic<std::size_t> pending{0};

  /// `admitted` marks the reply to a queued request. Its pending count
  /// drops under the lock, before the bytes are queued: a reader that
  /// then sees nothing pending sends its own reply after this one, and a
  /// client that has this reply never finds its request still pending.
  void send(std::string_view reply, bool admitted = false) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (admitted) pending.fetch_sub(1);
    if (dropped_) return;  // the reply dies with the connection
    if (!outbox_.empty()) {
      // A client that has stopped reading is dropped, not buffered for.
      if (outbox_.size() > outboxes_->bound) return drop_locked();
      outbox_.append(reply);
      outbox_ += '\n';
      return;
    }
    const ssize_t sent = send_line(fd, reply, MSG_DONTWAIT);
    if (sent < 0) return drop_locked();  // peer gone
    if (static_cast<std::size_t>(sent) == reply.size() + 1) return;
    if (static_cast<std::size_t>(sent) < reply.size())
      outbox_.append(reply.substr(static_cast<std::size_t>(sent)));
    outbox_ += '\n';
    outboxes_->stall(shared_from_this());
  }

  /// The answer to a frame the reader hook took.
  void answer_taken(std::string_view reply) {
    send(reply);
    outboxes_->taken.fetch_sub(1);
  }

  /// Write what the outbox holds, as far as the socket takes it. True
  /// when nothing is left (sent, or dropped with the connection).
  bool flush() {
    std::lock_guard<std::mutex> lock(mutex_);
    while (!dropped_ && !outbox_.empty()) {
      const ssize_t n = ::send(fd, outbox_.data(), outbox_.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        outbox_.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                           errno == EINTR)) {
        return false;
      } else {
        drop_locked();
      }
    }
    return true;
  }

 private:
  /// Shutting the socket down also ends the connection's reader.
  void drop_locked() {
    dropped_ = true;
    std::string().swap(outbox_);
    ::shutdown(fd, SHUT_RDWR);
  }

  std::shared_ptr<Outboxes> outboxes_;
  std::mutex mutex_;
  std::string outbox_;  ///< non-empty = registered with the listener
  bool dropped_ = false;
};

void ReplySink::send(std::string_view reply) const {
  conn_->answer_taken(reply);
}

namespace {

struct Pending {
  std::shared_ptr<ClientConn> conn;
  std::string line;
  std::chrono::steady_clock::time_point enqueued;
};

/// How long a stopping server keeps flushing outboxes once every taken
/// frame is answered; a client that reads nothing for this long loses
/// its last replies.
constexpr auto kDrainFlush = std::chrono::seconds(2);

}  // namespace

LineServer::LineServer(LineServerConfig cfg) : cfg_(std::move(cfg)) {}

int LineServer::serve(int listen_fd, std::atomic<bool>& stop) {
  struct ClientSlot {
    std::shared_ptr<ClientConn> conn;
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  std::mutex mutex;  // guards queue, clients
  std::condition_variable cv;
  std::deque<Pending> queue;
  std::vector<ClientSlot> clients;
  const auto outboxes = std::make_shared<Outboxes>(cfg_.max_frame_bytes);
  std::atomic<bool> drained{false};  // the executor has returned

  // Per-connection reader: split the byte stream into frames and admit
  // them. A full queue answers immediately with an error — backpressure
  // the client can see — instead of buffering without bound. An
  // over-sized complete frame is answered and skipped (the stream
  // resyncs at its newline); an over-sized lineless stream cannot
  // resync, so it is answered and dropped. With nothing pending on the
  // connection, cfg_.reader_hook may take a frame right here; a reply it
  // sends before returning follows every earlier reply of the connection.
  auto reader = [&](std::shared_ptr<ClientConn> conn,
                    std::shared_ptr<std::atomic<bool>> done) {
    const ReplySink sink(conn);
    FrameBuffer frames;
    while (!stop.load() && frames.refill(conn->fd) > 0) {
      std::string_view frame;
      while (frames.next(frame)) {
        if (frame.empty()) continue;
        std::string line(frame);
        if (line.size() > cfg_.max_frame_bytes) {
          conn->send(cfg_.oversize_response(line));
          continue;  // complete frame: the connection stays usable
        }
        if (cfg_.reader_hook && conn->pending.load() == 0) {
          outboxes->taken.fetch_add(1);
          if (cfg_.reader_hook(line, sink)) continue;
          outboxes->taken.fetch_sub(1);
        }
        bool rejected = false;
        {
          std::lock_guard<std::mutex> lock(mutex);
          rejected = queue.size() >= cfg_.max_queue;
          if (!rejected) {
            conn->pending.fetch_add(1);
            queue.push_back({conn, std::move(line),
                             std::chrono::steady_clock::now()});
            depth_.store(queue.size());
          }
        }
        if (rejected) {
          conn->send(cfg_.reject_response(line));
        } else {
          cv.notify_one();
        }
      }
      if (frames.partial() > cfg_.max_frame_bytes) {
        conn->send(cfg_.oversize_response(std::string()));
        break;  // cannot resync a lineless stream; drop the connection
      }
    }
    done->store(true);
  };

  // Listener: accepts connections, flushes stalled outboxes, and reaps
  // finished clients each pass, so short-lived connections don't
  // accumulate fds and unjoined threads for the life of the server. It
  // polls so the loop notices shutdown within 200 ms. Once stopping, it
  // accepts nothing more, and it returns once the executor has drained,
  // every frame the reader hook took is answered and every outbox is
  // flushed (or kDrainFlush has passed).
  std::thread listener([&] {
    std::vector<std::shared_ptr<ClientConn>> stalled;
    std::optional<std::chrono::steady_clock::time_point> flush_until;
    std::vector<pollfd> pfds;
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        for (auto it = clients.begin(); it != clients.end();) {
          if (it->done->load()) {
            it->thread.join();  // reader already exited: join is instant
            it = clients.erase(it);
          } else {
            ++it;
          }
        }
      }
      // Read before taking the stalled list: a reply registers its stalled
      // connection before it counts as answered.
      const bool stopping = stop.load();
      const bool answered = drained.load() && outboxes->taken.load() == 0;
      {
        std::lock_guard<std::mutex> lock(outboxes->mutex);
        for (auto& conn : outboxes->stalled) stalled.push_back(std::move(conn));
        outboxes->stalled.clear();
      }
      if (answered) {
        const auto now = std::chrono::steady_clock::now();
        if (!flush_until) flush_until = now + kDrainFlush;
        if (stalled.empty() || now > *flush_until) break;
      }
      pfds.clear();
      pfds.push_back({stopping ? -1 : listen_fd, POLLIN, 0});
      pfds.push_back({outboxes->wake_fd, POLLIN, 0});
      for (const auto& conn : stalled) pfds.push_back({conn->fd, POLLOUT, 0});
      const int ready =
          ::poll(pfds.data(), pfds.size(), stopping ? 5 : 200);
      if (ready <= 0) continue;
      if (pfds[1].revents != 0) {
        std::uint64_t count = 0;
        [[maybe_unused]] const ssize_t n =
            ::read(outboxes->wake_fd, &count, sizeof count);
      }
      for (std::size_t i = stalled.size(); i-- > 0;) {
        if (pfds[i + 2].revents != 0 && stalled[i]->flush())
          stalled.erase(stalled.begin() + static_cast<std::ptrdiff_t>(i));
      }
      if (pfds[0].revents == 0) continue;
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) continue;
      auto conn = std::make_shared<ClientConn>(fd, outboxes);
      auto done = std::make_shared<std::atomic<bool>>(false);
      std::lock_guard<std::mutex> lock(mutex);
      clients.push_back({conn, std::thread(reader, conn, done), done});
    }
  });

  // The executor (this thread) drains the admission queue in order; a
  // stop request drains what was already admitted before returning
  // (SIGTERM = draining shutdown).
  while (true) {
    Pending p;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait_for(lock, std::chrono::milliseconds(200), [&] {
        return !queue.empty() || stop.load();
      });
      if (queue.empty()) {
        if (stop.load()) break;
        continue;
      }
      p = std::move(queue.front());
      queue.pop_front();
      depth_.store(queue.size());
    }
    const double queued_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - p.enqueued)
            .count();
    p.conn->send(cfg_.handler(p.line, queued_ms), /*admitted=*/true);
  }
  drained.store(true);

  // Teardown order matters: join the listener FIRST (it observes stop
  // within one poll interval, then drains), so the client set is final
  // before we unblock readers — a connection accepted mid-teardown could
  // otherwise keep a reader parked in recv() forever.
  listener.join();
  {
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto& client : clients) ::shutdown(client.conn->fd, SHUT_RDWR);
  }
  for (ClientSlot& client : clients) client.thread.join();
  clients.clear();
  ::close(listen_fd);
  return 0;
}

}  // namespace epg
