#include "service/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace epg {

namespace {

std::string errno_string() { return std::strerror(errno); }

}  // namespace

int listen_unix(const std::string& path, std::string& err) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    err = "socket path too long: " + path;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
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
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
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
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
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
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
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

// ---- LineConn --------------------------------------------------------------

LineConn& LineConn::operator=(LineConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
    other.buffer_.clear();
  }
  return *this;
}

void LineConn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool LineConn::write_line(const std::string& line) {
  if (fd_ < 0) return false;
  std::string out = line;
  out += '\n';
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool LineConn::read_line(std::string& line, int timeout_ms) {
  if (fd_ < 0) return false;
  char chunk[4096];
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    if (timeout_ms > 0) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready <= 0) return false;  // timeout or poll error
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

// ---- LineServer ------------------------------------------------------------

namespace {

struct ServerConn {
  int fd = -1;
  std::mutex write_mutex;
  /// Requests admitted from this connection and not yet answered: raised
  /// by the reader before it queues one, lowered by write_line.
  std::atomic<std::size_t> pending{0};

  explicit ServerConn(int f) : fd(f) {}
  ~ServerConn() {
    if (fd >= 0) ::close(fd);
  }

  /// `admitted` marks the reply to a queued request. Its pending count
  /// drops under the write lock, before the bytes go out: a reader that
  /// then sees nothing pending writes its own reply after this one, and a
  /// client that has this reply never finds its request still pending.
  void write_line(const std::string& response, bool admitted = false) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (admitted) pending.fetch_sub(1);
    std::string out = response;
    out += '\n';
    std::size_t sent = 0;
    while (sent < out.size()) {
      // MSG_NOSIGNAL: a client that hung up must not SIGPIPE the server.
      const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;  // peer gone; the response dies with it
      sent += static_cast<std::size_t>(n);
    }
  }
};

struct Pending {
  std::shared_ptr<ServerConn> conn;
  std::string line;
  std::chrono::steady_clock::time_point enqueued;
};

}  // namespace

LineServer::LineServer(LineServerConfig cfg) : cfg_(std::move(cfg)) {}

int LineServer::serve(int listen_fd, std::atomic<bool>& stop) {
  struct ClientSlot {
    std::shared_ptr<ServerConn> conn;
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  std::mutex mutex;  // guards queue, clients
  std::condition_variable cv;
  std::deque<Pending> queue;
  std::vector<ClientSlot> clients;

  // Per-connection reader: split the byte stream into frames and admit
  // them. A full queue answers immediately with an error — backpressure
  // the client can see — instead of buffering without bound. An
  // over-sized complete frame is answered and skipped (the stream
  // resyncs at its newline); an over-sized lineless stream cannot
  // resync, so it is answered and dropped. With nothing pending on the
  // connection, cfg_.inline_handler may answer a frame right here: every
  // earlier reply holds or has released the write lock this reply waits
  // for, so the connection's replies keep request order.
  auto reader = [&](std::shared_ptr<ServerConn> conn,
                    std::shared_ptr<std::atomic<bool>> done) {
    std::string buffer;
    char chunk[4096];
    while (!stop.load()) {
      const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      if (buffer.size() > cfg_.max_frame_bytes &&
          buffer.find('\n') == std::string::npos) {
        conn->write_line(cfg_.oversize_response(std::string()));
        break;  // cannot resync a lineless stream; drop the connection
      }
      std::size_t nl;
      while ((nl = buffer.find('\n')) != std::string::npos) {
        std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        if (line.empty()) continue;
        if (line.size() > cfg_.max_frame_bytes) {
          conn->write_line(cfg_.oversize_response(line));
          continue;  // complete frame: the connection stays usable
        }
        if (cfg_.inline_handler && conn->pending.load() == 0) {
          const std::string response = cfg_.inline_handler(line);
          if (!response.empty()) {
            conn->write_line(response);
            continue;
          }
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
          conn->write_line(cfg_.reject_response(line));
        } else {
          cv.notify_one();
        }
      }
    }
    done->store(true);
  };

  // Acceptor: poll so the loop can notice shutdown within 200 ms. Also
  // reaps finished clients each pass, so short-lived connections don't
  // accumulate fds and unjoined threads for the life of the server.
  std::thread acceptor([&] {
    while (!stop.load()) {
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
      pollfd pfd{listen_fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 200);
      if (ready <= 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      auto conn = std::make_shared<ServerConn>(fd);
      auto done = std::make_shared<std::atomic<bool>>(false);
      std::lock_guard<std::mutex> lock(mutex);
      clients.push_back({conn, std::thread(reader, conn, done), done});
    }
  });

  // Executors drain the admission queue; a stop request drains what was
  // already admitted before returning (SIGTERM = draining shutdown).
  auto executor = [&] {
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
      p.conn->write_line(cfg_.handler(p.line, queued_ms), /*admitted=*/true);
    }
  };

  std::vector<std::thread> extra;
  for (std::size_t i = 1; i < cfg_.executors; ++i)
    extra.emplace_back(executor);
  executor();  // the calling thread is executor 0
  for (std::thread& t : extra) t.join();

  // Teardown order matters: join the acceptor FIRST (it observes stop
  // within one poll interval), so the client set is final before we
  // unblock readers — a connection accepted mid-teardown could otherwise
  // keep a reader parked in recv() forever.
  acceptor.join();
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
