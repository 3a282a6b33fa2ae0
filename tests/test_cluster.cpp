// epgc_cluster front: consistent-hash ring properties, byte-identity of
// cluster responses with a single-process epgc_serve (the differential
// contract ci/serve_e2e.sh enforces end-to-end), worker kill + respawn
// with redelivery, front-answered ops, worker shutdown reaping, and the
// pipelined relay over a socket (many frames in flight per worker,
// redelivery of each, the in-flight cap, slow clients).
#include "cluster/cluster.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "common/json_value.hpp"
#include "graph/generators.hpp"
#include "io/graph_io.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"

namespace epg {
namespace {

// ---- hash ring ------------------------------------------------------------

TEST(HashRing, IsDeterministicAcrossInstances) {
  const HashRing a(5), b(5);
  for (std::uint64_t k = 0; k < 10000; ++k)
    ASSERT_EQ(a.route(k * 0x9e3779b97f4a7c15ULL),
              b.route(k * 0x9e3779b97f4a7c15ULL));
}

TEST(HashRing, RoutesEveryKeyToAValidWorker) {
  const HashRing ring(3);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const std::size_t w = ring.route(k * 0x2545F4914F6CDD1DULL);
    EXPECT_LT(w, 3u);
  }
  // Edge keys wrap, never fall off the ring.
  EXPECT_LT(ring.route(0), 3u);
  EXPECT_LT(ring.route(~std::uint64_t{0}), 3u);
}

TEST(HashRing, SpreadsKeysRoughlyEvenly) {
  const std::size_t workers = 4;
  const HashRing ring(workers);
  std::vector<std::size_t> counts(workers, 0);
  const std::size_t keys = 20000;
  for (std::uint64_t k = 0; k < keys; ++k)
    ++counts[ring.route(k * 0x9e3779b97f4a7c15ULL)];
  for (std::size_t w = 0; w < workers; ++w) {
    EXPECT_GT(counts[w], keys / workers / 3) << "worker " << w << " starved";
    EXPECT_LT(counts[w], keys / workers * 3) << "worker " << w << " hot";
  }
}

TEST(HashRing, GrowingTheRingMovesOnlyAFractionOfKeys) {
  // The point of consistent hashing: adding a worker must not reshuffle
  // the world (which would cold-start every worker's cache).
  const HashRing before(4), after(5);
  const std::size_t keys = 20000;
  std::size_t moved = 0;
  for (std::uint64_t k = 0; k < keys; ++k) {
    const std::uint64_t key = k * 0x9e3779b97f4a7c15ULL;
    if (before.route(key) != after.route(key)) ++moved;
  }
  EXPECT_LT(moved, keys / 2) << "growing 4->5 should move ~1/5 of keys";
  EXPECT_GT(moved, 0u);
}

// ---- cluster front --------------------------------------------------------

// ctest runs with CWD = the build tree, where the worker binary lives.
constexpr const char* kWorkerBin = "./epgc_serve";

/// Every test's runtime directory lives under one root per test process,
/// removed when the tests end (a forked front's directory too).
const std::filesystem::path kTestRoot =
    std::filesystem::temp_directory_path() /
    ("epgc-cluster-test-" + std::to_string(::getpid()));

class RemoveTestRoot : public ::testing::Environment {
 public:
  void TearDown() override { std::filesystem::remove_all(kTestRoot); }
};
[[maybe_unused]] const ::testing::Environment* const kRemoveTestRoot =
    ::testing::AddGlobalTestEnvironment(new RemoveTestRoot);

std::string fresh_runtime_dir(const std::string& tag) {
  const std::filesystem::path dir = kTestRoot / tag;
  std::filesystem::remove_all(dir);
  return dir.string();
}

ClusterConfig test_cluster_config(const std::string& tag) {
  ClusterConfig cfg;
  cfg.workers = 2;
  cfg.worker_bin = kWorkerBin;
  cfg.runtime_dir = fresh_runtime_dir(tag);
  cfg.worker_args = {"--deterministic"};
  // Mirrors the worker flag, exactly as the epgc_cluster app wires it:
  // the front must not inject generated trace_ids into deterministic
  // responses (byte-identity with single-process is the contract here).
  cfg.deterministic = true;
  return cfg;
}

ServiceConfig single_process_config() {
  ServiceConfig cfg;
  cfg.batch.deterministic = true;
  return cfg;
}

#define REQUIRE_WORKER_BIN()                                       \
  do {                                                             \
    if (!std::filesystem::exists(kWorkerBin))                      \
      GTEST_SKIP() << "worker binary not in CWD (run under ctest)"; \
  } while (0)

TEST(ClusterFront, ResponsesAreByteIdenticalToSingleProcess) {
  REQUIRE_WORKER_BIN();
  const std::string r6 = write_graph6(make_ring(6));
  const std::string w10 = write_graph6(make_waxman(10, 3));
  const std::string w12 = write_graph6(make_waxman(12, 5));
  const std::vector<std::string> requests = {
      R"({"op":"ping","id":1})",
      "{\"op\":\"compile\",\"id\":2,\"graph\":\"" + r6 + "\"}",
      "{\"op\":\"compile\",\"id\":3,\"graph\":\"" + w10 +
          "\",\"seed\":5,\"circuit\":true}",
      "{\"op\":\"compile\",\"id\":4,\"graph\":\"" + w12 + "\"}",
      // Repeat: the tier field must match too (memory on both sides),
      // which only holds because routing is graph-stable.
      "{\"op\":\"compile\",\"id\":5,\"graph\":\"" + r6 + "\"}",
      "{\"op\":\"batch\",\"id\":6,\"jobs\":[{\"graph\":\"" + w10 +
          "\"},{\"graph\":\"" + w10 + "\"}]}",
      // Error paths must produce the worker's bytes, not a front rewrite.
      R"({"op":"frobnicate","id":7})",
      "not json at all",
      R"({"op":"compile","id":8})",
      R"({"op":"compile","id":9,"proto":99,"graph":"x"})",
  };

  ClusterFront front(test_cluster_config("diff"));
  front.start();
  Service single(single_process_config());
  for (const std::string& line : requests)
    EXPECT_EQ(front.handle_line(line), single.handle_line(line)) << line;
  front.shutdown_workers();
}

TEST(ClusterFront, KilledWorkerIsRespawnedAndRequestRedelivered) {
  REQUIRE_WORKER_BIN();
  const std::string line =
      "{\"op\":\"compile\",\"id\":1,\"graph\":\"" +
      write_graph6(make_waxman(10, 3)) + "\"}";

  ClusterFront front(test_cluster_config("kill"));
  front.start();
  const std::string before = front.handle_line(line);
  EXPECT_EQ(JsonValue::parse(before).get_string("tier", ""), "compiled");

  // SIGKILL every worker: whichever owns this graph is gone, and the
  // in-flight-capable connection with it.
  std::vector<pid_t> old_pids;
  for (std::size_t i = 0; i < front.workers(); ++i) {
    const pid_t pid = front.worker_pid(i);
    ASSERT_GT(pid, 0);
    old_pids.push_back(pid);
    ::kill(pid, SIGKILL);
  }

  // The front must notice the dead connection, respawn, and redeliver.
  // The respawned worker's memory cache is empty, so the response equals
  // a fresh single process's bytes (tier "compiled" again).
  const std::string after = front.handle_line(line);
  Service fresh(single_process_config());
  EXPECT_EQ(after, fresh.handle_line(line));
  EXPECT_GE(front.respawns(), 1u);
  // The front's own registry counts the redelivery.
  const JsonValue metrics =
      JsonValue::parse(front.handle_line(R"({"op":"metrics","id":2})"));
  const JsonValue* front_counters = metrics.find("front");
  ASSERT_NE(front_counters, nullptr);
  front_counters = front_counters->find("counters");
  ASSERT_NE(front_counters, nullptr);
  EXPECT_GE(front_counters->get_u64("epgc_front_redeliveries_total", 0), 1u);

  // The worker that owned the request was respawned inline; the other one
  // is the monitor's job — poll until every worker runs under a new pid.
  const auto all_respawned = [&] {
    for (std::size_t i = 0; i < front.workers(); ++i) {
      const pid_t pid = front.worker_pid(i);
      if (pid <= 0 ||
          std::count(old_pids.begin(), old_pids.end(), pid) != 0)
        return false;
    }
    return true;
  };
  for (int i = 0; i < 200 && !all_respawned(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_TRUE(all_respawned()) << "monitor must respawn the other worker";
  EXPECT_GE(front.respawns(), 2u);
  front.shutdown_workers();
}

TEST(ClusterFront, FrontAnswersPingStatsHealthLocally) {
  REQUIRE_WORKER_BIN();
  ClusterFront front(test_cluster_config("ops"));
  front.start();

  // ping comes from the shared renderer: identical bytes to a worker's.
  Service single(single_process_config());
  EXPECT_EQ(front.handle_line(R"({"op":"ping","id":1})"),
            single.handle_line(R"({"op":"ping","id":1})"));

  const JsonValue health =
      JsonValue::parse(front.handle_line(R"({"op":"health","id":2})"));
  EXPECT_TRUE(health.get_bool("ok", false));
  EXPECT_EQ(health.get_string("role", ""), "front");
  ASSERT_NE(health.find("workers"), nullptr);
  EXPECT_EQ(health.find("workers")->items().size(), front.workers());

  const JsonValue stats =
      JsonValue::parse(front.handle_line(R"({"op":"stats","id":3})"));
  EXPECT_TRUE(stats.get_bool("ok", false));
  EXPECT_EQ(stats.get_u64("workers_configured", 0), front.workers());
  ASSERT_NE(stats.find("aggregate"), nullptr);
  ASSERT_NE(stats.find("workers"), nullptr);
  EXPECT_EQ(stats.find("workers")->items().size(), front.workers());

  // An unsupported proto pin on a front-answered op is rejected
  // structurally, exactly like a worker rejects it.
  const JsonValue rejected = JsonValue::parse(
      front.handle_line(R"({"op":"ping","id":4,"proto":99})"));
  EXPECT_FALSE(rejected.get_bool("ok", true));
  EXPECT_EQ(rejected.get_string("code", ""), "unsupported_proto");
  front.shutdown_workers();
}

TEST(ClusterFront, CountsEachRequestOnceFromItsResponse) {
  REQUIRE_WORKER_BIN();
  ClusterConfig cfg = test_cluster_config("count");
  cfg.delivery_attempts = 0;  // every forward fails with worker_failed
  ClusterFront front(cfg);
  front.start();
  const JsonValue failed = JsonValue::parse(front.handle_line(
      "{\"op\":\"compile\",\"id\":1,\"graph\":\"" +
      write_graph6(make_ring(6)) + "\"}"));
  EXPECT_EQ(failed.get_string("code", ""), "worker_failed");
  // The stats answer is ok although every per-worker probe inside it
  // fails; only the client-visible answers count.
  const JsonValue stats =
      JsonValue::parse(front.handle_line(R"({"op":"stats","id":2})"));
  EXPECT_TRUE(stats.get_bool("ok", false));
  EXPECT_EQ(stats.get_u64("requests", 0),
            stats.get_u64("ok_count", 0) + stats.get_u64("errors", 0));
  EXPECT_EQ(stats.get_u64("errors", 0), 1u);
  front.shutdown_workers();
}

TEST(ClusterFront, DeadlineIsChargedAgainstFrontQueueWait) {
  REQUIRE_WORKER_BIN();
  ClusterFront front(test_cluster_config("deadline"));
  front.start();
  const std::string resp = front.handle_line(
      R"({"op":"compile","id":1,"graph":"x","deadline_ms":10})", 50.0);
  const JsonValue v = JsonValue::parse(resp);
  EXPECT_FALSE(v.get_bool("ok", true));
  EXPECT_EQ(v.get_string("code", ""), "deadline");
  front.shutdown_workers();
}

TEST(ClusterFront, ShutdownReapsEveryWorkerProcess) {
  REQUIRE_WORKER_BIN();
  ClusterFront front(test_cluster_config("shutdown"));
  front.start();
  std::vector<pid_t> pids;
  for (std::size_t i = 0; i < front.workers(); ++i) {
    const pid_t pid = front.worker_pid(i);
    ASSERT_GT(pid, 0);
    pids.push_back(pid);
  }
  front.shutdown_workers();
  for (std::size_t i = 0; i < front.workers(); ++i)
    EXPECT_EQ(front.worker_pid(i), -1);
  // The processes are gone (reaped by the front, so kill(0) cannot find
  // them; ESRCH, not EPERM or success).
  for (const pid_t pid : pids) {
    EXPECT_EQ(::kill(pid, 0), -1);
    EXPECT_EQ(errno, ESRCH);
  }
  // Idempotent.
  front.shutdown_workers();
}

TEST(ClusterFront, WorkersEndWhenTheFrontIsKilled) {
  REQUIRE_WORKER_BIN();
  // Orphans are reparented to this process, which can then reap them.
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t front_pid = ::fork();
  ASSERT_GE(front_pid, 0);
  if (front_pid == 0) {
    // The front: report the worker's pid, then wait to be killed.
    ClusterConfig cfg = test_cluster_config("orphan");
    cfg.workers = 1;
    ClusterFront front(cfg);
    front.start();
    const pid_t worker = front.worker_pid(0);
    if (::write(fds[1], &worker, sizeof worker) != sizeof worker) ::_exit(1);
    while (true) ::pause();
  }
  ::close(fds[1]);
  pid_t worker = -1;
  const ssize_t got = ::read(fds[0], &worker, sizeof worker);
  ::close(fds[0]);
  ::kill(front_pid, SIGKILL);
  ::waitpid(front_pid, nullptr, 0);
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof worker)) << "the front failed";

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool ended = false;
  while (!ended && std::chrono::steady_clock::now() < deadline) {
    ended = ::waitpid(worker, nullptr, WNOHANG) == worker;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!ended) {
    ::kill(worker, SIGKILL);
    ::waitpid(worker, nullptr, 0);
  }
  EXPECT_TRUE(ended) << "the worker outlived its front";
}

// ---- pipelined relay over a socket ------------------------------------------

/// A started front serving a Unix socket on its own thread; stops the
/// listener and shuts the workers down on destruction.
class FrontFixture {
 public:
  explicit FrontFixture(ClusterConfig cfg)
      : path_(cfg.runtime_dir + "/front.sock"), front_(std::move(cfg)) {
    front_.start();
    thread_ = std::thread([this] { front_.serve_socket(path_); });
  }
  ~FrontFixture() {
    front_.stop();
    thread_.join();
    front_.shutdown_workers();
  }
  ClusterFront& front() { return front_; }
  LineConn connect() {
    std::string err;
    for (int i = 0; i < 400; ++i) {
      const int fd = connect_unix(path_, err);
      if (fd >= 0) return LineConn(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << err;
    return LineConn();
  }

 private:
  std::string path_;
  ClusterFront front_;
  std::thread thread_;
};

/// Write every line on `conn` at once, without waiting for a reply. A
/// front that stops reading fails the test instead of hanging it.
void send_all(LineConn& conn, const std::vector<std::string>& lines) {
  std::string bytes;
  for (const std::string& line : lines) bytes += line + "\n";
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    pollfd pfd{conn.fd(), POLLOUT, 0};
    ASSERT_EQ(::poll(&pfd, 1, 10000), 1) << "the front stopped reading";
    const ssize_t n = ::send(conn.fd(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

/// Read `count` replies and key them by their numeric id (-1 for a null
/// id); an id answered twice fails the test.
std::map<long, std::string> read_by_id(LineConn& conn, std::size_t count) {
  std::map<long, std::string> out;
  std::string resp;
  for (std::size_t i = 0; i < count; ++i) {
    if (!conn.read_line(resp, 60000)) {
      ADD_FAILURE() << "only " << i << " of " << count << " replies";
      break;
    }
    const JsonValue reply = JsonValue::parse(resp);
    const JsonValue* id_value = reply.find("id");
    const long id = id_value->type() == JsonValue::Type::number
                        ? static_cast<long>(id_value->as_number())
                        : -1;
    EXPECT_TRUE(out.emplace(id, resp).second) << "id answered twice: " << resp;
  }
  return out;
}

/// Requests in flight on worker 0, from the front's health verb.
std::uint64_t worker_in_flight(ClusterFront& front) {
  return JsonValue::parse(front.handle_line(R"({"op":"health","id":"h"})"))
      .find("workers")
      ->items()
      .front()
      .get_u64("in_flight", 0);
}

std::string compile_line(long id, const std::string& g6,
                         const std::string& extra = "") {
  return "{\"op\":\"compile\",\"id\":" + std::to_string(id) +
         ",\"graph\":\"" + g6 + "\"" + extra + "}";
}

TEST(ClusterFront, PipelinedFramesOnOneConnectionAreAllAnswered) {
  REQUIRE_WORKER_BIN();
  std::vector<std::string> graphs;
  for (std::size_t n = 5; n < 10; ++n) {
    graphs.push_back(write_graph6(make_ring(n)));
    graphs.push_back(write_graph6(make_waxman(n + 3, n)));
  }
  // Each graph's first request is a miss, every later one a hit; one
  // malformed line (its reply's id is null) rides along. The worker
  // answers in order, so the tier of every reply equals a single
  // process's for the same line order.
  std::vector<std::string> lines;
  for (long id = 0; id < 300; ++id)
    lines.push_back(id == 150 ? "{\"op\":\"compile\",\"id\":150,\"graph\":"
                              : compile_line(id, graphs[id % graphs.size()]));
  Service single(single_process_config());
  std::vector<std::string> expected;
  for (const std::string& line : lines)
    expected.push_back(single.handle_line(line));

  FrontFixture fx(test_cluster_config("pipe"));
  LineConn conn = fx.connect();
  send_all(conn, lines);
  const std::map<long, std::string> got = read_by_id(conn, lines.size());
  ASSERT_EQ(got.size(), lines.size());
  for (long id = 0; id < 300; ++id) {
    const auto it = got.find(id == 150 ? -1 : id);
    ASSERT_NE(it, got.end()) << "no reply for id " << id;
    EXPECT_EQ(it->second, expected[static_cast<std::size_t>(id)]) << id;
  }
  // Hits and misses reached every worker.
  const JsonValue stats = JsonValue::parse(
      fx.front().handle_line(R"({"op":"stats","id":"s"})"));
  for (const JsonValue& worker : stats.find("workers")->items()) {
    EXPECT_GT(worker.get_u64("compiled", 0), 0u);
    EXPECT_GT(worker.get_u64("memory_hits", 0), 0u);
  }
}

TEST(ClusterFront, KillWithRequestsInFlightRedeliversEach) {
  REQUIRE_WORKER_BIN();
  ClusterConfig cfg = test_cluster_config("inflight-kill");
  cfg.workers = 1;
  std::vector<std::string> lines;
  for (long id = 1; id <= 5; ++id)
    lines.push_back(compile_line(
        id, write_graph6(make_waxman(24, static_cast<std::uint64_t>(id)))));

  FrontFixture fx(cfg);
  LineConn conn = fx.connect();
  send_all(conn, lines);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (worker_in_flight(fx.front()) < 3)
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "never 3 requests in flight";
  ASSERT_EQ(::kill(fx.front().worker_pid(0), SIGKILL), 0);

  // The respawned worker compiles each request afresh, in order: every
  // reply equals a fresh process's.
  const std::map<long, std::string> got = read_by_id(conn, lines.size());
  Service fresh(single_process_config());
  for (long id = 1; id <= 5; ++id) {
    const auto it = got.find(id);
    ASSERT_NE(it, got.end()) << "no reply for id " << id;
    EXPECT_EQ(it->second,
              fresh.handle_line(lines[static_cast<std::size_t>(id - 1)]));
  }
  const JsonValue metrics = JsonValue::parse(
      fx.front().handle_line(R"({"op":"metrics","id":"m"})"));
  EXPECT_GE(metrics.find("front")->find("counters")->get_u64(
                "epgc_front_redeliveries_total", 0),
            1u);
  EXPECT_GE(fx.front().respawns(), 1u);
}

TEST(ClusterFront, InFlightCapRejectsAtTheFront) {
  REQUIRE_WORKER_BIN();
  ClusterConfig cfg = test_cluster_config("cap");
  cfg.workers = 1;
  cfg.max_queue = 2;
  std::vector<std::string> lines;
  for (long id = 1; id <= 5; ++id)
    lines.push_back(compile_line(
        id, write_graph6(make_waxman(24, static_cast<std::uint64_t>(id)))));

  FrontFixture fx(cfg);
  LineConn conn = fx.connect();
  send_all(conn, lines);
  const std::map<long, std::string> got = read_by_id(conn, lines.size());
  // The first two fill the worker's cap; the front answers the rest
  // itself, each under its own id.
  Service single(single_process_config());
  for (long id = 1; id <= 5; ++id) {
    const auto it = got.find(id);
    ASSERT_NE(it, got.end()) << "no reply for id " << id;
    const std::string& line = lines[static_cast<std::size_t>(id - 1)];
    EXPECT_EQ(it->second, id <= 2 ? single.handle_line(line)
                                  : queue_full_response(line, 2));
  }
  EXPECT_EQ(fx.front().counters().rejected, 3u);
}

TEST(ClusterFront, OversizedFrameIsAnsweredAtTheFrontNotForwarded) {
  REQUIRE_WORKER_BIN();
  ClusterConfig cfg = test_cluster_config("oversize");
  cfg.max_frame_bytes = 256;
  const std::string big = compile_line(1, write_graph6(make_waxman(12, 5)),
                                       ",\"pad\":\"" + std::string(512, 'x') + "\"");
  FrontFixture fx(cfg);
  LineConn conn = fx.connect();
  ASSERT_TRUE(conn.write_line(big));
  std::string resp;
  ASSERT_TRUE(conn.read_line(resp));
  EXPECT_EQ(resp, oversized_frame_response(big, 256));
  const JsonValue stats = JsonValue::parse(
      fx.front().handle_line(R"({"op":"stats","id":"s"})"));
  const JsonValue* workers = stats.find("aggregate");
  EXPECT_EQ(workers->get_u64("compiled", 9), 0u) << "a worker compiled it";
  EXPECT_EQ(workers->get_u64("errors", 9), 0u) << "a worker answered it";
}

TEST(ClusterFront, FrameAtTheCapStaysInOrderWithTheFrontsTraceId) {
  REQUIRE_WORKER_BIN();
  // Outside deterministic mode the front adds a trace_id to a frame that
  // has none, so a frame at the front's cap outgrows it. A worker that
  // answered it oversized_frame from its reader would overtake the
  // compile ahead of it, and each client would get the other's reply.
  ClusterConfig cfg = test_cluster_config("cap-trace");
  cfg.workers = 1;
  cfg.deterministic = false;
  cfg.worker_args.clear();
  cfg.max_frame_bytes = 300;
  std::string at_cap = compile_line(2, write_graph6(make_ring(6)));
  at_cap.insert(at_cap.size() - 1, cfg.max_frame_bytes - at_cap.size(), ' ');
  ASSERT_EQ(at_cap.size(), cfg.max_frame_bytes);

  FrontFixture fx(cfg);
  LineConn first = fx.connect();
  LineConn second = fx.connect();
  send_all(first, {compile_line(1, write_graph6(make_waxman(24, 1)))});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (worker_in_flight(fx.front()) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
  }
  send_all(second, {at_cap});
  for (auto [conn, id] : {std::pair{&first, 1L}, std::pair{&second, 2L}}) {
    const std::map<long, std::string> got = read_by_id(*conn, 1);
    ASSERT_EQ(got.count(id), 1u) << "connection " << id << " got another reply";
    const JsonValue reply = JsonValue::parse(got.at(id));
    EXPECT_TRUE(reply.get_bool("ok", false)) << got.at(id);
    EXPECT_FALSE(reply.get_string("trace_id", "").empty()) << got.at(id);
  }
}

TEST(ClusterFront, ClientThatNeverReadsDoesNotDelayAnotherClientsHits) {
  REQUIRE_WORKER_BIN();
  ClusterConfig cfg = test_cluster_config("slow-client");
  cfg.workers = 1;  // both clients share the one worker and its relay
  const std::string hit = compile_line(0, write_graph6(make_waxman(12, 5)),
                                       ",\"circuit\":true");
  FrontFixture fx(cfg);
  LineConn b = fx.connect();
  std::string resp;
  ASSERT_TRUE(b.write_line(hit));
  ASSERT_TRUE(b.read_line(resp));  // compiled: the cache is now warm
  ASSERT_TRUE(b.write_line(hit));
  ASSERT_TRUE(b.read_line(resp));
  const std::string expected_hit = resp;
  ASSERT_EQ(JsonValue::parse(resp).get_string("tier", ""), "memory");

  // A asks for far more reply bytes than its socket buffers hold, and
  // reads none of them.
  LineConn a = fx.connect();
  std::vector<std::string> flood;
  for (long id = 1; id <= 1000; ++id)
    flood.push_back(compile_line(id, write_graph6(make_waxman(12, 5)),
                                 ",\"circuit\":true"));
  send_all(a, flood);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fx.front().counters().requests + fx.front().counters().rejected <
             1002 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // B's hits on the same worker still come straight back.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(b.write_line(hit));
    ASSERT_TRUE(b.read_line(resp, 5000)) << "hit " << i << " stalled";
    EXPECT_EQ(resp, expected_hit);
  }
  // A's replies were kept for it, each once.
  const std::map<long, std::string> got = read_by_id(a, flood.size());
  EXPECT_EQ(got.size(), flood.size());
}

}  // namespace
}  // namespace epg
