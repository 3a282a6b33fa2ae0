// epgc_serve service layer: the strict JSON reader, request parsing,
// NDJSON responses (malformed input is answered, never fatal), stream
// serving equivalence with direct compilation, deterministic-mode
// bit-stability, per-request deadlines, protocol versioning, the health
// verb, and the Unix-socket/TCP transports (oversized frames, mid-request
// disconnects, queue-wait deadline charging, connect/shutdown races).
#include "service/service.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <thread>

#include "circuit/serialize.hpp"
#include "common/build_info.hpp"
#include "common/json_value.hpp"
#include "compile/framework.hpp"
#include "graph/generators.hpp"
#include "io/graph_io.hpp"
#include "service/protocol.hpp"

namespace epg {
namespace {

// ---- JsonValue ------------------------------------------------------------

TEST(JsonValue, ParsesScalarsObjectsAndArrays) {
  const JsonValue v = JsonValue::parse(
      R"({"a": 1.5, "b": "x\ny", "c": [1, 2, 3], "d": {"e": true}, )"
      R"("f": null, "neg": -7e2})");
  EXPECT_EQ(v.get_number("a", 0), 1.5);
  EXPECT_EQ(v.get_string("b", ""), "x\ny");
  ASSERT_NE(v.find("c"), nullptr);
  EXPECT_EQ(v.find("c")->items().size(), 3u);
  EXPECT_EQ(v.find("c")->items()[2].as_number(), 3.0);
  EXPECT_TRUE(v.find("d")->get_bool("e", false));
  EXPECT_TRUE(v.find("f")->is_null());
  EXPECT_EQ(v.get_number("neg", 0), -700.0);
}

TEST(JsonValue, ParsesEscapesIncludingSurrogatePairs) {
  EXPECT_EQ(JsonValue::parse(R"("\u0041\u00e9")").as_string(),
            "A\xc3\xa9");
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(JsonValue::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonValue, KeepsIntegerLiteralsExactPast2To53) {
  // A plain-digit literal keeps its exact uint64 value alongside the
  // double, so 64-bit counters survive parse → get_u64/dump round-trips.
  const JsonValue v = JsonValue::parse(
      R"({"big": 18446744073709551615, "odd": 9007199254740993,)"
      R"( "frac": 1.5, "exp": 1e3, "neg": -4})");
  ASSERT_TRUE(v.find("big")->is_u64());
  EXPECT_EQ(v.find("big")->as_u64(), 18446744073709551615ull);
  EXPECT_EQ(v.get_u64("big", 0), 18446744073709551615ull);
  EXPECT_EQ(v.find("big")->dump(), "18446744073709551615");
  EXPECT_EQ(v.get_u64("odd", 0), 9007199254740993ull);  // 2^53 + 1
  EXPECT_FALSE(v.find("frac")->is_u64());
  EXPECT_FALSE(v.find("exp")->is_u64());  // exponent form: double only
  EXPECT_EQ(v.get_u64("exp", 0), 1000u);  // ...but still integral-valued
  EXPECT_FALSE(v.find("neg")->is_u64());
  EXPECT_THROW(v.find("frac")->as_u64(), std::invalid_argument);
}

TEST(JsonValue, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\":1,}", "tru", "01", "1.",
        "\"unterminated", "\"\\q\"", "\"\\ud800\"", "{\"a\":1} trailing",
        "{'a':1}", "\"raw\ntab\""})
    EXPECT_THROW(JsonValue::parse(bad), std::invalid_argument) << bad;
}

TEST(JsonValue, TypedGettersRejectWrongTypes) {
  const JsonValue v = JsonValue::parse(R"({"s": "x", "n": 1.5})");
  EXPECT_THROW(v.get_number("s", 0), std::invalid_argument);
  EXPECT_THROW(v.get_string("n", ""), std::invalid_argument);
  EXPECT_THROW(v.get_u64("n", 0), std::invalid_argument);  // non-integer
}

// ---- request parsing ------------------------------------------------------

TEST(ServiceProtocol, ParsesCompileRequestWithDefaults) {
  const Graph g = make_ring(8);
  const ServiceRequest req = parse_service_request(
      "{\"op\":\"compile\",\"id\":7,\"graph\":\"" + write_graph6(g) +
      "\"}");
  EXPECT_EQ(req.op, ServiceOp::compile);
  EXPECT_EQ(req.id_json, "7");
  ASSERT_EQ(req.jobs.size(), 1u);
  EXPECT_TRUE(req.jobs[0].graph == g);
  // epgc_compile defaults, so service results replay CLI results.
  EXPECT_EQ(req.jobs[0].framework.partition.g_max, 7u);
  EXPECT_EQ(req.jobs[0].framework.seed, 1u);
  EXPECT_EQ(req.jobs[0].framework.verify_seeds, 2);
}

TEST(ServiceProtocol, ParsesEdgeListGraphs) {
  const ServiceRequest req = parse_service_request(
      R"({"op":"compile","n":3,"edges":[[0,1],[1,2]]})");
  EXPECT_EQ(req.jobs[0].graph.vertex_count(), 3u);
  EXPECT_EQ(req.jobs[0].graph.edge_count(), 2u);
}

TEST(ServiceProtocol, RejectsBadRequests) {
  for (const char* bad : {
           "not json",
           "[1,2]",                               // not an object
           R"({"id":1})",                         // no op
           R"({"op":"frobnicate"})",              // unknown op
           R"({"op":"compile"})",                 // no graph
           R"({"op":"compile","graph":"!!!!"})",  // bad graph6
           R"({"op":"compile","n":2,"edges":[[0,5]]})",  // oob edge
           R"({"op":"compile","graph":"GhCGKC","compiler":"magic"})",
           R"({"op":"batch","jobs":[]})",  // empty batch
       })
    EXPECT_THROW(parse_service_request(bad), std::invalid_argument) << bad;
}

TEST(ServiceProtocol, ExtractsIdsFromMalformedLines) {
  EXPECT_EQ(extract_request_id(R"({"id": 42, "op":)"), "null");
  EXPECT_EQ(extract_request_id(R"({"id": 42, "op": "x"})"), "42");
  EXPECT_EQ(extract_request_id(R"({"id": "abc"})"), "\"abc\"");
}

// ---- serving --------------------------------------------------------------

ServiceConfig test_config() {
  ServiceConfig cfg;
  cfg.batch.threads = 1;
  return cfg;
}

TEST(Service, MalformedLinesGetErrorResponsesNotDeath) {
  Service service(test_config());
  const std::string resp = service.handle_line("{\"id\":3,\"op\":");
  const JsonValue v = JsonValue::parse(resp);
  EXPECT_FALSE(v.get_bool("ok", true));
  EXPECT_NE(v.get_string("error", ""), "");
  EXPECT_EQ(service.counters().errors, 1u);
}

TEST(Service, CompileMatchesDirectFrameworkRun) {
  const Graph g = make_waxman(10, 3);
  Service service(test_config());
  const std::string resp = service.handle_line(
      "{\"op\":\"compile\",\"id\":1,\"graph\":\"" + write_graph6(g) +
      "\",\"seed\":5,\"circuit\":true}");
  const JsonValue v = JsonValue::parse(resp);
  ASSERT_TRUE(v.get_bool("ok", false)) << resp;

  FrameworkConfig cfg;
  cfg.seed = 5;
  const FrameworkResult direct = compile_framework(g, cfg);
  EXPECT_EQ(v.get_u64("ee_cnot_count", 9999),
            direct.stats().ee_cnot_count);
  EXPECT_EQ(v.get_u64("emission_count", 9999),
            direct.stats().emission_count);
  EXPECT_EQ(v.get_u64("makespan_ticks", 9999),
            static_cast<std::uint64_t>(direct.stats().makespan_ticks));
  EXPECT_EQ(v.get_u64("ne_limit", 9999), direct.ne_limit);
  EXPECT_TRUE(v.get_bool("verified", false));
  EXPECT_EQ(v.get_string("circuit", ""),
            serialize_circuit(direct.schedule.circuit));
}

TEST(Service, ServeStreamAnswersEveryLineInOrder) {
  const Graph g = make_ring(6);
  const std::string g6 = write_graph6(g);
  std::istringstream in(
      "{\"op\":\"ping\",\"id\":1}\n"
      "garbage\n"
      "{\"op\":\"compile\",\"id\":2,\"graph\":\"" + g6 + "\"}\n"
      "{\"op\":\"compile\",\"id\":3,\"graph\":\"" + g6 + "\"}\n"
      "{\"op\":\"stats\",\"id\":4}\n"
      "{\"op\":\"shutdown\",\"id\":5}\n"
      "{\"op\":\"ping\",\"id\":6}\n");  // after shutdown: never answered
  std::ostringstream out;
  Service service(test_config());
  EXPECT_EQ(service.serve_stream(in, out), 0);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<JsonValue> responses;
  while (std::getline(lines, line))
    responses.push_back(JsonValue::parse(line));
  ASSERT_EQ(responses.size(), 6u);
  EXPECT_EQ(responses[0].get_string("op", ""), "ping");
  EXPECT_FALSE(responses[1].get_bool("ok", true));  // garbage -> error
  EXPECT_TRUE(responses[2].get_bool("ok", false));
  EXPECT_EQ(responses[2].get_string("tier", ""), "compiled");
  // Same graph again: served from the warm in-memory cache.
  EXPECT_TRUE(responses[3].get_bool("ok", false));
  EXPECT_EQ(responses[3].get_string("tier", ""), "memory");
  EXPECT_EQ(responses[4].get_u64("requests", 0), 5u);
  EXPECT_EQ(responses[5].get_string("op", ""), "shutdown");
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(Service, DeterministicResponsesAreBitStableAcrossInstances) {
  const std::string line =
      "{\"op\":\"compile\",\"id\":1,\"graph\":\"" +
      write_graph6(make_waxman(10, 7)) + "\",\"circuit\":true}";
  ServiceConfig cfg = test_config();
  cfg.batch.deterministic = true;
  Service a(cfg);
  Service b(cfg);
  const std::string ra = a.handle_line(line);
  EXPECT_EQ(ra, b.handle_line(line));
  EXPECT_EQ(ra.find("wall_ms"), std::string::npos)
      << "deterministic responses must not embed timings";
}

TEST(Service, BatchRequestCompilesAndDeduplicates) {
  const std::string g6 = write_graph6(make_ring(6));
  Service service(test_config());
  const std::string resp = service.handle_line(
      R"({"op":"batch","id":9,"jobs":[{"graph":")" + g6 +
      R"("},{"graph":")" + g6 + R"("}]})");
  const JsonValue v = JsonValue::parse(resp);
  ASSERT_TRUE(v.get_bool("ok", false)) << resp;
  EXPECT_EQ(v.get_u64("jobs", 0), 2u);
  EXPECT_EQ(v.get_u64("compiled", 9), 1u);
  EXPECT_EQ(v.get_u64("dedup_hits", 9), 1u);
  ASSERT_NE(v.find("results"), nullptr);
  EXPECT_EQ(v.find("results")->items().size(), 2u);
}

TEST(Service, DeadlineExpiredInQueueIsAnsweredNotCompiled) {
  Service service(test_config());
  const std::string line =
      "{\"op\":\"compile\",\"id\":1,\"graph\":\"" +
      write_graph6(make_ring(6)) + "\",\"deadline_ms\":10}";
  // Simulate 50 ms spent waiting for admission.
  const std::string resp = service.handle_line(line, 50.0);
  const JsonValue v = JsonValue::parse(resp);
  EXPECT_FALSE(v.get_bool("ok", true));
  EXPECT_NE(v.get_string("error", "").find("deadline"), std::string::npos);
  EXPECT_EQ(service.counters().expired, 1u);
  EXPECT_EQ(service.batch().totals().jobs, 0u) << "must not compile late";
}

TEST(Service, OnceModeAnswersExactlyOneRequest) {
  ServiceConfig cfg = test_config();
  cfg.once = true;
  Service service(cfg);
  std::istringstream in("{\"op\":\"ping\",\"id\":1}\n"
                        "{\"op\":\"ping\",\"id\":2}\n");
  std::ostringstream out;
  service.serve_stream(in, out);
  EXPECT_EQ(service.counters().requests, 1u);
}

// ---- Unix-socket transport ------------------------------------------------

TEST(Service, SocketServesConcurrentClients) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("epgc-serve-test-" + std::to_string(::getpid()) + ".sock"))
          .string();
  ServiceConfig cfg = test_config();
  Service service(cfg);
  std::thread server([&] { service.serve_socket(path); });

  // Wait for the socket to appear (the server thread binds it).
  for (int i = 0; i < 200 && !std::filesystem::exists(path); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(std::filesystem::exists(path));

  auto request = [&](const std::string& line) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0);
    const std::string out = line + "\n";
    EXPECT_EQ(::send(fd, out.data(), out.size(), 0),
              static_cast<ssize_t>(out.size()));
    std::string response;
    char chunk[512];
    while (response.find('\n') == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      response.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
  };

  const std::string g6 = write_graph6(make_ring(6));
  const std::string pong = request("{\"op\":\"ping\",\"id\":1}");
  EXPECT_TRUE(JsonValue::parse(pong).get_bool("ok", false)) << pong;
  const std::string compiled =
      request("{\"op\":\"compile\",\"id\":2,\"graph\":\"" + g6 + "\"}");
  EXPECT_TRUE(JsonValue::parse(compiled).get_bool("ok", false)) << compiled;

  request("{\"op\":\"shutdown\",\"id\":3}");
  server.join();
  EXPECT_FALSE(std::filesystem::exists(path)) << "socket unlinked on exit";
}

// ---- protocol versioning --------------------------------------------------

TEST(Service, AcceptsMatchingProtoPinsAndEchoesRevision) {
  Service service(test_config());
  for (const char* line : {R"({"op":"ping","id":1,"proto":1})",
                           R"({"op":"ping","id":1,"proto":"1"})",
                           R"({"op":"ping","id":1,"proto":"1.0"})",
                           R"({"op":"ping","id":1})"}) {
    const JsonValue v = JsonValue::parse(service.handle_line(line));
    EXPECT_TRUE(v.get_bool("ok", false)) << line;
    // Every response states the revision the server actually speaks.
    EXPECT_EQ(v.get_string("proto", ""), proto_string()) << line;
  }
}

TEST(Service, RejectsUnknownProtoMajorStructurally) {
  Service service(test_config());
  const JsonValue v = JsonValue::parse(
      service.handle_line(R"({"op":"ping","id":1,"proto":99})"));
  EXPECT_FALSE(v.get_bool("ok", true));
  EXPECT_EQ(v.get_string("code", ""), kErrUnsupportedProto);
  EXPECT_EQ(v.get_number("id", 0), 1.0) << "id still echoed";

  // A proto field that is not a major at all is a bad request, not an
  // unsupported version.
  const JsonValue bad = JsonValue::parse(
      service.handle_line(R"({"op":"ping","id":1,"proto":true})"));
  EXPECT_EQ(bad.get_string("code", ""), kErrBadRequest);
  const JsonValue frac = JsonValue::parse(
      service.handle_line(R"({"op":"ping","id":1,"proto":1.5})"));
  EXPECT_EQ(frac.get_string("code", ""), kErrBadRequest);
}

TEST(Service, EveryVerbEchoesTheRequestTraceId) {
  Service service(test_config());
  const std::string g6 = write_graph6(make_ring(6));
  for (const std::string& body :
       {std::string(R"("op":"ping")"), std::string(R"("op":"stats")"),
        std::string(R"("op":"health")"), std::string(R"("op":"metrics")"),
        "\"op\":\"compile\",\"graph\":\"" + g6 + "\"",
        "\"op\":\"batch\",\"jobs\":[{\"graph\":\"" + g6 + "\"}]",
        std::string(R"("op":"shutdown")")}) {
    const std::string line = "{" + body + R"(,"id":1,"trace_id":"t-42"})";
    const JsonValue v = JsonValue::parse(service.handle_line(line));
    EXPECT_TRUE(v.get_bool("ok", false)) << line;
    EXPECT_EQ(v.get_string("trace_id", ""), "t-42") << line;
  }
}

// ---- health verb ----------------------------------------------------------

TEST(Service, HealthReportsUptimeQueueAndTierHits) {
  Service service(test_config());
  const std::string g6 = write_graph6(make_ring(6));
  service.handle_line("{\"op\":\"compile\",\"id\":1,\"graph\":\"" + g6 +
                      "\"}");
  service.handle_line("{\"op\":\"compile\",\"id\":2,\"graph\":\"" + g6 +
                      "\"}");
  const JsonValue v =
      JsonValue::parse(service.handle_line(R"({"op":"health","id":3})"));
  EXPECT_TRUE(v.get_bool("ok", false));
  EXPECT_EQ(v.get_string("op", ""), "health");
  EXPECT_EQ(v.get_u64("max_queue", 0), 64u);
  EXPECT_EQ(v.get_u64("queue_depth", 9), 0u) << "stream mode has no queue";
  EXPECT_EQ(v.get_u64("requests", 0), 3u);
  EXPECT_EQ(v.get_u64("compiled", 9), 1u);
  EXPECT_EQ(v.get_u64("memory_hits", 9), 1u);
  ASSERT_NE(v.find("uptime_ms"), nullptr);
}

// ---- TCP transport --------------------------------------------------------

/// Spin up serve_tcp on an ephemeral port and hand back a connected
/// LineConn factory. Joins the server on destruction.
class TcpServiceFixture {
 public:
  explicit TcpServiceFixture(ServiceConfig cfg) : service_(cfg) {
    thread_ = std::thread([this] { service_.serve_tcp("127.0.0.1", 0); });
    while (service_.tcp_port() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ~TcpServiceFixture() {
    service_.stop();
    // A zero-byte connect unblocks the accept loop so stop is noticed.
    std::string err;
    const int fd = connect_tcp("127.0.0.1", service_.tcp_port(), err);
    if (fd >= 0) ::close(fd);
    thread_.join();
  }
  Service& service() { return service_; }
  LineConn connect() {
    std::string err;
    const int fd = connect_tcp("127.0.0.1", service_.tcp_port(), err);
    EXPECT_GE(fd, 0) << err;
    return LineConn(fd);
  }

 private:
  Service service_;
  std::thread thread_;
};

TEST(ServiceTcp, ServesCompileOverTcp) {
  TcpServiceFixture fx(test_config());
  LineConn conn = fx.connect();
  ASSERT_TRUE(conn.write_line(R"({"op":"ping","id":1})"));
  std::string resp;
  ASSERT_TRUE(conn.read_line(resp));
  EXPECT_TRUE(JsonValue::parse(resp).get_bool("ok", false)) << resp;

  ASSERT_TRUE(conn.write_line(
      "{\"op\":\"compile\",\"id\":2,\"graph\":\"" +
      write_graph6(make_ring(6)) + "\"}"));
  ASSERT_TRUE(conn.read_line(resp));
  const JsonValue v = JsonValue::parse(resp);
  EXPECT_TRUE(v.get_bool("ok", false)) << resp;
  EXPECT_EQ(v.get_string("tier", ""), "compiled");
}

TEST(ServiceTcp, OversizedFrameIsAnsweredAndConnectionResyncs) {
  ServiceConfig cfg = test_config();
  cfg.max_frame_bytes = 256;
  TcpServiceFixture fx(cfg);
  LineConn conn = fx.connect();

  // A complete line over the cap: answered with a structured error, then
  // the connection keeps working at the next newline.
  ASSERT_TRUE(conn.write_line("{\"op\":\"ping\",\"id\":1,\"pad\":\"" +
                              std::string(512, 'x') + "\"}"));
  std::string resp;
  ASSERT_TRUE(conn.read_line(resp));
  EXPECT_EQ(JsonValue::parse(resp).get_string("code", ""),
            kErrOversizedFrame)
      << resp;
  ASSERT_TRUE(conn.write_line(R"({"op":"ping","id":2})"));
  ASSERT_TRUE(conn.read_line(resp));
  EXPECT_TRUE(JsonValue::parse(resp).get_bool("ok", false))
      << "connection must resync after an oversized frame: " << resp;

  // A stream that exceeds the cap with no newline at all is answered and
  // dropped (it is not speaking the protocol). Raw send: no newline.
  LineConn hog = fx.connect();
  const std::string lineless(4096, 'y');
  ASSERT_GT(::send(hog.fd(), lineless.data(), lineless.size(),
                   MSG_NOSIGNAL),
            0);
  ASSERT_TRUE(hog.read_line(resp));
  EXPECT_EQ(JsonValue::parse(resp).get_string("code", ""),
            kErrOversizedFrame);
  EXPECT_FALSE(hog.read_line(resp)) << "lineless hog must be dropped";
}

TEST(ServiceTcp, MidRequestDisconnectDoesNotKillTheServer) {
  TcpServiceFixture fx(test_config());
  {
    // Half a request, then hang up mid-line.
    LineConn half = fx.connect();
    const std::string partial = "{\"op\":\"compile\",\"id\":1,";
    ASSERT_GE(::send(half.fd(), partial.data(), partial.size(),
                     MSG_NOSIGNAL),
              0);
  }  // closed here
  {
    // A full request whose client vanishes before the response lands:
    // the executor's write hits a dead socket and must not SIGPIPE.
    LineConn ghost = fx.connect();
    ASSERT_TRUE(ghost.write_line(
        "{\"op\":\"compile\",\"id\":2,\"graph\":\"" +
        write_graph6(make_waxman(10, 3)) + "\"}"));
  }  // closed before the compile finishes
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  LineConn conn = fx.connect();
  ASSERT_TRUE(conn.write_line(R"({"op":"ping","id":3})"));
  std::string resp;
  ASSERT_TRUE(conn.read_line(resp));
  EXPECT_TRUE(JsonValue::parse(resp).get_bool("ok", false)) << resp;
}

TEST(ServiceTcp, DeadlineIsChargedAgainstQueueWait) {
  TcpServiceFixture fx(test_config());
  // Pipeline on one connection: the compile occupies the single executor
  // while the zero-tolerance ping waits in the admission queue — its
  // deadline is charged against that wait, so it must expire.
  LineConn conn = fx.connect();
  ASSERT_TRUE(conn.write_line(
      "{\"op\":\"compile\",\"id\":1,\"graph\":\"" +
      write_graph6(make_waxman(24, 9)) + "\"}"));
  ASSERT_TRUE(
      conn.write_line(R"({"op":"ping","id":2,"deadline_ms":0.0001})"));
  std::string resp;
  ASSERT_TRUE(conn.read_line(resp));
  EXPECT_TRUE(JsonValue::parse(resp).get_bool("ok", false)) << resp;
  ASSERT_TRUE(conn.read_line(resp));
  const JsonValue v = JsonValue::parse(resp);
  EXPECT_FALSE(v.get_bool("ok", true)) << resp;
  EXPECT_EQ(v.get_string("code", ""), kErrDeadline) << resp;
  EXPECT_EQ(fx.service().counters().expired, 1u);
}

TEST(ServiceTcp, HitPipelinedBehindACompileStillQueuesAndExpires) {
  TcpServiceFixture fx(test_config());
  // The same as above with a cache hit in place of the ping: a connection
  // with a request pending never has a frame answered on its reader
  // thread, so the hit queues, and its deadline is charged against the
  // wait.
  const std::string ring = write_graph6(make_ring(6));
  LineConn conn = fx.connect();
  std::string resp;
  ASSERT_TRUE(conn.write_line(
      "{\"op\":\"compile\",\"id\":0,\"graph\":\"" + ring + "\"}"));
  ASSERT_TRUE(conn.read_line(resp));
  ASSERT_TRUE(conn.write_line(
      "{\"op\":\"compile\",\"id\":1,\"graph\":\"" +
      write_graph6(make_waxman(24, 9)) + "\"}"));
  ASSERT_TRUE(conn.write_line("{\"op\":\"compile\",\"id\":2,\"graph\":\"" +
                              ring + "\",\"deadline_ms\":0.0001}"));
  ASSERT_TRUE(conn.read_line(resp));
  EXPECT_EQ(JsonValue::parse(resp).get_number("id", 0), 1.0) << resp;
  EXPECT_TRUE(JsonValue::parse(resp).get_bool("ok", false)) << resp;
  ASSERT_TRUE(conn.read_line(resp));
  const JsonValue v = JsonValue::parse(resp);
  EXPECT_EQ(v.get_number("id", 0), 2.0) << resp;
  EXPECT_EQ(v.get_string("code", ""), kErrDeadline) << resp;
  EXPECT_EQ(fx.service().counters().expired, 1u);
}

TEST(ServiceTcp, HitIsAnsweredWhileAnotherConnectionCompiles) {
  TcpServiceFixture fx(test_config());
  const std::string hit = "{\"op\":\"compile\",\"id\":2,\"graph\":\"" +
                          write_graph6(make_ring(6)) + "\"}";
  LineConn b = fx.connect();
  std::string resp;
  ASSERT_TRUE(b.write_line(hit));
  ASSERT_TRUE(b.read_line(resp));  // compiled: the cache is now warm

  // A's uncached compile holds the one executor for hundreds of ms; B's
  // hit, sent once the executor has picked A up (it counts A's arrival
  // first), must come back while A's reply is still unwritten. Only a
  // compile faster than the hit's round trip could fail this.
  LineConn a = fx.connect();
  ASSERT_TRUE(a.write_line("{\"op\":\"compile\",\"id\":1,\"graph\":\"" +
                           write_graph6(make_waxman(48, 9)) + "\"}"));
  while (fx.service().counters().requests < 2) std::this_thread::yield();
  ASSERT_TRUE(b.write_line(hit));
  ASSERT_TRUE(b.read_line(resp));
  EXPECT_EQ(JsonValue::parse(resp).get_string("tier", ""), "memory") << resp;
  pollfd pfd{a.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 0), 0) << "the hit waited for the compile";
  ASSERT_TRUE(a.read_line(resp));
  EXPECT_EQ(JsonValue::parse(resp).get_string("tier", ""), "compiled")
      << resp;
  EXPECT_EQ(fx.service()
                .batch()
                .metrics()
                .counter("epgc_requests_inline_total")
                .value(),
            1u);
}

/// Every counter's value and every histogram's count in a registry, plus
/// the queue-wait sum (the other sums are wall times).
std::map<std::string, double> metric_snapshot(const MetricsRegistry& r) {
  const JsonValue v = JsonValue::parse(r.json());
  std::map<std::string, double> out;
  for (const auto& [name, value] : v.find("counters")->members())
    out[name] = value.as_number();
  for (const auto& [name, h] : v.find("histograms")->members())
    out[name + ".count"] = h.get_number("count", -1);
  out["epgc_queue_wait_ms.sum"] =
      v.find("histograms")->find("epgc_queue_wait_ms")->get_number("sum", -1);
  return out;
}

std::map<std::string, double> metric_delta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const double delta = value - (it == before.end() ? 0.0 : it->second);
    if (delta != 0.0) out[name] = delta;
  }
  return out;
}

TEST(ServiceTcp, InlineHitMatchesAStreamHitByteForByteAndCounter) {
  ServiceConfig cfg = test_config();
  cfg.batch.deterministic = true;
  const std::string g6 = write_graph6(make_waxman(10, 7));
  const std::string warm =
      "{\"op\":\"compile\",\"id\":1,\"graph\":\"" + g6 + "\"}";
  const std::string hit = "{\"op\":\"compile\",\"id\":2,\"graph\":\"" +
                          g6 + "\",\"circuit\":true}";

  Service stream(cfg);
  std::istringstream warm_in(warm + "\n");
  std::ostringstream warm_out;
  stream.serve_stream(warm_in, warm_out);
  const auto stream_before = metric_snapshot(stream.batch().metrics());
  std::istringstream hit_in(hit + "\n");
  std::ostringstream hit_out;
  stream.serve_stream(hit_in, hit_out);
  auto stream_delta = metric_delta(
      stream_before, metric_snapshot(stream.batch().metrics()));

  TcpServiceFixture fx(cfg);
  const MetricsRegistry& registry = fx.service().batch().metrics();
  LineConn conn = fx.connect();
  std::string resp;
  ASSERT_TRUE(conn.write_line(warm));
  ASSERT_TRUE(conn.read_line(resp));
  EXPECT_EQ(resp + "\n", warm_out.str());
  const auto socket_before = metric_snapshot(registry);
  ASSERT_TRUE(conn.write_line(hit));
  ASSERT_TRUE(conn.read_line(resp));
  auto socket_delta = metric_delta(socket_before, metric_snapshot(registry));

  EXPECT_EQ(resp + "\n", hit_out.str());
  EXPECT_EQ(socket_delta["epgc_requests_inline_total"], 1.0);
  socket_delta.erase("epgc_requests_inline_total");
  EXPECT_EQ(socket_delta, stream_delta);
  EXPECT_EQ(stream_delta["epgc_tier_hits_total{tier=\"memory\"}"], 1.0);
  EXPECT_EQ(stream_delta["epgc_requests_total"], 1.0);
}

TEST(ServiceTcp, ConcurrentClientsRacingShutdownAllGetAnswersOrEof) {
  TcpServiceFixture fx(test_config());
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&fx, &answered, c] {
      for (int i = 0; i < 20; ++i) {
        std::string err;
        const int fd = connect_tcp("127.0.0.1", fx.service().tcp_port(),
                                   err);
        if (fd < 0) return;  // listener already gone: fine
        LineConn conn(fd);
        if (!conn.write_line("{\"op\":\"ping\",\"id\":" +
                             std::to_string(c * 100 + i) + "}"))
          return;
        std::string resp;
        // Timeout: a connection accepted but never admitted (it raced the
        // drain) gets EOF or silence; both just end this client.
        if (!conn.read_line(resp, 2000)) return;
        EXPECT_TRUE(JsonValue::parse(resp).get_bool("ok", false)) << resp;
        answered.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  LineConn killer = fx.connect();
  killer.write_line(R"({"op":"shutdown","id":"kill"})");
  for (std::thread& t : clients) t.join();
  // Every response that did arrive was well-formed; at least the
  // pre-shutdown ones did.
  EXPECT_GT(answered.load(), 0);
}

}  // namespace
}  // namespace epg
