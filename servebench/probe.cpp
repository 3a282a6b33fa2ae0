// servebench_probe: the in-process half of the serving benchmark.
//
//   servebench_probe verify FILE
//       FILE holds NDJSON records {"graph":"<graph6>","circuit":"<epgc>"}.
//       Each circuit is parsed and replayed against its graph with
//       verify_generates; prints one line per record, "ok" or "FAIL <why>".
//
//   servebench_probe openloop SOCKET CONNS TEMPLATES EXPECTED SCHEDULE OUT
//       Open-loop load generator over CONNS Unix-socket connections.
//       TEMPLATES holds one request line per key with "{id}" where the
//       request id goes; EXPECTED the byte-exact reply each key must get,
//       minus its leading {"id":N; SCHEDULE one "due_us key" line per
//       request. Request k is written at its due time however many earlier
//       ones are outstanding. OUT receives one "late_us latency_us status"
//       line per request: latency runs from the due time; status 0 = the
//       expected reply, 1 = a different reply, 2 = unanswered after a 5 s
//       drain, 3 = refused or failed ("ok":false, e.g. queue_full).
//
//   servebench_probe layers SPEC_JSON GRAPHS_FILE WORK_DIR
//       Times calls into each layer's public functions for every graph6
//       line of GRAPHS_FILE, under the compile spec SPEC_JSON (the service
//       request keys, e.g. {"lc":4}) with wall budgets lifted exactly as
//       the servers' --deterministic mode lifts them. WORK_DIR receives a
//       scratch result store. Prints one JSON object of layer metrics.
//
// Timings are taken from outside, around one public call each, so they
// need no spans inside the library.
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/serialize.hpp"
#include "common/compile_spec.hpp"
#include "common/json_value.hpp"
#include "compile/framework.hpp"
#include "compile/scheduler.hpp"
#include "compile/stem.hpp"
#include "compile/verify.hpp"
#include "graph/metrics.hpp"
#include "io/graph_io.hpp"
#include "partition/partition_strategy.hpp"
#include "runtime/batch_compiler.hpp"
#include "service/service.hpp"
#include "store/result_store.hpp"

namespace {

using namespace epg;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

template <class F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return ms_since(t0);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) out.push_back(line);
  return out;
}

int cmd_verify(const std::string& path) {
  for (const std::string& line : read_lines(path)) {
    try {
      const JsonValue rec = JsonValue::parse(line);
      const Graph g = read_graph6(rec.get_string("graph", ""));
      const Circuit c = parse_circuit(rec.get_string("circuit", ""));
      const VerifyReport report = verify_generates(c, g, 2);
      std::cout << (report.ok ? "ok" : "FAIL " + report.message) << '\n';
    } catch (const std::exception& e) {
      std::cout << "FAIL " << e.what() << '\n';
    }
  }
  return 0;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (fd < 0 || path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("bad socket " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw std::runtime_error("cannot connect to " + path);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

int cmd_openloop(const std::string& path, std::size_t conns,
                 const std::string& templates_path,
                 const std::string& expected_path,
                 const std::string& schedule_path,
                 const std::string& out_path) {
  std::vector<std::pair<std::string, std::string>> templates;
  for (const std::string& t : read_lines(templates_path)) {
    const std::size_t at = t.find("{id}");
    if (at == std::string::npos) throw std::runtime_error("template lacks {id}");
    templates.emplace_back(t.substr(0, at), t.substr(at + 4) + "\n");
  }
  const std::vector<std::string> expected = read_lines(expected_path);
  std::vector<double> due_ms;
  std::vector<std::size_t> key;
  {
    std::ifstream in(schedule_path);
    double us = 0;
    std::size_t k = 0;
    while (in >> us >> k) {
      if (k >= templates.size() || k >= expected.size())
        throw std::runtime_error("schedule key out of range");
      due_ms.push_back(us / 1000.0);
      key.push_back(k);
    }
  }
  const std::size_t n = due_ms.size();
  std::vector<double> sent(n, 0.0), done(n, -1.0);
  std::vector<int> status(n, 2);

  struct Link {
    int fd = -1;
    std::string in, out;
  };
  std::vector<Link> links(conns);
  const int ep = ::epoll_create1(0);
  for (std::size_t c = 0; c < conns; ++c) {
    links[c].fd = connect_unix(path);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, links[c].fd, &ev);
  }
  const auto t0 = Clock::now() + std::chrono::milliseconds(10);
  auto now_ms = [&] {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };
  const double end_ms = n ? due_ms.back() : 0.0;
  std::size_t next = 0, answered = 0;
  char buf[1 << 16];
  while (answered < n) {
    double now = now_ms();
    for (; next < n && due_ms[next] <= now; ++next) {
      Link& l = links[next % conns];
      l.out += templates[key[next]].first + std::to_string(next) +
               templates[key[next]].second;
      sent[next] = now;
    }
    bool pending = false;
    for (Link& l : links) {
      if (l.out.empty()) continue;
      const ssize_t w = ::send(l.fd, l.out.data(), l.out.size(), MSG_NOSIGNAL);
      if (w > 0) l.out.erase(0, static_cast<std::size_t>(w));
      else if (w < 0 && errno != EAGAIN) throw std::runtime_error("send failed");
      pending |= !l.out.empty();
    }
    int timeout = 0;
    if (next < n) {
      // epoll_wait sleeps whole milliseconds: sleep until ~1 ms before the
      // next due time, then poll without blocking so sends stay on time.
      const double gap = due_ms[next] - now_ms();
      timeout = gap > 1.5 ? static_cast<int>(gap - 1.0) : 0;
    } else if (now > end_ms + 5000.0) {
      break;
    } else {
      timeout = 20;
    }
    if (pending) timeout = 0;
    epoll_event events[16];
    const int got = ::epoll_wait(ep, events, 16, timeout);
    for (int e = 0; e < got; ++e) {
      Link& l = links[events[e].data.u64];
      const ssize_t r = ::recv(l.fd, buf, sizeof buf, 0);
      if (r == 0) throw std::runtime_error("server closed a connection");
      if (r < 0) continue;
      const double t = now_ms();
      l.in.append(buf, static_cast<std::size_t>(r));
      std::size_t line_start = 0;
      for (std::size_t nl; (nl = l.in.find('\n', line_start)) != std::string::npos;
           line_start = nl + 1) {
        // Replies open with {"id":N — the rest must match byte for byte.
        const char* p = l.in.c_str() + line_start;
        if (std::strncmp(p, "{\"id\":", 6) != 0) continue;
        char* rest = nullptr;
        const unsigned long long id = std::strtoull(p + 6, &rest, 10);
        if (id >= n || done[id] >= 0) continue;
        done[id] = t;
        ++answered;
        const std::size_t rest_len = l.in.c_str() + nl - rest;
        const std::string& want = expected[key[id]];
        const std::string_view reply(rest, rest_len);
        status[id] = reply == want                                 ? 0
                     : reply.find("\"ok\":false") != reply.npos ? 3
                                                                  : 1;
      }
      l.in.erase(0, line_start);
    }
  }
  for (Link& l : links) ::close(l.fd);
  ::close(ep);
  std::ofstream out(out_path);
  out.precision(6);
  out << std::fixed;
  for (std::size_t i = 0; i < n; ++i)
    out << (sent[i] - due_ms[i]) * 1000.0 << ' '
        << (done[i] >= 0 ? (done[i] - due_ms[i]) * 1000.0 : -1.0) << ' '
        << status[i] << '\n';
  return 0;
}

std::string part_key(const SubgraphSpec& spec) {
  std::string key = write_graph6(spec.graph);
  for (bool b : spec.boundary) key.push_back(b ? '1' : '0');
  return key;
}

struct Layers {
  std::map<std::string, std::vector<double>> samples;  // medians
  std::map<std::string, double> sums;                   // totals
  std::set<std::string> part_keys;                      // distinct specs
  void add(const std::string& k, double v) { samples[k].push_back(v); }
  void sum(const std::string& k, double v) { sums[k] += v; }
};

// A repeated cheap call: the median of `reps` timings, in microseconds.
template <class F>
double median_us(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(1000.0 * time_ms(f));
  return median(t);
}

void probe_graph(const std::string& g6, const CompileSpec& spec,
                 const std::string& request, const std::string& work_dir,
                 bool hit_paths, Layers& L) {
  const Graph g = read_graph6(g6);
  CompileJob job = make_compile_job(spec, "probe", g);
  job.framework.partition.time_budget_ms = kUnboundedBudgetMs;
  job.framework.subgraph.time_budget_ms = kUnboundedBudgetMs;
  FrameworkConfig cfg = job.framework;

  // graph: the emitter budget's exact height, natural order.
  std::vector<Vertex> order(g.vertex_count());
  for (Vertex v = 0; v < g.vertex_count(); ++v) order[v] = v;
  std::size_t ne_min = 0;
  L.add("graph.height_ms",
        time_ms([&] { ne_min = min_emitters_for_order(g, order); }));
  ne_min = std::max<std::size_t>(ne_min, 1);
  const auto ne_limit =
      cfg.ne_limit_override > 0
          ? cfg.ne_limit_override
          : static_cast<std::uint32_t>(std::max<double>(
                1.0, std::ceil(cfg.ne_limit_factor *
                               static_cast<double>(ne_min))));

  // partition: the strategy itself, then stem planning.
  LcPartitionConfig pcfg = cfg.partition;
  pcfg.seed ^= cfg.seed;
  const PartitionStrategy* strategy = find_partition_strategy(pcfg.strategy);
  if (strategy == nullptr) throw std::runtime_error("unknown strategy");
  PartitionOutcome outcome;
  L.add("partition.strategy_ms", time_ms([&] {
          outcome = strategy->run(g, pcfg, Executor::serial());
        }));
  const StemPlan plan = plan_stems(outcome);
  L.sum("partition.stems", static_cast<double>(plan.stem_edges.size()));

  // subgraph: every planned part at ne_min, +1, +2 (capped by Ne_limit, as
  // the pipeline caps it); the cheapest success feeds the schedule call.
  SubgraphCompileConfig scfg = cfg.subgraph;
  scfg.hw = cfg.hw;
  std::vector<CompiledPart> parts;
  for (const PartPlan& part : plan.parts) {
    const std::uint32_t part_ne_min = subgraph_ne_min(part.spec.graph);
    L.sum("subgraph.parts", 1);
    L.part_keys.insert(part_key(part.spec));
    bool have = false;
    SubgraphCircuit best;
    for (std::uint32_t extra = 0; extra < 3; ++extra) {
      const std::uint32_t ne = part_ne_min + extra;
      if (extra > 0 && ne > ne_limit) break;
      SubgraphCompileConfig c = scfg;
      c.ne_limit = ne;
      SubgraphCompileResult r;
      L.sum("subgraph.ms", time_ms([&] { r = compile_subgraph(part.spec, c); }));
      L.sum("subgraph.searches", 1);
      L.sum("subgraph.nodes", static_cast<double>(r.nodes_explored));
      if (r.nodes_explored >= c.node_budget) L.sum("subgraph.exhausted", 1);
      if (!r.success) continue;
      const auto key = [](const SubgraphCircuit& s) {
        return std::make_pair(s.stats.ee_cnot_count, s.stats.makespan_ticks);
      };
      if (!have || key(r.best) < key(best)) best = r.best;
      have = true;
    }
    if (!have) throw std::runtime_error("subgraph compilation failed");
    parts.push_back({best, part.to_global});
  }

  // schedule: one Tetris pass over the cheapest variants.
  ScheduleConfig sched;
  sched.ne_limit = ne_limit;
  sched.hw = cfg.hw;
  sched.alap_tetris = cfg.alap_tetris;
  const double call_ms = time_ms([&] {
    schedule_parts(parts, plan.stem_edges, plan.part_of, plan.local_of,
                   g.vertex_count(), sched);
  });
  L.add("schedule.call_ms", call_ms);

  // runtime: the whole compile, serial and at 3 inner lanes.
  cfg.inner_threads = 0;
  FrameworkResult result;
  const double wall0 = time_ms([&] { result = compile_framework(g, cfg); });
  cfg.inner_threads = 3;
  const double wall3 = time_ms([&] { compile_framework(g, cfg); });
  L.sum("runtime.wall0_ms", wall0);
  L.sum("runtime.wall3_ms", wall3);
  for (const StageTiming& st : result.stage_ms) {
    L.sum("pipeline.stage_ms." + st.stage, st.ms);
    if (st.stage == "schedule") L.add("schedule.stage_calls_equiv", st.ms / call_ms);
  }
  const double peak = static_cast<double>(result.schedule.peak_usage) /
                      static_cast<double>(result.ne_limit);
  L.add("schedule.peak_over_cap", peak);
  L.sum("schedule.over_cap_graphs",
        result.stats().emitters_used > result.ne_limit ? 1 : 0);

  // verify: the replay the pipeline's last stage runs.
  L.add("verify.ms", time_ms([&] {
          verify_generates(result.schedule.circuit, g, cfg.verify_seeds,
                           cfg.seed + 17);
        }));

  // store: one put and one get of this result.
  StoreConfig store_cfg;
  store_cfg.dir = work_dir + "/store";
  CompileResultStore store(store_cfg);
  StoredResult stored;
  stored.stats = result.stats();
  stored.ne_min = result.ne_min;
  stored.ne_limit = result.ne_limit;
  stored.stem_count = result.stem_count;
  stored.parts = result.partition.parts.size();
  stored.lc_depth = result.partition.lc_sequence.size();
  stored.strategy = result.strategy;
  stored.verified = result.verified;
  stored.circuit = result.schedule.circuit;
  const std::uint64_t fp = config_fingerprint(cfg);
  L.add("store.put_ms", time_ms([&] {
          store.put(g, fp, CompilerKind::framework, stored);
        }));
  L.add("store.get_ms", time_ms([&] {
          if (!store.get(g, fp, CompilerKind::framework))
            throw std::runtime_error("store miss after put");
        }));

  // runtime / service hit paths (first graph only, the one the benchmark's
  // socket hit probe sends), warmed by one compile each.
  if (!hit_paths) return;
  BatchConfig bcfg;
  bcfg.threads = 1;
  bcfg.deterministic = true;
  BatchCompiler batch(bcfg);
  const std::vector<CompileJob> jobs = {job};
  batch.run(jobs);
  L.add("runtime.hit_us", median_us(200, [&] { batch.run(jobs); }));

  ServiceConfig svc_cfg;
  svc_cfg.batch.threads = 1;
  svc_cfg.batch.deterministic = true;
  Service service(svc_cfg);
  service.handle_line(request);
  L.add("service.hit_handle_us",
        median_us(200, [&] { service.handle_line(request); }));
}

int cmd_layers(const std::string& spec_json, const std::string& graphs_path,
               const std::string& work_dir) {
  const JsonValue spec_obj = JsonValue::parse(spec_json);
  CompileSpec spec;
  apply_compile_spec_json(spec, spec_obj);
  Layers L;
  bool first = true;
  for (const std::string& g6 : read_lines(graphs_path)) {
    // The hit-path request the servers would see for this graph.
    std::string request = spec_json;
    request.pop_back();  // drop the closing brace
    request += std::string(request.size() > 1 ? "," : "") +
               "\"op\":\"compile\",\"id\":1,\"graph\":\"";
    for (char ch : g6) {  // graph6 is printable ASCII; only '\\' needs escaping
      if (ch == '\\') request += '\\';
      request += ch;
    }
    request += "\"}";
    probe_graph(g6, spec, request, work_dir, first, L);
    first = false;
  }
  auto& S = L.sums;
  S["subgraph.exhausted_ratio"] =
      S["subgraph.exhausted"] / S["subgraph.searches"];
  S["subgraph.distinct_part_ratio"] =
      static_cast<double>(L.part_keys.size()) / S["subgraph.parts"];
  S["runtime.lane_speedup"] = S["runtime.wall0_ms"] / S["runtime.wall3_ms"];
  S["schedule.cap_overshoot_ratio"] =
      S["schedule.over_cap_graphs"] /
      static_cast<double>(L.samples["schedule.peak_over_cap"].size());
  std::ostringstream out;
  out.precision(17);
  out << '{';
  bool leading = true;
  auto emit = [&](const std::string& k, double v) {
    out << (leading ? "" : ",") << '"' << k << "\":" << v;
    leading = false;
  };
  for (const auto& [k, v] : L.samples)
    if (!v.empty()) emit(k, k == "schedule.peak_over_cap"
                                 ? *std::max_element(v.begin(), v.end())
                                 : median(v));
  for (const auto& [k, v] : L.sums) emit(k, v);
  out << '}';
  std::cout << out.str() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 2 && args[0] == "verify") return cmd_verify(args[1]);
    if (args.size() == 7 && args[0] == "openloop")
      return cmd_openloop(args[1], std::stoul(args[2]), args[3], args[4],
                          args[5], args[6]);
    if (args.size() == 4 && args[0] == "layers")
      return cmd_layers(args[1], args[2], args[3]);
  } catch (const std::exception& e) {
    std::cerr << "servebench_probe: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "usage: servebench_probe verify FILE\n"
               "       servebench_probe openloop SOCKET CONNS TEMPLATES "
               "EXPECTED SCHEDULE OUT\n"
               "       servebench_probe layers SPEC_JSON GRAPHS_FILE WORK_DIR\n";
  return 2;
}
