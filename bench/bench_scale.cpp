// bench_scale: the scale-envelope tier — huge-graph latency (1k .. 100k
// vertices) in two modes.
//
// Default mode benches the partition stage across every registered
// strategy: how large a graph can each PartitionStrategy partition inside
// a fixed wall budget, and at what cut quality? --full-pipeline benches
// the whole five-stage compile (partition, subgraph, schedule,
// correction, verify) through compile_framework on the deterministic
// multilevel tier, reporting per-stage wall time and the compiled-circuit
// metrics; bench_pipeline still tracks paper-size latency.
//
// Every cell runs in a FORKED child with a hard timeout: a run that
// stalls is killed, recorded as a timeout, and larger sizes of the same
// (family, strategy) pair are skipped. The JSON schema is the
// bench_pipeline one (instance/strategy/inner_threads cells with
// deterministic metric keys + wall_ms), so ci/check_perf.py can gate a
// checked-in baseline of either mode; timed-out cells live in a separate
// "timeouts" array that the gate never reads.
//
// Determinism: multilevel cells run at inner thread counts {0,2,8} and
// the bench fails if any deterministic metric disagrees — in
// --full-pipeline mode that covers every compiled metric plus an FNV-1a
// hash of the serialized circuit and its explicit gate times, and since
// each cell is its own process the check also gates cross-process
// reproducibility of the full compile. Flat-strategy cells (default mode
// only) stop on their work budget or on a wall deadline (half the
// timeout), whichever comes first; the deadline makes their quality
// load-dependent, so they are benched at a single thread count. They are
// the only cells, anywhere, that set a finite wall budget.
//
// Full-pipeline child config: no wall budget anywhere (the determinism
// contract requires it), flexible_ne_max_trials=64 (the uncapped
// improvement pass is quadratic in parts), verify_seeds=1 up to 1k
// vertices and 0 above (tableau verification is O(n^2) memory — ~1.25 GB
// at 50k).
//
// usage: bench_scale [--json FILE] [--timeout-s N] [--quick] [--huge]
//                    [--strategies a,b,c] [--full-pipeline]
//   --json FILE        machine-readable results (CI artifact)
//   --timeout-s N      per-cell hard budget (default 60, full-pipeline 1800)
//   --quick            1k vertices only (smoke mode)
//   --huge             add the 100k tier to the default 1k/10k/50k sweep
//   --strategies CSV   subset of registered strategies (default: all) —
//                      CI runs `--quick --strategies multilevel` as a
//                      seconds-cheap cross-process determinism gate
//   --full-pipeline    bench all five stages (multilevel only) instead of
//                      the partition stage; CI runs `--quick
//                      --full-pipeline` as the end-to-end determinism
//                      smoke
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/serialize.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "compile/framework.hpp"
#include "graph/generators.hpp"
#include "graph/local_complement.hpp"
#include "partition/partition_strategy.hpp"
#include "solver/partition_refine.hpp"

namespace {

using namespace epg;

constexpr std::size_t kNumStages = 5;

struct Cell {
  std::string instance;
  std::size_t n = 0;
  std::string strategy;
  std::size_t inner_threads = 0;
  double wall_ms = 0.0;
  std::size_t stems = 0;
  std::size_t parts = 0;
  std::size_t lc_depth = 0;
  bool valid = false;
  enum class Status { ok, timeout, skipped, error } status = Status::ok;
  // --full-pipeline extras (zero / empty in partition-only mode).
  std::size_t ee = 0;
  unsigned long long makespan = 0;
  std::size_t peak = 0;
  std::size_t local_ops = 0;
  std::size_t emissions = 0;
  std::size_t measures = 0;
  bool verified = false;
  std::string circuit_hash;
  double stage[kNumStages] = {0, 0, 0, 0, 0};
};

LcPartitionConfig scale_config(const std::string& strategy,
                               double flat_budget_ms) {
  LcPartitionConfig cfg;
  cfg.strategy = strategy;
  cfg.g_max = 7;
  cfg.max_lc_ops = 15;
  cfg.seed = 7;
  // The flat searches honor this at their cooperative checkpoints; the
  // multilevel pipeline has no wall deadline (it is a pure function of
  // (g, cfg)), which is what makes its cells reproducible bit-for-bit.
  cfg.time_budget_ms = flat_budget_ms;
  return cfg;
}

FrameworkConfig pipeline_config(std::size_t n, std::size_t threads) {
  FrameworkConfig cfg;
  // No wall deadline: a binding one truncates the searches at a
  // load-dependent point and would break the bit-identity this bench
  // gates across thread counts and processes.
  cfg.partition = scale_config("multilevel", kUnboundedBudgetMs);
  // compile_framework xors the framework seed into the partition seed;
  // zero keeps the effective partition seed at 7, matching the
  // partition-only cells so the two modes compile the same partitions.
  cfg.seed = 0;
  // Tableau verification allocates O(n^2) bits — fine at 1k, ~1.25 GB at
  // 50k. verify_seeds is a pure function of n, so the cells stay
  // comparable across hosts.
  cfg.verify_seeds = n <= 1000 ? 1 : 0;
  // The uncapped flexible-ne improvement pass costs one full re-schedule
  // per rejected swap — quadratic in parts at these sizes. The cap is a
  // pure function of n, so every cell of one instance agrees on it.
  cfg.flexible_ne_max_trials = n <= 1000 ? 64 : n <= 10000 ? 16 : 4;
  cfg.inner_threads = threads;
  return cfg;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Order- and value-sensitive digest of the compiled artifact: the
/// serialized gate list plus the explicit per-gate start/end ticks and
/// per-photon emission times. Two runs agree on this iff they produced
/// the same circuit with the same schedule.
std::string schedule_digest(const GlobalSchedule& s) {
  const std::string text = serialize_circuit(s.circuit);
  std::uint64_t h = 14695981039346656037ull;
  h = fnv1a(h, text.data(), text.size());
  h = fnv1a(h, s.gate_start.data(), s.gate_start.size() * sizeof(Tick));
  h = fnv1a(h, s.gate_end.data(), s.gate_end.size() * sizeof(Tick));
  h = fnv1a(h, s.photon_emit.data(), s.photon_emit.size() * sizeof(Tick));
  h = fnv1a(h, &s.makespan, sizeof s.makespan);
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

/// Fork a child, run `child_line` there, write its one-line report to a
/// pipe, and collect it in the parent under a hard timeout. Returns the
/// payload ("" on error); sets `timed_out` when the child was killed.
template <typename MakeLine>
std::string run_forked(MakeLine&& child_line, int timeout_s,
                       bool& timed_out, bool& io_error) {
  timed_out = false;
  io_error = false;
  int fds[2];
  if (pipe(fds) != 0) {
    io_error = true;
    return {};
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    io_error = true;
    return {};
  }
  if (pid == 0) {
    close(fds[0]);
    std::string line;
    try {
      line = child_line();
    } catch (const std::exception& e) {
      line = std::string("error ") + e.what() + "\n";
    }
    const ssize_t written = write(fds[1], line.data(), line.size());
    (void)written;
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  // Parent: poll the pipe with the deadline; kill on expiry.
  std::string payload;
  Stopwatch watch;
  for (;;) {
    fd_set set;
    FD_ZERO(&set);
    FD_SET(fds[0], &set);
    const double left_ms = timeout_s * 1000.0 - watch.elapsed_ms();
    if (left_ms <= 0) {
      timed_out = true;
      break;
    }
    timeval tv;
    tv.tv_sec = static_cast<time_t>(left_ms / 1000.0);
    tv.tv_usec = static_cast<suseconds_t>(
        (left_ms - tv.tv_sec * 1000.0) * 1000.0);
    const int ready = select(fds[0] + 1, &set, nullptr, nullptr, &tv);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      timed_out = true;
      break;
    }
    char buf[256];
    const ssize_t got = read(fds[0], buf, sizeof buf);
    if (got <= 0) break;  // EOF: child finished writing
    payload.append(buf, static_cast<std::size_t>(got));
    if (!payload.empty() && payload.back() == '\n') break;
  }
  close(fds[0]);
  if (timed_out) kill(pid, SIGKILL);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  return payload;
}

/// Run one partition-stage (graph, strategy, threads) cell.
Cell run_cell(const Graph& g, Cell cell, double flat_budget_ms,
              int timeout_s) {
  bool timed_out = false, io_error = false;
  const std::string payload = run_forked(
      [&] {
        const LcPartitionConfig cfg =
            scale_config(cell.strategy, flat_budget_ms);
        const PartitionStrategy* strategy =
            find_partition_strategy(cfg.strategy);
        const Executor exec(cell.inner_threads);
        Stopwatch watch;
        const PartitionOutcome out = strategy->run(g, cfg, exec);
        const double ms = watch.elapsed_ms();
        Graph replay = g;
        for (Vertex v : out.lc_sequence) local_complement(replay, v);
        const bool valid =
            replay == out.transformed &&
            out.lc_sequence.size() <= cfg.max_lc_ops &&
            partition_is_valid(out.transformed, out.labels, cfg.g_max);
        std::ostringstream os;
        os << "ok " << ms << ' ' << out.stem_edge_count << ' '
           << out.parts.size() << ' ' << out.lc_sequence.size() << ' '
           << (valid ? 1 : 0) << '\n';
        return os.str();
      },
      timeout_s, timed_out, io_error);

  std::istringstream is(payload);
  std::string tag;
  if (timed_out || io_error || !(is >> tag) || tag != "ok") {
    cell.status = timed_out ? Cell::Status::timeout : Cell::Status::error;
    cell.wall_ms = timeout_s * 1000.0;
    return cell;
  }
  int valid = 0;
  is >> cell.wall_ms >> cell.stems >> cell.parts >> cell.lc_depth >> valid;
  cell.valid = valid != 0;
  cell.status = Cell::Status::ok;
  return cell;
}

/// Run one full-pipeline (graph, threads) cell: all five framework
/// stages through compile_framework, multilevel partitioning.
Cell run_full_cell(const Graph& g, Cell cell, int timeout_s) {
  bool timed_out = false, io_error = false;
  const std::string payload = run_forked(
      [&] {
        const FrameworkConfig cfg =
            pipeline_config(g.vertex_count(), cell.inner_threads);
        Stopwatch watch;
        const FrameworkResult r = compile_framework(g, cfg);
        const double ms = watch.elapsed_ms();
        // Self-check: every photon emitted, the emitter cap respected, no
        // unresolved deadlock, and (when verification ran) verified.
        const bool valid =
            r.schedule.photon_emit.size() == g.vertex_count() &&
            r.schedule.limit_respected && !r.schedule.deadlocked &&
            (cfg.verify_seeds <= 0 || r.verified);
        const CircuitStats& st = r.stats();
        std::ostringstream os;
        os << "ok " << ms << ' ' << r.stem_count << ' '
           << r.partition.parts.size() << ' '
           << r.partition.lc_sequence.size() << ' ' << (valid ? 1 : 0)
           << ' ' << st.ee_cnot_count << ' '
           << static_cast<unsigned long long>(st.makespan_ticks) << ' '
           << st.emitters_used << ' ' << st.local_count << ' '
           << st.emission_count << ' ' << st.measure_count << ' '
           << (r.verified ? 1 : 0) << ' ' << schedule_digest(r.schedule);
        double stage[kNumStages] = {0, 0, 0, 0, 0};
        for (const StageTiming& t : r.stage_ms) {
          const char* names[kNumStages] = {"partition", "subgraph",
                                           "schedule", "correction",
                                           "verify"};
          for (std::size_t s = 0; s < kNumStages; ++s)
            if (t.stage == names[s]) stage[s] = t.ms;
        }
        for (std::size_t s = 0; s < kNumStages; ++s) os << ' ' << stage[s];
        os << '\n';
        return os.str();
      },
      timeout_s, timed_out, io_error);

  std::istringstream is(payload);
  std::string tag;
  if (timed_out || io_error || !(is >> tag) || tag != "ok") {
    cell.status = timed_out ? Cell::Status::timeout : Cell::Status::error;
    cell.wall_ms = timeout_s * 1000.0;
    return cell;
  }
  int valid = 0, verified = 0;
  is >> cell.wall_ms >> cell.stems >> cell.parts >> cell.lc_depth >>
      valid >> cell.ee >> cell.makespan >> cell.peak >> cell.local_ops >>
      cell.emissions >> cell.measures >> verified >> cell.circuit_hash;
  for (std::size_t s = 0; s < kNumStages; ++s) is >> cell.stage[s];
  cell.valid = valid != 0 && !is.fail();
  cell.verified = verified != 0;
  cell.status = Cell::Status::ok;
  return cell;
}

void write_json(std::ostream& os, const std::vector<Cell>& cells,
                int timeout_s, bool full) {
  std::vector<const Cell*> ok, failed;
  for (const Cell& c : cells)
    (c.status == Cell::Status::ok ? ok : failed).push_back(&c);
  os << "{\n  \"bench\": \""
     << (full ? "scale_pipeline" : "scale_partition")
     << "\",\n  \"timeout_s\": " << timeout_s << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < ok.size(); ++i) {
    const Cell& c = *ok[i];
    os << "    {\"instance\": \"" << json_escape(c.instance)
       << "\", \"n\": " << c.n << ", \"strategy\": \""
       << json_escape(c.strategy) << "\", \"inner_threads\": "
       << c.inner_threads << ", \"wall_ms\": " << c.wall_ms
       << ", \"stems\": " << c.stems << ", \"parts\": " << c.parts
       << ", \"lc_depth\": " << c.lc_depth << ", \"valid\": "
       << (c.valid ? "true" : "false");
    if (full) {
      os << ", \"ee_cnot\": " << c.ee << ", \"makespan\": " << c.makespan
         << ", \"emitters_used\": " << c.peak << ", \"local_count\": "
         << c.local_ops << ", \"emission_count\": " << c.emissions
         << ", \"measure_count\": " << c.measures << ", \"verified\": "
         << (c.verified ? "true" : "false") << ", \"circuit_hash\": \""
         << json_escape(c.circuit_hash) << "\", \"stage_ms\": {"
         << "\"partition\": " << c.stage[0] << ", \"subgraph\": "
         << c.stage[1] << ", \"schedule\": " << c.stage[2]
         << ", \"correction\": " << c.stage[3] << ", \"verify\": "
         << c.stage[4] << '}';
    }
    os << '}' << (i + 1 < ok.size() ? "," : "") << '\n';
  }
  os << "  ],\n  \"timeouts\": [\n";
  for (std::size_t i = 0; i < failed.size(); ++i) {
    const Cell& c = *failed[i];
    os << "    {\"instance\": \"" << json_escape(c.instance)
       << "\", \"strategy\": \"" << json_escape(c.strategy)
       << "\", \"inner_threads\": " << c.inner_threads << ", \"status\": \""
       << (c.status == Cell::Status::timeout
               ? "timeout"
               : c.status == Cell::Status::skipped ? "skipped" : "error")
       << "\"}" << (i + 1 < failed.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int timeout_s = -1;
  bool quick = false, huge = false, full = false;
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--timeout-s" && i + 1 < argc) {
      timeout_s = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--huge") {
      huge = true;
    } else if (arg == "--full-pipeline") {
      full = true;
    } else if (arg == "--strategies" && i + 1 < argc) {
      std::istringstream is(argv[++i]);
      std::string item;
      while (std::getline(is, item, ','))
        if (!item.empty()) only.push_back(item);
    } else {
      std::cerr << "usage: bench_scale [--json FILE] [--timeout-s N] "
                   "[--quick] [--huge] [--strategies a,b,c] "
                   "[--full-pipeline]\n";
      return 2;
    }
  }
  // The full pipeline runs subgraph+schedule+correction on top of the
  // partition stage; 50k-vertex cells need minutes, not seconds.
  // The slowest full-pipeline cell measured on the reference container is
  // random50000 at ~6.5 min serial (lattice grows similarly); 30 min leaves
  // headroom for slower hosts while still killing a genuine stall.
  if (timeout_s < 0) timeout_s = full ? 1800 : 60;

  std::vector<std::size_t> sizes = quick
                                       ? std::vector<std::size_t>{1000}
                                       : std::vector<std::size_t>{
                                             1000, 10000, 50000};
  if (huge && !quick) sizes.push_back(100000);

  struct Family {
    std::string name;
    Graph (*make)(std::size_t, std::uint64_t);
  };
  const std::vector<Family> families = {
      {"lattice",
       +[](std::size_t n, std::uint64_t seed) {
         std::size_t rows = 1;
         for (std::size_t r = 2; r * r <= n; ++r)
           if (n % r == 0) rows = r;
         return shuffle_labels(make_lattice(rows, n / rows), seed);
       }},
      {"tree",
       +[](std::size_t n, std::uint64_t seed) {
         return shuffle_labels(make_random_tree(n, seed * 13 + 1, 3), seed);
       }},
      {"random",
       +[](std::size_t n, std::uint64_t seed) {
         return shuffle_labels(make_sparse_random(n, 4.0, seed * 17 + 3),
                               seed);
       }},
  };

  const double flat_budget_ms = timeout_s * 1000.0 / 2.0;
  std::vector<std::string> strategies = partition_strategy_names();
  if (!only.empty()) {
    for (const std::string& name : only)
      if (!find_partition_strategy(name)) {
        std::cerr << "unknown strategy '" << name << "'\n";
        return 2;
      }
    strategies = only;
  }
  if (full) {
    // The full pipeline's determinism contract is the multilevel tier's;
    // flat strategies at these sizes run under binding budgets and would
    // make every downstream metric load-dependent.
    if (!only.empty() && strategies != std::vector<std::string>{
                             "multilevel"}) {
      std::cerr << "--full-pipeline benches the multilevel strategy only\n";
      return 2;
    }
    strategies = {"multilevel"};
  }
  std::vector<Cell> cells;
  // Once a (family, strategy) pair times out, larger sizes are skipped —
  // the envelope is already established and the sweep stays bounded.
  std::vector<std::string> exhausted;
  for (std::size_t n : sizes) {
    for (const Family& family : families) {
      const Graph g = family.make(n, n);
      const std::string label = family.name + std::to_string(n);
      for (const std::string& strategy : strategies) {
        // Multilevel is the deterministic tier: bench it at several
        // inner-thread counts and cross-check below. Flat strategies run
        // once — their binding wall budget makes quality load-dependent.
        const std::vector<std::size_t> thread_counts =
            strategy == "multilevel" ? std::vector<std::size_t>{0, 2, 8}
                                     : std::vector<std::size_t>{0};
        for (std::size_t threads : thread_counts) {
          Cell cell;
          cell.instance = label;
          cell.n = g.vertex_count();
          cell.strategy = strategy;
          cell.inner_threads = threads;
          const std::string pair = family.name + "/" + strategy;
          if (std::find(exhausted.begin(), exhausted.end(), pair) !=
              exhausted.end()) {
            cell.status = Cell::Status::skipped;
          } else {
            std::cerr << "cell " << label << '/' << strategy << "/inner"
                      << threads << " ..." << std::flush;
            cell = full ? run_full_cell(g, cell, timeout_s)
                        : run_cell(g, cell, flat_budget_ms, timeout_s);
            std::cerr << (cell.status == Cell::Status::ok
                              ? " done"
                              : cell.status == Cell::Status::timeout
                                    ? " TIMEOUT"
                                    : " ERROR")
                      << '\n';
            if (cell.status != Cell::Status::ok) exhausted.push_back(pair);
          }
          cells.push_back(cell);
        }
      }
    }
  }

  Table table(full ? std::vector<std::string>{
                         "instance", "inner", "wall(ms)", "part(ms)",
                         "subg(ms)", "sched(ms)", "ee", "makespan", "peak",
                         "valid"}
                   : std::vector<std::string>{"instance", "strategy",
                                              "inner", "wall(ms)", "stems",
                                              "parts", "lc", "valid"});
  for (const Cell& c : cells) {
    const char* status = c.status == Cell::Status::timeout
                             ? "TIMEOUT"
                             : c.status == Cell::Status::skipped
                                   ? "skipped"
                                   : "ERROR";
    if (full) {
      if (c.status == Cell::Status::ok)
        table.add_row({c.instance, Table::num(c.inner_threads),
                       Table::num(c.wall_ms, 1), Table::num(c.stage[0], 1),
                       Table::num(c.stage[1], 1), Table::num(c.stage[2], 1),
                       Table::num(c.ee),
                       Table::num(static_cast<std::size_t>(c.makespan)),
                       Table::num(c.peak), c.valid ? "yes" : "NO"});
      else
        table.add_row({c.instance, Table::num(c.inner_threads), status, "-",
                       "-", "-", "-", "-", "-", "-"});
    } else if (c.status == Cell::Status::ok) {
      table.add_row({c.instance, c.strategy, Table::num(c.inner_threads),
                     Table::num(c.wall_ms, 1), Table::num(c.stems),
                     Table::num(c.parts), Table::num(c.lc_depth),
                     c.valid ? "yes" : "NO"});
    } else {
      table.add_row({c.instance, c.strategy, Table::num(c.inner_threads),
                     status, "-", "-", "-", "-"});
    }
  }
  std::cout << "== Scale envelope: "
            << (full ? "full pipeline" : "partition stage") << ", "
            << timeout_s << "s budget per cell ==\n";
  table.print(std::cout);
  std::cout << "\n-- csv --\n";
  table.print_csv(std::cout);

  int rc = 0;
  // Any completed cell whose child self-check failed (partition
  // validity, LC replay, LC budget; in full mode also emitter-cap
  // respect, emission coverage, and verification) fails the bench.
  for (const Cell& c : cells)
    if (c.status == Cell::Status::ok && !c.valid) {
      std::cerr << (full ? "INVALID COMPILE: " : "INVALID PARTITION: ")
                << c.instance << '/' << c.strategy << "/inner"
                << c.inner_threads << " failed the outcome self-check\n";
      rc = 1;
    }
  // Determinism cross-check over the multilevel thread-count cells (each
  // one ran in its own process). Full-pipeline cells must agree on every
  // compiled metric and on the schedule digest, not just the partition
  // shape.
  for (std::size_t i = 0; i < cells.size(); ++i)
    for (std::size_t j = i + 1; j < cells.size(); ++j) {
      const Cell& a = cells[i];
      const Cell& b = cells[j];
      if (a.instance != b.instance || a.strategy != b.strategy) continue;
      if (a.status != Cell::Status::ok || b.status != Cell::Status::ok)
        continue;
      if (a.stems != b.stems || a.parts != b.parts ||
          a.lc_depth != b.lc_depth || a.ee != b.ee ||
          a.makespan != b.makespan || a.peak != b.peak ||
          a.local_ops != b.local_ops || a.emissions != b.emissions ||
          a.measures != b.measures || a.verified != b.verified ||
          a.circuit_hash != b.circuit_hash) {
        std::cerr << "DETERMINISM VIOLATION: " << a.instance << '/'
                  << a.strategy << " differs between inner thread counts "
                  << a.inner_threads << " and " << b.inner_threads << '\n';
        rc = 1;
      }
    }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    write_json(out, cells, timeout_s, full);
    std::cout << "json written to " << json_path << '\n';
  }
  return rc;
}
