// epgc-batch: parallel batch compilation driver.
//
// Reads a manifest describing many compile jobs — graph files and/or
// generated instances, each optionally swept over parameter lists — fans
// them across the batch runtime's thread pool, and reports per-job metrics
// as an aligned table plus optional CSV/JSON files. Repeated instances
// (identical graph + configuration) are compiled once through the result
// cache; per-job metrics are identical to what serial `epgc_compile` runs
// would produce for the same graph and options.
#include <fstream>
#include <iostream>
#include <sstream>

#include "cli_common.hpp"
#include "common/compile_spec.hpp"
#include "obs/trace.hpp"
#include "graph/generators.hpp"
#include "io/graph_io.hpp"
#include "metrics/report.hpp"
#include "runtime/batch_compiler.hpp"
#include "store/result_store.hpp"

namespace {

constexpr const char* kUsage = R"(usage: epgc_batch [options] <manifest>

Compile a batch of photonic graph states in parallel.

manifest: one job per line ('-' reads stdin); '#' starts a comment.
  <label> <source> [key=value ...]

  <source> is a graph file path, or a generator spec:
    gen:lattice   (rows=R cols=C | n=N)      gen:linear    (n=N)
    gen:ring      (n=N)                      gen:star      (n=N)
    gen:complete  (n=N)                      gen:tree      (n=N deg=D gseed=S)
    gen:waxman    (n=N gseed=S)              gen:erdos     (n=N p=P gseed=S)
    gen:repeater  (m=M)                      gen:btree     (branch=B depth=D)

  job keys (any value may be a list 'a,b,c' or an integer range 'lo..hi';
  listed keys expand to the Cartesian product of jobs):
    compiler=framework|baseline   hw=quantum_dot|nv|siv|rydberg
    seed=N      search seed                gmax=N      subgraph size cap
    lc=N        max local complementations ne-factor=X emitter budget factor
    ne=N        absolute emitter cap       verify=0|1  end-to-end check
    shuffle=S   relabel with seed S
    strategy=S  partition strategy (sweepable):
                beam|anneal|portfolio|multilevel
    coarsen-floor=N    multilevel: flat search at/below N vertices (192)
    multilevel-inner=S multilevel: inner flat strategy (beam)

example (100-instance Monte-Carlo sweep, compiled once each per config):
  mc gen:waxman n=20 gseed=1..100 seed=7

options:
  --jobs N          worker threads (default: hardware concurrency)
  --serial          shorthand for --jobs 1
  --partition-strategy S  default strategy for jobs without strategy=
  --inner-threads N intra-compile lanes per job, drawn from the shared
                    batch pool so nesting never oversubscribes (default
                    0 = serial inner pipeline; metrics are identical at
                    any count: every search stops on work, never on
                    time)
  --no-cache        disable the repeated-instance result cache
  --store-dir DIR   persistent result store: jobs compiled by a previous
                    run (or by epgc_compile/epgc_serve) with identical
                    graph+options replay from disk; fresh compiles are
                    written back
  --store-cap-mb N  LRU-evict the store beyond N MiB (0 = no cap)
  --csv FILE        write per-job metrics as CSV
  --json FILE       write per-job metrics + summary as JSON
  --trace-out FILE  record per-job compile spans across all worker
                    threads, write Chrome trace JSON
  --quiet           suppress the per-job table (summary only)
)";

using epg::cli::Args;

struct KeyValues {
  std::string key;
  std::vector<std::string> values;
};

// 'a,b,c' and integer 'lo..hi' expand to lists; anything else is a
// singleton.
std::vector<std::string> expand_value(const std::string& value) {
  const std::size_t dots = value.find("..");
  if (dots != std::string::npos) {
    try {
      const long lo = std::stol(value.substr(0, dots));
      const long hi = std::stol(value.substr(dots + 2));
      if (lo <= hi && hi - lo < 1000000) {
        std::vector<std::string> out;
        out.reserve(static_cast<std::size_t>(hi - lo + 1));
        for (long v = lo; v <= hi; ++v) out.push_back(std::to_string(v));
        return out;
      }
    } catch (const std::exception&) {
      // fall through: not a numeric range
    }
  }
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(value);
  while (std::getline(is, item, ',')) out.push_back(item);
  if (out.empty()) out.push_back("");
  return out;
}

class ManifestError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::uint64_t parse_u64(const std::map<std::string, std::string>& kv,
                        const std::string& key, std::uint64_t fallback) {
  auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  try {
    return std::stoull(it->second);
  } catch (const std::exception&) {
    throw ManifestError("key " + key + " needs an integer, got '" +
                        it->second + "'");
  }
}

double parse_double(const std::map<std::string, std::string>& kv,
                    const std::string& key, double fallback) {
  auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw ManifestError("key " + key + " needs a number, got '" +
                        it->second + "'");
  }
}

epg::Graph generate_graph(const std::string& family,
                          const std::map<std::string, std::string>& kv) {
  using namespace epg;
  const std::uint64_t n = parse_u64(kv, "n", 0);
  const std::uint64_t gseed = parse_u64(kv, "gseed", 1);
  if (family == "lattice") {
    std::uint64_t rows = parse_u64(kv, "rows", 0);
    std::uint64_t cols = parse_u64(kv, "cols", 0);
    if (rows == 0 || cols == 0) {
      if (n == 0)
        throw ManifestError("gen:lattice needs rows=+cols= or n=");
      // Most square factorization, like the paper's benchmark instances.
      rows = 1;
      for (std::uint64_t r = 2; r * r <= n; ++r)
        if (n % r == 0) rows = r;
      cols = n / rows;
    }
    return make_lattice(rows, cols);
  }
  if (n == 0 && family != "repeater" && family != "btree")
    throw ManifestError("gen:" + family + " needs n=");
  if (family == "linear") return make_linear_cluster(n);
  if (family == "ring") return make_ring(n);
  if (family == "star") return make_star(n);
  if (family == "complete") return make_complete(n);
  if (family == "tree")
    return make_random_tree(n, gseed, parse_u64(kv, "deg", 3));
  if (family == "waxman")
    return make_waxman(n, gseed, parse_double(kv, "alpha", 0.4),
                       parse_double(kv, "beta", 0.4));
  if (family == "erdos")
    return make_erdos_renyi(n, parse_double(kv, "p", 0.3), gseed);
  if (family == "repeater")
    return make_repeater_graph_state(parse_u64(kv, "m", 2));
  if (family == "btree")
    return make_balanced_tree(parse_u64(kv, "branch", 2),
                              parse_u64(kv, "depth", 3));
  throw ManifestError("unknown generator family '" + family + "'");
}

// Keys consumed by the graph source (generator parameters + relabeling),
// not by the compile configuration. Everything else must be a CompileSpec
// knob — a typo'd key is an error, never a silently-ignored default.
bool is_source_key(const std::string& key) {
  static const std::set<std::string> keys = {
      "n",     "gseed", "rows",   "cols",  "deg",     "alpha",
      "beta",  "p",     "m",      "branch", "depth",  "shuffle"};
  return keys.count(key) > 0;
}

epg::CompileJob make_job(const std::string& label, const std::string& source,
                         const std::map<std::string, std::string>& kv,
                         const std::string& default_strategy) {
  using namespace epg;
  // All result-relevant knobs flow through the shared CompileSpec — the
  // same parse/defaults path as epgc_compile flags and the service's JSON
  // spec keys ('-' and '_' spellings both accepted).
  CompileSpec spec;
  spec.strategy = default_strategy;
  for (const auto& [key, value] : kv) {
    if (is_source_key(key)) continue;
    if (!is_compile_spec_key(key))
      throw ManifestError("unknown job key '" + key + "'");
    apply_compile_spec_key(spec, key, value);
  }

  Graph graph = source.rfind("gen:", 0) == 0
                    ? generate_graph(source.substr(4), kv)
                    : load_graph_file(source);
  if (kv.count("shuffle") > 0)
    graph = shuffle_labels(graph, parse_u64(kv, "shuffle", 0));
  return make_compile_job(spec, label, std::move(graph));
}

std::vector<epg::CompileJob> parse_manifest(
    std::istream& in, const std::string& default_strategy) {
  std::vector<epg::CompileJob> jobs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream is(line);
    std::string label, source;
    if (!(is >> label)) continue;  // blank line
    if (!(is >> source))
      throw ManifestError("line " + std::to_string(line_no) +
                          ": job '" + label + "' has no graph source");
    std::vector<KeyValues> sweep;
    std::string token;
    while (is >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0)
        throw ManifestError("line " + std::to_string(line_no) +
                            ": expected key=value, got '" + token + "'");
      sweep.push_back(
          {token.substr(0, eq), expand_value(token.substr(eq + 1))});
    }
    // Cartesian expansion over every multi-valued key.
    std::vector<std::size_t> pick(sweep.size(), 0);
    while (true) {
      std::map<std::string, std::string> kv;
      std::string suffix;
      for (std::size_t k = 0; k < sweep.size(); ++k) {
        kv[sweep[k].key] = sweep[k].values[pick[k]];
        if (sweep[k].values.size() > 1)
          suffix += "/" + sweep[k].key + "=" + sweep[k].values[pick[k]];
      }
      try {
        jobs.push_back(
            make_job(label + suffix, source, kv, default_strategy));
      } catch (const std::exception& e) {
        throw ManifestError("line " + std::to_string(line_no) + ": " +
                            e.what());
      }
      std::size_t k = sweep.size();
      while (k > 0 && ++pick[k - 1] == sweep[k - 1].values.size())
        pick[--k] = 0;
      if (k == 0) break;
    }
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace epg;
  cli::Args args(argc, argv, {"serial", "no-cache", "quiet"}, kUsage);
  if (args.positional().size() != 1) args.fail("exactly one manifest file");

  std::vector<CompileJob> jobs;
  const std::string default_strategy =
      args.get("partition-strategy", "beam");
  try {
    const std::string path = args.positional()[0];
    if (path == "-") {
      jobs = parse_manifest(std::cin, default_strategy);
    } else {
      std::ifstream in(path);
      if (!in) args.fail("cannot open manifest '" + path + "'");
      jobs = parse_manifest(in, default_strategy);
    }
  } catch (const std::exception& e) {
    args.fail(e.what());
  }
  if (jobs.empty()) args.fail("manifest contains no jobs");

  BatchConfig cfg;
  cfg.threads = args.has("serial") ? 1 : args.get_u64("jobs", 0);
  cfg.inner_threads = args.get_u64("inner-threads", 0);
  cfg.use_cache = !args.has("no-cache");
  cfg.keep_results = false;  // metrics only: don't hold 100 circuits alive
  if (args.has("store-dir")) {
    StoreConfig scfg;
    scfg.dir = args.get("store-dir", "");
    scfg.max_bytes = args.get_u64("store-cap-mb", 0) * 1024 * 1024;
    try {
      cfg.store = std::make_shared<CompileResultStore>(scfg);
    } catch (const std::exception& e) {
      args.fail(e.what());
    }
  }
  BatchCompiler batch(cfg);

  if (!args.has("quiet"))
    std::cout << "batch: " << jobs.size() << " jobs on "
              << batch.parallelism() << " threads\n";
  // Opt-in tracing; the pool propagates the recorder to worker threads,
  // so per-job spans land on their actual executing thread's timeline.
  std::unique_ptr<TraceRecorder> recorder;
  if (args.has("trace-out")) recorder = std::make_unique<TraceRecorder>();
  ScopedTraceInstall trace_install(recorder.get());
  const std::vector<JobResult> results = batch.run(jobs);

  if (!args.has("quiet")) batch_metrics_table(results).print(std::cout);
  std::cout << summary_line(batch.summary()) << '\n';
  StoreStats store_stats;
  if (cfg.store) {
    store_stats = cfg.store->stats();
    std::cout << "store: " << store_stats.hits << " hits / "
              << store_stats.misses << " misses / " << store_stats.puts
              << " puts / " << store_stats.evictions << " evictions; "
              << store_stats.bytes << " bytes in " << store_stats.entries
              << " entries\n";
  }

  if (args.has("csv")) {
    std::ofstream out(args.get("csv", ""));
    out << batch_csv(results);
  }
  if (args.has("json")) {
    std::ofstream out(args.get("json", ""));
    out << batch_json(results, batch.summary(),
                      cfg.store ? &store_stats : nullptr);
  }
  if (recorder) {
    std::ofstream out(args.get("trace-out", ""));
    if (!out) {
      std::cerr << "cannot write trace file '" << args.get("trace-out", "")
                << "'\n";
      return 1;
    }
    recorder->write_chrome_trace(out);
  }
  return batch.summary().failures == 0 ? 0 : 1;
}
