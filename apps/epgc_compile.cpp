// epgc-compile: GraphState-to-Circuit compiler driver.
//
// Reads a target graph state (edge list or graph6), compiles it with the
// partition+LC framework (or the Li/GraphiQ-class baseline), verifies the
// result on the stabilizer simulator and reports the hardware metrics. The
// circuit can be exported as OpenQASM 3, the native epgc text format, or an
// ASCII schedule rendering.
#include <fstream>
#include <iostream>
#include <memory>

#include "cli_common.hpp"
#include "circuit/render.hpp"
#include "obs/trace.hpp"
#include "circuit/serialize.hpp"
#include "common/compile_spec.hpp"
#include "io/graph_io.hpp"
#include "io/qasm_export.hpp"
#include "runtime/batch_compiler.hpp"
#include "store/result_store.hpp"

namespace {

constexpr const char* kUsage = R"(usage: epgc_compile [options] <graph-file>

Compile a photonic graph state into a deterministic emitter-based
generation circuit (DAC'25 partition+LC framework).

input:
  <graph-file>            edge list, or graph6 when the name ends in .g6

options:
  --compiler NAME         framework (default) | baseline
  --hw NAME               quantum_dot (default) | nv | siv | rydberg
  --gmax N                max subgraph size (default 7, paper Sec. V.A)
  --lc N                  max local complementations (default 15)
  --ne-factor X           Ne_limit = ceil(X * Ne_min)   (default 1.5)
  --ne N                  override Ne_limit with an absolute count
  --seed N                search seed (default 1)
  --partition-strategy S  beam (default) | anneal | portfolio | multilevel
  --coarsen-floor N       multilevel: run the flat inner search directly at
                          or below N vertices, coarsen above it (default 192)
  --multilevel-inner S    multilevel: flat strategy delegated to below the
                          floor and raced on small graphs (default beam)
  --inner-threads N       intra-compile worker threads (default 0 = serial;
                          identical output at any count: every search
                          stops on work, never on time)
  --no-verify             skip the stabilizer end-to-end verification
  --store-dir DIR         persistent result store: replay a previous run of
                          the same (graph, options) from disk, and persist
                          this run for the next one (shared with epgc_batch
                          and epgc_serve)
  --store-cap-mb N        LRU-evict the store beyond N MiB (0 = no cap)
  --qasm FILE             write the circuit as OpenQASM 3
  --epgc FILE             write the circuit in the native text format
  --render                print the ASCII schedule to stdout
  --trace-out FILE        record pipeline spans, write Chrome trace JSON
                          (open in chrome://tracing or Perfetto)
  --quiet                 metrics only (suppress the banner)
)";

// Every result-relevant knob flows through the shared CompileSpec, so the
// CLI, the batch manifest keys and the service JSON specs parse and
// default identically (common/compile_spec.hpp). Flags whose spelling
// differs from the canonical key are mapped here.
epg::CompileSpec spec_from_args(const epg::cli::Args& args) {
  epg::CompileSpec spec;
  static constexpr std::pair<const char*, const char*> kFlagToKey[] = {
      {"compiler", "compiler"},
      {"hw", "hw"},
      {"gmax", "gmax"},
      {"lc", "lc"},
      {"partition-strategy", "strategy"},
      {"coarsen-floor", "coarsen_floor"},
      {"multilevel-inner", "multilevel_inner"},
      {"ne-factor", "ne_factor"},
      {"ne", "ne"},
      {"seed", "seed"},
  };
  for (const auto& [flag, key] : kFlagToKey)
    if (args.has(flag))
      epg::apply_compile_spec_key(spec, key, args.get(flag, ""));
  if (args.has("no-verify")) spec.verify = false;
  return spec;
}

void print_stats(const epg::CircuitStats& s, std::size_t ne_limit) {
  std::cout << "ee-CNOTs        " << s.ee_cnot_count << '\n';
  std::cout << "emissions       " << s.emission_count << '\n';
  std::cout << "duration        " << s.duration_tau << " tau_QD\n";
  std::cout << "T_loss          " << s.t_loss_tau << " tau_QD\n";
  std::cout << "state survival  " << s.loss.state_survival << '\n';
  std::cout << "emitters        " << s.emitters_used << " (cap " << ne_limit
            << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace epg;
  cli::Args args(argc, argv, {"no-verify", "render", "quiet"}, kUsage);
  if (args.positional().size() != 1) args.fail("exactly one graph file");

  Graph target(0);
  try {
    target = load_graph_file(args.positional()[0]);
  } catch (const std::exception& e) {
    args.fail(e.what());
  }
  if (!args.has("quiet"))
    std::cout << "target: " << target.vertex_count() << " photons, "
              << target.edge_count() << " entanglement bonds\n";

  CompileSpec spec;
  CompileJob job;
  try {
    spec = spec_from_args(args);
    job = make_compile_job(spec, "cli", target);
  } catch (const std::exception& e) {
    args.fail(e.what());
  }

  // The single job runs through the same BatchCompiler (and so the same
  // store tier) as epgc_batch and epgc_serve: one pool worker per inner
  // lane plus the calling thread.
  const std::size_t inner_threads = args.get_u64("inner-threads", 0);
  BatchConfig bcfg;
  bcfg.threads = inner_threads + 1;
  bcfg.inner_threads = inner_threads;
  bcfg.keep_results = true;
  if (args.has("store-dir")) {
    StoreConfig scfg;
    scfg.dir = args.get("store-dir", "");
    scfg.max_bytes = args.get_u64("store-cap-mb", 0) * 1024 * 1024;
    try {
      bcfg.store = std::make_shared<CompileResultStore>(scfg);
    } catch (const std::exception& e) {
      args.fail(e.what());
    }
  }

  // Tracing is opt-in: without --trace-out no recorder is installed and
  // every Span in the pipeline collapses to a null-pointer test.
  std::unique_ptr<TraceRecorder> recorder;
  if (args.has("trace-out")) recorder = std::make_unique<TraceRecorder>();
  ScopedTraceInstall trace_install(recorder.get());

  const JobResult r = BatchCompiler(bcfg).run({job}).front();
  if (!r.ok) {
    std::cerr << "compilation failed: " << r.error << '\n';
    return 1;
  }
  // A store hit carries everything a cold compile prints, so warm output
  // is byte-identical to it.
  if (r.framework_result && !args.has("quiet"))
    std::cout << "partition: " << r.parts << " subgraphs, " << r.stem_count
              << " stems, LC depth " << r.lc_depth << " ("
              << r.framework_result->strategy << " strategy)\n";
  print_stats(r.stats, r.ne_limit);
  // Ne_limit is the paper's hardware contract; a schedule that needs more
  // emitters says so on stderr (stdout keeps the format scripts parse).
  if (r.stats.emitters_used > r.ne_limit)
    std::cerr << "warning: emitters " << r.stats.emitters_used
              << " exceed the cap " << r.ne_limit << '\n';
  if (r.framework_result)
    std::cout << "verified        " << (r.verified ? "yes" : "skipped")
              << '\n';
  const Circuit& circuit = r.framework_result
                               ? r.framework_result->schedule.circuit
                               : r.baseline_result->circuit;

  if (args.has("qasm")) {
    std::ofstream out(args.get("qasm", ""));
    out << export_qasm3(circuit);
  }
  if (args.has("epgc")) {
    std::ofstream out(args.get("epgc", ""));
    out << serialize_circuit(circuit);
  }
  if (args.has("render"))
    std::cout << render_schedule(circuit, hardware_by_name(spec.hw));
  if (recorder) {
    std::ofstream out(args.get("trace-out", ""));
    if (!out) {
      std::cerr << "cannot write trace file '" << args.get("trace-out", "")
                << "'\n";
      return 1;
    }
    recorder->write_chrome_trace(out);
  }
  return 0;
}
