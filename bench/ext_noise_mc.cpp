// Extension bench: Monte-Carlo validation of the Fig. 11a conclusion.
//
// Fig. 11a reports analytic state-loss; here both compilers' circuits are
// run through shot-sampled photon loss (2000 shots) and through the
// depolarizing ee-gate channel at the hardware fidelity (0.99), giving
// the loss suppression with confidence intervals plus the exact-state
// fidelity estimate the analytic f^k product only bounds.
//
// All six instances compile through the batch runtime (circuits retained),
// and the shot loops run on the same pool via the chunked deterministic
// engines — the tallies are identical at any thread count.
#include <algorithm>

#include "bench_common.hpp"
#include "circuit/timing.hpp"
#include "noise/monte_carlo.hpp"

int main() {
  using namespace epg;
  using namespace epg::bench;
  const HardwareModel hw = HardwareModel::quantum_dot();

  struct Family {
    const char* name;
    Graph (*make)(std::size_t, std::uint64_t);
  };
  const Family families[] = {
      {"lattice", lattice_instance},
      {"tree", tree_instance},
      {"random", waxman_instance},
  };
  const std::vector<std::size_t> sizes = {12, 20};

  // Phase 1: every framework compile, in parallel, keeping the circuits.
  BatchCompiler batch = make_bench_batch(/*keep_results=*/true);
  std::vector<CompileJob> fw_jobs;
  for (const Family& fam : families)
    for (std::size_t n : sizes)
      fw_jobs.push_back(
          make_framework_job(std::string(fam.name) + std::to_string(n),
                             fam.make(n, n), framework_config(1.5, n)));
  const std::vector<JobResult> ours = batch.run(fw_jobs);

  // Phase 2: the faithful baselines under the budgets phase 1 produced.
  std::vector<CompileJob> base_jobs;
  for (std::size_t i = 0; i < fw_jobs.size(); ++i)
    base_jobs.push_back(make_baseline_job(
        fw_jobs[i].label + "/baseline", fw_jobs[i].graph,
        faithful_baseline_config(fw_jobs[i].framework.seed),
        checked(ours[i]).ne_limit));
  const std::vector<JobResult> base = batch.run(base_jobs);
  const Executor pooled(batch.pool());

  Table table({"family", "#qubit", "base survive", "ours survive",
               "suppression(x)", "ours fidelity", "f^k bound"});
  std::size_t idx = 0;
  for (const Family& fam : families) {
    for (std::size_t n : sizes) {
      const JobResult& mine = ours[idx];
      const FrameworkResult& fw = *mine.framework_result;
      const BaselineResult& bl = *checked(base[idx]).baseline_result;
      ++idx;

      std::vector<Tick> ours_alive;
      ours_alive.reserve(fw.schedule.photon_emit.size());
      for (Tick e : fw.schedule.photon_emit)
        ours_alive.push_back(fw.schedule.makespan - e);
      const LossMcResult mc_ours =
          sample_photon_loss(hw, ours_alive, 2000, n * 5 + 1, pooled);
      // The baseline circuit's emission times come from its own timing.
      const CircuitTiming bt = analyze_timing(bl.circuit, hw);
      const LossMcResult mc_base = sample_photon_loss(
          hw, bt.photon_alive_ticks(), 2000, n * 5 + 2, pooled);

      PauliMcConfig pc;
      pc.shots = 300;
      pc.seed = n;
      const PauliMcResult fid = sample_ee_noise(
          fw.schedule.circuit, fw_jobs[idx - 1].graph, hw, pc, pooled);

      const double supp = (1.0 - mc_base.state.mean) /
                          std::max(1e-9, 1.0 - mc_ours.state.mean);
      table.add_row({fam.name, Table::num(n),
                     Table::num(mc_base.state.mean, 3),
                     Table::num(mc_ours.state.mean, 3),
                     Table::num(supp, 2),
                     Table::num(fid.fidelity.mean, 3),
                     Table::num(fid.product_bound, 3)});
    }
  }
  emit(table,
       "Extension: Monte-Carlo photon loss (2000 shots) + depolarizing "
       "ee-gate fidelity (300 shots, p=0.01)");
  std::cout << "batch: " << summary_line(batch.totals()) << '\n';
  return 0;
}
