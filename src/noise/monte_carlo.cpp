#include "noise/monte_carlo.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "hardware/loss_model.hpp"
#include "runtime/graph_hash.hpp"
#include "stab/tableau.hpp"

namespace epg {

McEstimate make_estimate(std::size_t successes, std::size_t shots) {
  EPG_REQUIRE(shots > 0, "estimate needs at least one shot");
  EPG_REQUIRE(successes <= shots, "more successes than shots");
  McEstimate e;
  e.shots = shots;
  e.successes = successes;
  const double n = static_cast<double>(shots);
  const double p = static_cast<double>(successes) / n;
  e.mean = p;
  e.stddev = std::sqrt(p * (1.0 - p) / n);
  // Wilson score interval at z = 1.96.
  const double z = 1.96, z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  e.wilson_low = std::max(0.0, center - half);
  e.wilson_high = std::min(1.0, center + half);
  return e;
}

namespace {

struct LossTally {
  std::size_t ok = 0;
  std::size_t total_lost = 0;
  std::vector<std::size_t> histogram;
};

LossTally run_loss_shots(const std::vector<double>& survival,
                         std::size_t shots, Rng& rng) {
  LossTally tally;
  tally.histogram.assign(survival.size() + 1, 0);
  for (std::size_t s = 0; s < shots; ++s) {
    std::size_t lost = 0;
    for (double p : survival)
      if (!rng.chance(p)) ++lost;
    ++tally.histogram[lost];
    tally.total_lost += lost;
    if (lost == 0) ++tally.ok;
  }
  return tally;
}

std::vector<double> survival_probs(const HardwareModel& hw,
                                   const std::vector<Tick>& alive_ticks) {
  std::vector<double> survival;
  survival.reserve(alive_ticks.size());
  for (Tick alive : alive_ticks)
    survival.push_back(photon_survival(hw, alive));
  return survival;
}

LossMcResult finish_loss(const LossTally& tally, std::size_t shots) {
  LossMcResult out;
  out.lost_histogram = tally.histogram;
  out.state = make_estimate(tally.ok, shots);
  out.mean_lost_photons =
      static_cast<double>(tally.total_lost) / static_cast<double>(shots);
  return out;
}

}  // namespace

LossMcResult sample_photon_loss(const HardwareModel& hw,
                                const std::vector<Tick>& alive_ticks,
                                std::size_t shots, std::uint64_t seed,
                                const Executor& exec,
                                std::size_t chunk_shots) {
  EPG_REQUIRE(shots > 0, "photon-loss MC needs at least one shot");
  EPG_REQUIRE(chunk_shots > 0, "chunk size must be positive");
  const std::vector<double> survival = survival_probs(hw, alive_ticks);
  const std::size_t chunks = (shots + chunk_shots - 1) / chunk_shots;
  std::vector<LossTally> tallies(chunks);
  auto body = [&](std::size_t c) {
    const std::size_t first = c * chunk_shots;
    const std::size_t count = std::min(chunk_shots, shots - first);
    Rng rng(HashStream().mix(seed).mix(std::uint64_t{c}).digest());
    tallies[c] = run_loss_shots(survival, count, rng);
  };
  exec.parallel_for(chunks, body);
  LossTally merged;
  merged.histogram.assign(survival.size() + 1, 0);
  for (const LossTally& t : tallies) {
    merged.ok += t.ok;
    merged.total_lost += t.total_lost;
    for (std::size_t i = 0; i < t.histogram.size(); ++i)
      merged.histogram[i] += t.histogram[i];
  }
  return finish_loss(merged, shots);
}

namespace {

/// Apply the i-th (1..15) two-qubit Pauli of the depolarizing channel.
void apply_pauli_pair(Tableau& t, std::size_t a, std::size_t b,
                      std::uint32_t which) {
  const std::uint32_t pa = which / 4;  // 0=I 1=X 2=Y 3=Z
  const std::uint32_t pb = which % 4;
  auto apply1 = [&](std::size_t q, std::uint32_t p) {
    switch (p) {
      case 1: t.x(q); break;
      case 2: t.y(q); break;
      case 3: t.z(q); break;
      default: break;
    }
  };
  apply1(a, pa);
  apply1(b, pb);
}

}  // namespace

namespace {

/// One noisy replay of `c`; true when the final state is exactly `want`.
bool replay_noisy_shot(const Circuit& c, const Tableau& want, double p,
                       Rng& rng) {
  const std::size_t n = c.num_photons() + c.num_emitters();
  auto wire = [&](QubitId q) -> std::size_t {
    return q.kind == QubitKind::photon ? q.index
                                       : c.num_photons() + q.index;
  };
  Tableau t(n);
  for (const Gate& g : c.gates()) {
    switch (g.kind) {
      case GateKind::emission:
        t.cnot(wire(g.a), wire(g.b));
        break;
      case GateKind::ee_cz:
      case GateKind::ee_cnot: {
        if (g.kind == GateKind::ee_cz)
          t.cz(wire(g.a), wire(g.b));
        else
          t.cnot(wire(g.a), wire(g.b));
        if (rng.chance(p))
          apply_pauli_pair(t, wire(g.a), wire(g.b),
                           static_cast<std::uint32_t>(rng.range(1, 15)));
        break;
      }
      case GateKind::local:
        t.apply(wire(g.a), g.local);
        break;
      case GateKind::measure_reset: {
        const MeasureResult m = t.measure_z(wire(g.a), rng);
        if (m.outcome) {
          t.x(wire(g.a));
          for (const auto& corr : g.if_one) {
            switch (corr.op) {
              case PauliOp::X: t.x(wire(corr.target)); break;
              case PauliOp::Y: t.y(wire(corr.target)); break;
              case PauliOp::Z: t.z(wire(corr.target)); break;
              case PauliOp::I: break;
            }
          }
        }
        break;
      }
    }
  }
  return t.same_state_as(want);
}

PauliMcResult prepare_pauli_result(const Circuit& c, const HardwareModel& hw,
                                   const PauliMcConfig& cfg, double& p) {
  EPG_REQUIRE(cfg.shots > 0, "Pauli MC needs at least one shot");
  p = cfg.error_probability >= 0.0 ? cfg.error_probability
                                   : 1.0 - hw.ee_cnot_fidelity;
  EPG_REQUIRE(p >= 0.0 && p <= 1.0, "error probability out of range");
  PauliMcResult out;
  for (const Gate& g : c.gates())
    if (g.kind == GateKind::ee_cz || g.kind == GateKind::ee_cnot)
      ++out.ee_gate_count;
  out.product_bound =
      std::pow(1.0 - p, static_cast<double>(out.ee_gate_count));
  return out;
}

}  // namespace

PauliMcResult sample_ee_noise(const Circuit& c, const Graph& target,
                              const HardwareModel& hw,
                              const PauliMcConfig& cfg, const Executor& exec,
                              std::size_t chunk_shots) {
  EPG_REQUIRE(target.vertex_count() == c.num_photons(),
              "target size must match the circuit's photon register");
  EPG_REQUIRE(chunk_shots > 0, "chunk size must be positive");
  double p = 0.0;
  PauliMcResult out = prepare_pauli_result(c, hw, cfg, p);
  const Tableau want = Tableau::graph_state(target, c.num_emitters());
  const std::size_t chunks = (cfg.shots + chunk_shots - 1) / chunk_shots;
  std::vector<std::size_t> ok_per_chunk(chunks, 0);
  auto body = [&](std::size_t chunk) {
    const std::size_t first = chunk * chunk_shots;
    const std::size_t count = std::min(chunk_shots, cfg.shots - first);
    Rng rng(HashStream().mix(cfg.seed).mix(std::uint64_t{chunk}).digest());
    std::size_t ok = 0;
    for (std::size_t s = 0; s < count; ++s)
      if (replay_noisy_shot(c, want, p, rng)) ++ok;
    ok_per_chunk[chunk] = ok;
  };
  exec.parallel_for(chunks, body);
  std::size_t ok = 0;
  for (std::size_t k : ok_per_chunk) ok += k;
  out.fidelity = make_estimate(ok, cfg.shots);
  return out;
}

}  // namespace epg
