#include "circuit/timing.hpp"

#include <gtest/gtest.h>

#include "circuit/stats.hpp"

namespace epg {
namespace {

const HardwareModel kHw = HardwareModel::quantum_dot();

TEST(Timing, SequentialOnSharedQubit) {
  Circuit c(0, 2);
  c.ee_cz(0, 1);
  c.ee_cz(0, 1);
  const CircuitTiming t = analyze_timing(c, kHw);
  EXPECT_EQ(t.gate_start[0], 0u);
  EXPECT_EQ(t.gate_start[1], kHw.ee_cnot_ticks);
  EXPECT_EQ(t.makespan, 2 * kHw.ee_cnot_ticks);
}

TEST(Timing, DisjointQubitsOverlap) {
  Circuit c(0, 4);
  c.ee_cz(0, 1);
  c.ee_cz(2, 3);
  const CircuitTiming t = analyze_timing(c, kHw);
  EXPECT_EQ(t.gate_start[0], 0u);
  EXPECT_EQ(t.gate_start[1], 0u);
  EXPECT_EQ(t.makespan, kHw.ee_cnot_ticks);
}

TEST(Timing, EmissionTimesRecorded) {
  Circuit c(2, 1);
  c.emission(0, 0);
  c.emission(0, 1);
  const CircuitTiming t = analyze_timing(c, kHw);
  EXPECT_EQ(t.photon_emit_time[0], kHw.emission_ticks);
  EXPECT_EQ(t.photon_emit_time[1], 2 * kHw.emission_ticks);
  const auto alive = t.photon_alive_ticks();
  EXPECT_EQ(alive[0], t.makespan - kHw.emission_ticks);
}

TEST(Timing, CorrectionsOrderAfterMeasurement) {
  Circuit c(1, 2);
  c.emission(0, 0);
  c.measure_reset(0, {{QubitId::photon(0), PauliOp::Z}});
  // A later photon gate must not start before the measurement ends.
  c.local(QubitId::photon(0), Clifford1::s());
  const CircuitTiming t = analyze_timing(c, kHw);
  EXPECT_GE(t.gate_start[2], t.gate_end[1]);
}

TEST(Timing, EmitterBusyIntervals) {
  Circuit c(1, 2);
  c.local(QubitId::emitter(1), Clifford1::h());
  c.ee_cz(0, 1);
  c.emission(1, 0);
  const CircuitTiming t = analyze_timing(c, kHw);
  EXPECT_TRUE(t.emitter_busy[0].used);
  EXPECT_TRUE(t.emitter_busy[1].used);
  EXPECT_EQ(t.emitter_busy[1].begin, 0u);
  EXPECT_EQ(t.emitter_busy[0].begin, kHw.emitter_1q_ticks);
  EXPECT_EQ(t.emitter_busy[1].end, t.makespan);
}

TEST(Timing, UsageCurveAndPeak) {
  Circuit c(0, 3);
  c.ee_cz(0, 1);   // both busy [0,20)
  c.ee_cz(1, 2);   // busy [20,40): 1 and 2
  const CircuitTiming t = analyze_timing(c, kHw);
  // Busy intervals: emitter 0 [0,20), emitter 1 [0,40), emitter 2 [20,40).
  const auto curve = t.usage_curve();
  ASSERT_EQ(curve.size(), t.makespan);
  EXPECT_EQ(curve[0], 2u);   // emitters 0 and 1
  EXPECT_EQ(curve[25], 2u);  // emitters 1 and 2
  EXPECT_EQ(t.peak_usage(), 2u);
}

/// Emitters 0-1 entangle and emit photons 0-1; emitter 2 works alone.
Circuit release_fixture() {
  Circuit c(3, 3);
  c.local(QubitId::emitter(0), Clifford1::h());  // 0
  c.emission(2, 2);                              // 1: disjoint wires
  c.ee_cz(0, 1);                                 // 2
  c.emission(0, 0);                              // 3
  c.emission(1, 1);                              // 4
  c.local(QubitId::emitter(2), Clifford1::h());  // 5: disjoint wires
  c.measure_reset(0, {{QubitId::photon(1), PauliOp::Z}});  // 6
  return c;
}

TEST(Timing, EveryGateStartsAtOrAfterItsRelease) {
  const Circuit c = release_fixture();
  const std::vector<Tick> release = {0, 7, 3, 50, 0, 2, 41};
  const CircuitTiming t = analyze_timing(c, kHw, release);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_GE(t.gate_start[i], release[i]) << "gate " << i;
    EXPECT_EQ(t.gate_end[i] - t.gate_start[i], c.gates()[i].duration(kHw));
  }
  // A release is a floor, not a slot: an unconstrained gate starts on it.
  EXPECT_EQ(t.gate_start[1], 7u);
  EXPECT_EQ(t.gate_start[3], 50u);
}

TEST(Timing, ReleaseDelaysItsWiresOnly) {
  const Circuit c = release_fixture();
  const CircuitTiming asap = analyze_timing(c, kHw);
  std::vector<Tick> release(c.size(), 0);
  release[0] = 100;  // hold the first gate on emitter 0
  const CircuitTiming t = analyze_timing(c, kHw, release);
  const Tick shift = 100 - asap.gate_start[0];
  // Gates downstream on emitters 0/1 and photons 0/1 move by the shift...
  for (std::size_t i : {0u, 2u, 3u, 4u, 6u}) {
    EXPECT_EQ(t.gate_start[i], asap.gate_start[i] + shift) << "gate " << i;
  }
  EXPECT_EQ(t.photon_emit_time[0], asap.photon_emit_time[0] + shift);
  // ...while emitter 2 and photon 2 keep their ASAP times.
  EXPECT_EQ(t.gate_start[1], asap.gate_start[1]);
  EXPECT_EQ(t.gate_start[5], asap.gate_start[5]);
  EXPECT_EQ(t.photon_emit_time[2], asap.photon_emit_time[2]);
}

TEST(Timing, EmptyOrZeroReleasesAreAsap) {
  const Circuit c = release_fixture();
  const CircuitTiming asap = analyze_timing(c, kHw);
  const CircuitTiming empty = analyze_timing(c, kHw, {});
  const std::vector<Tick> zeros(c.size(), 0);
  const CircuitTiming zero = analyze_timing(c, kHw, zeros);
  for (const CircuitTiming* t : {&empty, &zero}) {
    EXPECT_EQ(t->gate_start, asap.gate_start);
    EXPECT_EQ(t->gate_end, asap.gate_end);
    EXPECT_EQ(t->makespan, asap.makespan);
    EXPECT_EQ(t->photon_emit_time, asap.photon_emit_time);
  }
  EXPECT_EQ(asap.gate_start[1], 0u);
  EXPECT_EQ(asap.gate_start[2], asap.gate_end[0]);
}

TEST(Stats, TimedOverloadMatchesUntimed) {
  const Circuit c = release_fixture();
  const CircuitStats a = compute_stats(c, kHw);
  const CircuitStats b = compute_stats(c, analyze_timing(c, kHw), kHw);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.makespan_ticks, b.makespan_ticks);
  EXPECT_EQ(a.emitters_used, 3u);
}

TEST(Stats, CountsAndDerived) {
  Circuit c(2, 2);
  c.local(QubitId::emitter(0), Clifford1::h());
  c.emission(0, 0);
  c.ee_cz(0, 1);
  c.emission(1, 1);
  c.measure_reset(1, {{QubitId::photon(1), PauliOp::Z}});
  const CircuitStats s = compute_stats(c, kHw);
  EXPECT_EQ(s.ee_cnot_count, 1u);
  EXPECT_EQ(s.emission_count, 2u);
  EXPECT_EQ(s.local_count, 1u);
  EXPECT_EQ(s.measure_count, 1u);
  EXPECT_EQ(s.emitters_used, 2u);
  EXPECT_GT(s.duration_tau, 0.0);
  EXPECT_GT(s.t_loss_tau, 0.0);
  EXPECT_FALSE(s.str().empty());
}

}  // namespace
}  // namespace epg
