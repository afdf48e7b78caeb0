// Unit tests for mhs::fault — the deterministic fault injector, the
// per-component injection hooks (bus, peripheral, DMA), the resilient
// driver (watchdog/retry/backoff/degradation) at all four interface
// levels, and the ResilienceReport surfaced through CosimReport and
// core::Report.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "apps/kernels.h"
#include "apps/workloads.h"
#include "base/error.h"
#include "base/rng.h"
#include "base/parallel_for.h"
#include "core/explorer.h"
#include "core/flow.h"
#include "cosynth/run.h"
#include "fault/fault.h"
#include "sim/cosim.h"
#include "sim/run.h"
#include "sim/dma.h"
#include "sim/peripheral.h"

namespace mhs::fault {
namespace {

// ------------------------------------------------------------- SplitMix64

TEST(SplitMix64, SameSeedSameStreamDifferentSeedsDiffer) {
  SplitMix64 a(123), b(123), c(124);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    any_diff = any_diff || va != c.next();
  }
  EXPECT_TRUE(any_diff);
}

TEST(SplitMix64, UniformStaysInUnitInterval) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(SplitMix64, KnownFirstValueOfSeedZero) {
  // The published SplitMix64 reference sequence pins the implementation.
  SplitMix64 rng(0);
  EXPECT_EQ(rng.next(), 0xe220a8397b1dcdafull);
}

// ------------------------------------------------------- specs and plans

TEST(FaultSpec, FactoriesEncodeKindRateAndParam) {
  const FaultSpec flip = FaultSpec::bus_bit_flip(0.25, 5);
  EXPECT_EQ(flip.kind, FaultKind::kBusBitFlip);
  EXPECT_DOUBLE_EQ(flip.rate, 0.25);
  EXPECT_EQ(flip.param, 5u);

  const FaultSpec starve = FaultSpec::bus_grant_starvation(0.5, 12);
  EXPECT_EQ(starve.kind, FaultKind::kBusGrantStarvation);
  EXPECT_EQ(starve.param, 12u);

  const FaultSpec hang = FaultSpec::peripheral_hang(1.0);
  EXPECT_EQ(hang.kind, FaultKind::kPeripheralStall);
  EXPECT_EQ(hang.param, FaultSpec::kHang);

  // Stuck-at packs the line index in bits 0..5 and the value in bit 6.
  const FaultSpec stuck1 = FaultSpec::stuck_at(1.0, 3, true);
  EXPECT_EQ(stuck1.param, 3u | 0x40u);
  const FaultSpec stuck0 = FaultSpec::stuck_at(1.0, 3, false);
  EXPECT_EQ(stuck0.param, 3u);

  EXPECT_EQ(FaultSpec::dma_drop(0.1).kind, FaultKind::kDmaDrop);
  EXPECT_EQ(FaultSpec::dma_duplicate(0.1).kind, FaultKind::kDmaDuplicate);
  EXPECT_EQ(FaultSpec::kernel_result_corruption(0.1, 0xff).param, 0xffu);
}

TEST(FaultSpec, FactoriesRejectInvalidParams) {
  EXPECT_THROW(FaultSpec::bus_bit_flip(0.1, 65), PreconditionError);
  EXPECT_THROW(FaultSpec::bus_grant_starvation(0.1, 0), PreconditionError);
  EXPECT_THROW(FaultSpec::peripheral_stall(0.1, 0), PreconditionError);
  EXPECT_THROW(FaultSpec::stuck_at(0.1, 64, true), PreconditionError);
}

TEST(FaultPlan, EnabledNeedsPositiveRateAndBudget) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.add(FaultSpec::bus_bit_flip(0.0));
  EXPECT_FALSE(plan.enabled());
  FaultSpec broke = FaultSpec::dma_drop(0.5);
  broke.max_count = 0;
  plan.add(broke);
  EXPECT_FALSE(plan.enabled());
  plan.add(FaultSpec::peripheral_stall(0.1, 10));
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlan, SummaryNamesEverySpec) {
  FaultPlan plan;
  plan.add(FaultSpec::bus_bit_flip(0.01))
      .add(FaultSpec::peripheral_hang(0.05));
  const std::string s = plan.summary();
  EXPECT_NE(s.find("bus_bit_flip"), std::string::npos);
  EXPECT_NE(s.find("peripheral_stall"), std::string::npos);
  EXPECT_NE(s.find("param=hang"), std::string::npos);
}

// ------------------------------------------------------ ResilienceReport

TEST(ResilienceReport, InvariantsDetectViolations) {
  ResilienceReport r;
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.invariants_hold());
  r.injected = 5;
  r.injected_by_kind[0] = 5;
  r.detected = 3;
  r.recovered = 2;
  EXPECT_TRUE(r.invariants_hold());
  EXPECT_FALSE(r.empty());

  ResilienceReport bad = r;
  bad.detected = 6;  // detected > injected
  EXPECT_FALSE(bad.invariants_hold());
  bad = r;
  bad.recovered = 4;  // recovered > detected
  EXPECT_FALSE(bad.invariants_hold());
  bad = r;
  bad.injected_by_kind[0] = 4;  // per-kind sum != injected
  EXPECT_FALSE(bad.invariants_hold());
}

TEST(ResilienceReport, MergeSumsEveryCounter) {
  ResilienceReport a, b;
  a.injected = 3;
  a.injected_by_kind[1] = 3;
  a.detected = 2;
  a.recovery_cycles = 100;
  b.injected = 4;
  b.injected_by_kind[2] = 4;
  b.recovered = 1;
  b.degradations = 2;
  b.retries = 5;
  a.merge(b);
  EXPECT_EQ(a.injected, 7u);
  EXPECT_EQ(a.injected_by_kind[1], 3u);
  EXPECT_EQ(a.injected_by_kind[2], 4u);
  EXPECT_EQ(a.detected, 2u);
  EXPECT_EQ(a.recovered, 1u);
  EXPECT_EQ(a.retries, 5u);
  EXPECT_EQ(a.degradations, 2u);
  EXPECT_EQ(a.recovery_cycles, 100u);
}

TEST(ResilienceReport, SummaryRendersCountersAndKinds) {
  ResilienceReport r;
  r.injected = 2;
  r.injected_by_kind[static_cast<std::size_t>(FaultKind::kDmaDrop)] = 2;
  const std::string s = r.summary();
  EXPECT_NE(s.find("injected=2"), std::string::npos);
  EXPECT_NE(s.find("dma_drop"), std::string::npos);
}

// ---------------------------------------------------------- FaultInjector

TEST(FaultInjector, DisabledPlanIsIdentity) {
  FaultInjector fi(42, FaultPlan{});
  EXPECT_FALSE(fi.enabled());
  EXPECT_EQ(fi.corrupt_bus_word(0x1234), 0x1234);
  EXPECT_EQ(fi.grant_starvation_cycles(), 0u);
  EXPECT_FALSE(fi.drop_dma_burst());
  EXPECT_FALSE(fi.duplicate_dma_burst());
  EXPECT_EQ(fi.peripheral_stall_cycles(), 0u);
  EXPECT_EQ(fi.corrupt_kernel_result(-7), -7);
  EXPECT_TRUE(fi.report().empty());
}

TEST(FaultInjector, SameSeedAndPlanReplaysTheExactSchedule) {
  FaultPlan plan;
  plan.add(FaultSpec::bus_bit_flip(0.3))
      .add(FaultSpec::bus_grant_starvation(0.2, 7))
      .add(FaultSpec::kernel_result_corruption(0.1));
  FaultInjector a(99, plan), b(99, plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.corrupt_bus_word(i), b.corrupt_bus_word(i));
    EXPECT_EQ(a.grant_starvation_cycles(), b.grant_starvation_cycles());
    EXPECT_EQ(a.corrupt_kernel_result(i), b.corrupt_kernel_result(i));
  }
  EXPECT_EQ(a.report(), b.report());
  EXPECT_GT(a.report().injected, 0u);
}

TEST(FaultInjector, FixedBitFlipTouchesExactlyThatBit) {
  FaultPlan plan;
  plan.add(FaultSpec::bus_bit_flip(1.0, 5));
  FaultInjector fi(1, plan);
  for (int i = 0; i < 20; ++i) {
    const std::int64_t out = fi.corrupt_bus_word(i);
    EXPECT_EQ(out ^ i, 1 << 5);
  }
  EXPECT_EQ(fi.report().injected, 20u);
  EXPECT_EQ(fi.report().injected_by_kind[static_cast<std::size_t>(
                FaultKind::kBusBitFlip)],
            20u);
}

TEST(FaultInjector, RandomBitFlipTouchesExactlyOneBit) {
  FaultPlan plan;
  plan.add(FaultSpec::bus_bit_flip(1.0));
  FaultInjector fi(1, plan);
  std::set<std::uint64_t> bits;
  for (int i = 0; i < 200; ++i) {
    const auto diff =
        static_cast<std::uint64_t>(fi.corrupt_bus_word(0));
    ASSERT_NE(diff, 0u);
    EXPECT_EQ(diff & (diff - 1), 0u) << "more than one bit flipped";
    bits.insert(diff);
  }
  EXPECT_GT(bits.size(), 10u) << "random bit choice is not random";
}

TEST(FaultInjector, MaxCountBoundsInjections) {
  FaultPlan plan;
  FaultSpec spec = FaultSpec::bus_bit_flip(1.0, 0);
  spec.max_count = 3;
  plan.add(spec);
  FaultInjector fi(1, plan);
  int corrupted = 0;
  for (int i = 0; i < 50; ++i) {
    if (fi.corrupt_bus_word(0) != 0) ++corrupted;
  }
  EXPECT_EQ(corrupted, 3);
  EXPECT_EQ(fi.report().injected, 3u);
}

TEST(FaultInjector, BudgetExhaustionDoesNotShiftLaterSpecsSchedules) {
  // The stream position depends only on the opportunity count, so
  // changing one spec's budget must not move another spec's injections.
  const auto schedule_of = [](std::uint64_t budget) {
    FaultPlan plan;
    FaultSpec first = FaultSpec::bus_bit_flip(0.5, 3);
    first.max_count = budget;
    plan.add(first);
    plan.add(FaultSpec::bus_bit_flip(0.5, 7));
    FaultInjector fi(5, plan);
    std::vector<bool> bit7;
    for (int i = 0; i < 100; ++i) {
      bit7.push_back((fi.corrupt_bus_word(0) & (1 << 7)) != 0);
    }
    return bit7;
  };
  EXPECT_EQ(schedule_of(0), schedule_of(UINT64_MAX));
}

TEST(FaultInjector, StuckAtLatchesAndDistortsEveryLaterWord) {
  FaultPlan plan;
  plan.add(FaultSpec::stuck_at(1.0, 2, true));
  FaultInjector fi(1, plan);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fi.corrupt_bus_word(0), 1 << 2);
  }
  // Words whose bit already matches pass through uncorrupted (and are
  // not counted), so injected == the number of actually-distorted words.
  EXPECT_EQ(fi.corrupt_bus_word(1 << 2), 1 << 2);
  EXPECT_GE(fi.report().injected, 10u);
  EXPECT_TRUE(fi.report().invariants_hold());

  FaultPlan low;
  low.add(FaultSpec::stuck_at(1.0, 0, false));
  FaultInjector fi0(1, low);
  EXPECT_EQ(fi0.corrupt_bus_word(0xff), 0xfe);
}

TEST(FaultInjector, StarvationAndStallReturnSpecParams) {
  FaultPlan plan;
  plan.add(FaultSpec::bus_grant_starvation(1.0, 9))
      .add(FaultSpec::peripheral_stall(1.0, 33));
  FaultInjector fi(1, plan);
  EXPECT_EQ(fi.grant_starvation_cycles(), 9u);
  EXPECT_EQ(fi.peripheral_stall_cycles(), 33u);

  FaultPlan hang;
  hang.add(FaultSpec::peripheral_stall(1.0, 5))
      .add(FaultSpec::peripheral_hang(1.0));
  FaultInjector fih(1, hang);
  EXPECT_EQ(fih.peripheral_stall_cycles(), FaultSpec::kHang);
}

TEST(FaultInjector, KernelCorruptionAppliesMaskOrRandomNonZero) {
  FaultPlan plan;
  plan.add(FaultSpec::kernel_result_corruption(1.0, 0xf0));
  FaultInjector fi(1, plan);
  EXPECT_EQ(fi.corrupt_kernel_result(0), 0xf0);

  FaultPlan rnd;
  rnd.add(FaultSpec::kernel_result_corruption(1.0));
  FaultInjector fir(1, rnd);
  for (int i = 0; i < 20; ++i) {
    EXPECT_NE(fir.corrupt_kernel_result(42), 42);
  }
}

TEST(FaultInjector, DmaHooksFireAtRateOne) {
  FaultPlan plan;
  plan.add(FaultSpec::dma_drop(1.0)).add(FaultSpec::dma_duplicate(1.0));
  FaultInjector fi(1, plan);
  EXPECT_TRUE(fi.drop_dma_burst());
  EXPECT_TRUE(fi.duplicate_dma_burst());
  EXPECT_EQ(fi.report().injected, 2u);
}

}  // namespace
}  // namespace mhs::fault

namespace mhs::sim {
namespace {

/// Drives the accelerator co-simulation through the sim::run seam.
CosimReport accel_cosim(
    const hw::HlsResult& impl, const CosimConfig& config,
    const std::vector<std::vector<std::int64_t>>& samples) {
  SimRequest sreq;
  sreq.impl = &impl;
  sreq.samples = &samples;
  sreq.cosim = config;
  return run(sreq).cosim.value();
}

hw::HlsResult make_impl(const ir::Cdfg& kernel) {
  static hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  return hw::synthesize(kernel, lib, constraints);
}

std::vector<std::vector<std::int64_t>> random_samples(
    const ir::Cdfg& kernel, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> samples;
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-1000, 1000));
    }
    samples.push_back(std::move(in));
  }
  return samples;
}

std::int64_t reference_checksum(const ir::Cdfg& kernel,
                                const std::vector<std::vector<std::int64_t>>&
                                    samples) {
  std::int64_t sum = 0;
  for (const auto& s : samples) {
    std::map<std::string, std::int64_t> in;
    std::size_t k = 0;
    for (const ir::OpId id : kernel.inputs()) {
      in[kernel.op(id).name] = s[k++];
    }
    for (const auto& [name, value] : kernel.evaluate(in)) sum += value;
  }
  return sum;
}

// --------------------------------------------------- component-level hooks

TEST(FaultBus, GrantStarvationDelaysEveryAccess) {
  Simulator clean_sim;
  BusModel clean(clean_sim, BusConfig{}, InterfaceLevel::kRegister);
  clean.access(0x1000, false);
  clean_sim.run();
  const Time clean_t = clean_sim.now();

  fault::FaultPlan plan;
  plan.add(fault::FaultSpec::bus_grant_starvation(1.0, 10));
  fault::FaultInjector fi(1, plan);
  Simulator sim;
  BusModel bus(sim, BusConfig{}, InterfaceLevel::kRegister);
  bus.set_fault_injector(&fi);
  bus.access(0x1000, false);
  sim.run();
  EXPECT_EQ(sim.now(), clean_t + 10);
  EXPECT_EQ(fi.report().injected, 1u);
}

struct FaultPeriphFixture : public ::testing::Test {
  FaultPeriphFixture()
      : impl(make_impl(kernel)),
        periph(sim, impl, InterfaceLevel::kRegister) {}

  void load_and_go() {
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      periph.reg_write(PeripheralLayout::kInputBase + 8 * k, 1);
    }
    periph.reg_write(PeripheralLayout::kCtrl, 1);
  }

  ir::Cdfg kernel = apps::fir_kernel(4);
  hw::HlsResult impl;
  Simulator sim;
  StreamPeripheral periph;
};

TEST_F(FaultPeriphFixture, StallPostponesCompletionByParamCycles) {
  fault::FaultPlan plan;
  plan.add(fault::FaultSpec::peripheral_stall(1.0, 25));
  fault::FaultInjector fi(1, plan);
  periph.set_fault_injector(&fi);
  load_and_go();
  EXPECT_EQ(periph.busy_until(), periph.latency() + 25);
  sim.run();
  EXPECT_TRUE(periph.done());
  EXPECT_EQ(sim.now(), periph.latency() + 25);
}

TEST_F(FaultPeriphFixture, HangNeverCompletesUntilReset) {
  fault::FaultPlan plan;
  fault::FaultSpec hang = fault::FaultSpec::peripheral_hang(1.0);
  hang.max_count = 1;
  plan.add(hang);
  fault::FaultInjector fi(1, plan);
  periph.set_fault_injector(&fi);
  load_and_go();
  EXPECT_EQ(periph.busy_until(), StreamPeripheral::kNever);
  sim.run();
  EXPECT_TRUE(periph.busy());
  EXPECT_FALSE(periph.done());

  // RESET (ctrl bit 2) clears the hang; the retried activation succeeds
  // and any stale completion from the hung one stays discarded.
  periph.reg_write(PeripheralLayout::kCtrl, 4);
  EXPECT_FALSE(periph.busy());
  load_and_go();
  EXPECT_NE(periph.busy_until(), StreamPeripheral::kNever);
  sim.run();
  EXPECT_TRUE(periph.done());
}

TEST_F(FaultPeriphFixture, GoWhileBusyIsDroppedUnderInjection) {
  fault::FaultPlan plan;
  plan.add(fault::FaultSpec::peripheral_stall(1.0, 1000));
  fault::FaultInjector fi(1, plan);
  periph.set_fault_injector(&fi);
  load_and_go();
  const Time first_busy_until = periph.busy_until();
  periph.reg_write(PeripheralLayout::kCtrl, 1);  // GO while busy: dropped
  EXPECT_EQ(periph.busy_until(), first_busy_until);
  EXPECT_EQ(periph.activations(), 1u);
}

TEST_F(FaultPeriphFixture, ResultCorruptionChangesOutputs) {
  fault::FaultPlan plan;
  plan.add(fault::FaultSpec::kernel_result_corruption(1.0, 0xff));
  fault::FaultInjector fi(1, plan);
  periph.set_fault_injector(&fi);
  load_and_go();
  sim.run();
  std::map<std::string, std::int64_t> in;
  for (const ir::OpId id : kernel.inputs()) in[kernel.op(id).name] = 1;
  const std::int64_t truth = kernel.evaluate(in).begin()->second;
  EXPECT_EQ(periph.reg_read(PeripheralLayout::kOutputBase), truth ^ 0xff);
}

struct FaultDmaFixture : public ::testing::Test {
  FaultDmaFixture()
      : impl(make_impl(kernel)),
        bus(sim, BusConfig{}, InterfaceLevel::kRegister),
        device(sim, impl, InterfaceLevel::kRegister) {}

  DmaMemoryPort port() {
    return DmaMemoryPort{
        [this](std::uint64_t addr) { return memory[addr]; },
        [this](std::uint64_t addr, std::int64_t v) { memory[addr] = v; }};
  }

  ir::Cdfg kernel = apps::fir_kernel(4);
  hw::HlsResult impl;
  Simulator sim;
  BusModel bus;
  StreamPeripheral device;
  std::map<std::uint64_t, std::int64_t> memory;
};

TEST_F(FaultDmaFixture, DroppedBurstKillsTransferWithoutCompletion) {
  fault::FaultPlan plan;
  plan.add(fault::FaultSpec::dma_drop(1.0));
  fault::FaultInjector fi(1, plan);
  DmaEngine dma(sim, bus, port(), device);
  dma.set_fault_injector(&fi);
  int completions = 0;
  dma.set_completion_callback([&] { ++completions; });
  for (std::size_t k = 0; k < 4; ++k) memory[0x1000 + 8 * k] = 11;
  dma.start(DmaDirection::kMemToDevice, 0x1000,
            PeripheralLayout::kInputBase, 32);
  sim.run();
  EXPECT_FALSE(dma.busy());
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(dma.transfers_completed(), 0u);
  EXPECT_EQ(dma.transfers_dropped(), 1u);
}

TEST_F(FaultDmaFixture, DuplicatedBurstReplaysOnBusButLandsOnce) {
  fault::FaultPlan plan;
  fault::FaultSpec dup = fault::FaultSpec::dma_duplicate(1.0);
  dup.max_count = 1;
  plan.add(dup);
  fault::FaultInjector fi(1, plan);
  DmaEngine dma(sim, bus, port(), device, /*burst_bytes=*/32);
  dma.set_fault_injector(&fi);
  for (std::size_t k = 0; k < 4; ++k) {
    memory[0x1000 + 8 * k] = static_cast<std::int64_t>(k + 1);
  }
  dma.start(DmaDirection::kMemToDevice, 0x1000,
            PeripheralLayout::kInputBase, 32);
  sim.run();
  EXPECT_EQ(dma.bursts_issued(), 2u);  // one logical burst, replayed
  EXPECT_EQ(dma.transfers_completed(), 1u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(device.reg_read(PeripheralLayout::kInputBase + 8 * k),
              static_cast<std::int64_t>(k + 1));
  }
}

TEST_F(FaultDmaFixture, CancelMidFlightDisarmsPendingBurstEvents) {
  DmaEngine dma(sim, bus, port(), device, /*burst_bytes=*/8);
  for (std::size_t k = 0; k < 4; ++k) memory[0x1000 + 8 * k] = 77;
  dma.start(DmaDirection::kMemToDevice, 0x1000,
            PeripheralLayout::kInputBase, 32);
  // Let the first burst land, then cancel with later bursts in flight.
  sim.advance_to(sim.now() + 1);
  dma.cancel();
  EXPECT_FALSE(dma.busy());
  const std::int64_t before = device.reg_read(PeripheralLayout::kInputBase +
                                              8 * 3);
  sim.run();  // disarmed events pop harmlessly
  EXPECT_EQ(device.reg_read(PeripheralLayout::kInputBase + 8 * 3), before);
  EXPECT_EQ(dma.transfers_completed(), 0u);

  // The engine is reusable after a cancellation.
  dma.start(DmaDirection::kMemToDevice, 0x1000,
            PeripheralLayout::kInputBase, 32);
  sim.run();
  EXPECT_EQ(dma.transfers_completed(), 1u);
}

TEST_F(FaultDmaFixture, TeardownWithInFlightEventsDoesNotCrash) {
  // Regression: the completion event of a mid-flight transfer used to
  // fire into a destroyed engine. The epoch token now disarms it.
  {
    DmaEngine dma(sim, bus, port(), device, /*burst_bytes=*/8);
    for (std::size_t k = 0; k < 4; ++k) memory[0x1000 + 8 * k] = 5;
    dma.start(DmaDirection::kMemToDevice, 0x1000,
              PeripheralLayout::kInputBase, 32);
  }  // engine destroyed with burst events still queued
  sim.run();  // must not touch the dead engine
  SUCCEED();
}

// ------------------------------------------------------ cosim differential

struct LevelGolden {
  InterfaceLevel level;
  bool use_irq;
  double cycles;
  std::uint64_t events;
  std::uint64_t bus_accesses;
};

TEST(FaultCosim, FaultFreeRunsMatchPrePrBaseline) {
  // Golden numbers captured from the co-simulator before mhs::fault
  // existed: a disabled plan must leave every level bit-identical.
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 6, 42);
  const std::int64_t want_checksum = -184;
  ASSERT_EQ(reference_checksum(kernel, samples), want_checksum);

  const LevelGolden goldens[] = {
      {InterfaceLevel::kPin, false, 450.0, 330, 54},
      {InterfaceLevel::kPin, true, 482.0, 270, 42},
      {InterfaceLevel::kRegister, false, 450.0, 60, 54},
      {InterfaceLevel::kRegister, true, 482.0, 48, 42},
      {InterfaceLevel::kDriver, false, 540.0, 18, 12},
      {InterfaceLevel::kMessage, false, 2460.0, 12, 12},
  };
  for (const LevelGolden& g : goldens) {
    CosimConfig cfg;
    cfg.level = g.level;
    cfg.use_irq = g.use_irq;
    // A plan object with only zero-rate specs is as good as no plan.
    cfg.fault_plan.add(fault::FaultSpec::bus_bit_flip(0.0))
        .add(fault::FaultSpec::dma_drop(0.0));
    const CosimReport report = accel_cosim(impl, cfg, samples);
    const std::string what = std::string(interface_level_name(g.level)) +
                             (g.use_irq ? "+irq" : "");
    EXPECT_EQ(report.total_cycles, g.cycles) << what;
    EXPECT_EQ(report.sim_events, g.events) << what;
    EXPECT_EQ(report.bus_accesses, g.bus_accesses) << what;
    EXPECT_EQ(report.checksum, want_checksum) << what;
    EXPECT_TRUE(report.resilience.empty()) << what;
  }
}

TEST(FaultCosim, LargeSampleCountsMatchTheReferenceAtEveryLevel) {
  // Past 64 samples, 8 inputs per sample outgrow the driver's default
  // 512-word input buffer; every level must still read each sample's own
  // inputs and keep its outputs clear of the MMIO windows.
  const ir::Cdfg kernel = apps::dct8_kernel();
  ASSERT_EQ(kernel.inputs().size(), 8u);
  const hw::HlsResult impl = make_impl(kernel);
  for (const std::size_t n : {65u, 256u, 1024u, 4096u}) {
    const auto samples = random_samples(kernel, n, 3);
    const std::int64_t want = reference_checksum(kernel, samples);
    for (const InterfaceLevel level : kAllInterfaceLevels) {
      CosimConfig cfg;
      cfg.level = level;
      EXPECT_EQ(accel_cosim(impl, cfg, samples).checksum, want)
          << interface_level_name(level) << " at " << n << " samples";
    }
  }
}

// --------------------------------------------------- determinism under load

fault::FaultPlan mixed_plan() {
  fault::FaultPlan plan;
  plan.add(fault::FaultSpec::bus_bit_flip(0.02))
      .add(fault::FaultSpec::bus_grant_starvation(0.05, 6))
      .add(fault::FaultSpec::peripheral_stall(0.2, 40))
      .add(fault::FaultSpec::kernel_result_corruption(0.1, 0x100));
  return plan;
}

TEST(FaultCosim, SameSeedAndPlanReproduceBitExactlyAtEveryLevel) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 8, 11);
  for (const InterfaceLevel level : kAllInterfaceLevels) {
    CosimConfig cfg;
    cfg.level = level;
    cfg.fault_plan = mixed_plan();
    cfg.fault_seed = 77;
    const CosimReport a = accel_cosim(impl, cfg, samples);
    const CosimReport b = accel_cosim(impl, cfg, samples);
    EXPECT_EQ(a.checksum, b.checksum) << interface_level_name(level);
    EXPECT_EQ(a.total_cycles, b.total_cycles) << interface_level_name(level);
    EXPECT_EQ(a.sim_events, b.sim_events) << interface_level_name(level);
    EXPECT_EQ(a.resilience, b.resilience) << interface_level_name(level);
    EXPECT_TRUE(a.resilience.invariants_hold())
        << interface_level_name(level);
    EXPECT_GT(a.resilience.injected, 0u) << interface_level_name(level);
  }
}

TEST(FaultCosim, DifferentSeedsScheduleDifferentFaults) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 8, 11);
  CosimConfig cfg;
  cfg.level = InterfaceLevel::kRegister;
  cfg.fault_plan = mixed_plan();
  cfg.fault_seed = 1;
  const CosimReport a = accel_cosim(impl, cfg, samples);
  cfg.fault_seed = 2;
  const CosimReport b = accel_cosim(impl, cfg, samples);
  EXPECT_FALSE(a.resilience == b.resilience &&
               a.checksum == b.checksum &&
               a.total_cycles == b.total_cycles);
}

// -------------------------------------------------------- recovery paths

TEST(FaultRecovery, SingleHangIsDetectedAndRetriedAtDriverLevel) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 4, 9);
  CosimConfig cfg;
  cfg.level = InterfaceLevel::kDriver;
  fault::FaultSpec hang = fault::FaultSpec::peripheral_hang(1.0);
  hang.max_count = 1;
  cfg.fault_plan.add(hang);
  const CosimReport report = accel_cosim(impl, cfg, samples);
  EXPECT_EQ(report.checksum, reference_checksum(kernel, samples));
  EXPECT_EQ(report.resilience.injected, 1u);
  EXPECT_EQ(report.resilience.detected, 1u);
  EXPECT_EQ(report.resilience.recovered, 1u);
  EXPECT_EQ(report.resilience.retries, 1u);
  EXPECT_EQ(report.resilience.degradations, 0u);
  EXPECT_GT(report.resilience.recovery_cycles, 0u);
  EXPECT_GT(report.profile.cycles(obs::Profile::kFaultRecovery), 0u);
}

TEST(FaultRecovery, SingleHangIsRecoveredAtIssLevels) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 4, 9);
  for (const InterfaceLevel level :
       {InterfaceLevel::kPin, InterfaceLevel::kRegister}) {
    CosimConfig cfg;
    cfg.level = level;
    fault::FaultSpec hang = fault::FaultSpec::peripheral_hang(1.0);
    hang.max_count = 1;
    cfg.fault_plan.add(hang);
    const CosimReport report = accel_cosim(impl, cfg, samples);
    EXPECT_EQ(report.checksum, reference_checksum(kernel, samples))
        << interface_level_name(level);
    EXPECT_EQ(report.resilience.recovered, 1u)
        << interface_level_name(level);
    EXPECT_GE(report.resilience.retries, 1u) << interface_level_name(level);
    EXPECT_EQ(report.resilience.degradations, 0u)
        << interface_level_name(level);
  }
}

TEST(FaultRecovery, SingleHangIsRecoveredAtMessageLevel) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 4, 9);
  CosimConfig cfg;
  cfg.level = InterfaceLevel::kMessage;
  fault::FaultSpec hang = fault::FaultSpec::peripheral_hang(1.0);
  hang.max_count = 1;
  cfg.fault_plan.add(hang);
  const CosimReport report = accel_cosim(impl, cfg, samples);
  EXPECT_EQ(report.checksum, reference_checksum(kernel, samples));
  EXPECT_EQ(report.resilience.recovered, 1u);
  EXPECT_EQ(report.resilience.degradations, 0u);
}

TEST(FaultRecovery, BackoffDoublesTheWindowUpToTheCap) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 1, 9);
  CosimConfig cfg;
  cfg.level = InterfaceLevel::kDriver;
  fault::FaultSpec hang = fault::FaultSpec::peripheral_hang(1.0);
  hang.max_count = 3;  // first three activations hang, the fourth works
  cfg.fault_plan.add(hang);
  cfg.resilience.timeout_cycles = 100;
  cfg.resilience.backoff_cap = 2;  // windows: 100, 200, 200
  cfg.resilience.max_retries = 3;
  const CosimReport report = accel_cosim(impl, cfg, samples);
  EXPECT_EQ(report.checksum, reference_checksum(kernel, samples));
  EXPECT_EQ(report.resilience.detected, 3u);
  EXPECT_EQ(report.resilience.recovered, 1u);
  // The watchdog windows are exactly the backed-off-and-capped sequence.
  EXPECT_EQ(report.profile.cycles(obs::Profile::kFaultRecovery),
            100u + 200u + 200u);
}

TEST(FaultRecovery, DegradationFallsBackToSoftwareAfterRetriesExhaust) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 6, 9);
  CosimConfig cfg;
  cfg.level = InterfaceLevel::kDriver;
  cfg.fault_plan.add(fault::FaultSpec::peripheral_hang(1.0));
  cfg.resilience.max_retries = 1;
  cfg.resilience.degrade_after = 2;  // sticky after two failed samples
  const CosimReport report = accel_cosim(impl, cfg, samples);
  // Every sample still computes the right answer — in software.
  EXPECT_EQ(report.checksum, reference_checksum(kernel, samples));
  EXPECT_EQ(report.resilience.degradations, samples.size());
  EXPECT_EQ(report.resilience.recovered, 0u);
  // Only the first two samples attempt hardware (then the driver sticks).
  // Only the first two samples attempt hardware (1 retry each) before
  // degradation goes sticky; the rest run the SW fallback directly.
  EXPECT_EQ(report.resilience.retries, 2u);
  EXPECT_TRUE(report.resilience.invariants_hold());
}

TEST(FaultRecovery, ResilientIsaDriverDegradesAndStaysCorrect) {
  // The generated (ISS-executed) resilient driver must reach the same
  // checksum through its inlined software fallback — the relocated
  // kernel body, the register save/restore, and the monitor protocol all
  // have to be right for this to hold.
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 5, 13);
  for (const bool use_irq : {false, true}) {
    CosimConfig cfg;
    cfg.level = InterfaceLevel::kRegister;
    cfg.use_irq = use_irq;
    cfg.background_unroll = use_irq ? 2 : 0;
    cfg.fault_plan.add(fault::FaultSpec::peripheral_hang(1.0));
    cfg.resilience.max_retries = 1;
    cfg.resilience.degrade_after = 1;
    const CosimReport report = accel_cosim(impl, cfg, samples);
    EXPECT_EQ(report.checksum, reference_checksum(kernel, samples))
        << (use_irq ? "irq" : "polling");
    EXPECT_EQ(report.resilience.degradations, samples.size())
        << (use_irq ? "irq" : "polling");
    EXPECT_EQ(report.resilience.recovered, 0u);
    EXPECT_TRUE(report.resilience.invariants_hold());
  }
}

TEST(FaultRecovery, MessageLevelDegradationStaysCorrect) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 6, 13);
  CosimConfig cfg;
  cfg.level = InterfaceLevel::kMessage;
  cfg.fault_plan.add(fault::FaultSpec::peripheral_hang(1.0));
  cfg.resilience.max_retries = 2;
  cfg.resilience.degrade_after = 1;
  const CosimReport report = accel_cosim(impl, cfg, samples);
  EXPECT_EQ(report.checksum, reference_checksum(kernel, samples));
  EXPECT_EQ(report.resilience.degradations, samples.size());
  EXPECT_EQ(report.hw_activations, 0u);
}

TEST(FaultRecovery, VerifyWritesCatchesBusCorruptionAtDriverLevel) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 6, 17);
  CosimConfig cfg;
  cfg.level = InterfaceLevel::kDriver;
  cfg.fault_plan.add(fault::FaultSpec::bus_bit_flip(0.1, 13));
  cfg.resilience.verify_writes = true;
  const CosimReport report = accel_cosim(impl, cfg, samples);
  EXPECT_GT(report.resilience.injected, 0u);
  EXPECT_GT(report.resilience.detected, 0u);
  EXPECT_TRUE(report.resilience.invariants_hold());
}

TEST(FaultRecovery, ProfileBucketsSumToTotalUnderInjection) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 8, 23);
  for (const InterfaceLevel level : kAllInterfaceLevels) {
    CosimConfig cfg;
    cfg.level = level;
    cfg.fault_plan = mixed_plan();
    const CosimReport report = accel_cosim(impl, cfg, samples);
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < obs::Profile::kNumCategories; ++c) {
      sum += report.profile.cycles(static_cast<obs::Profile::Category>(c));
    }
    EXPECT_EQ(sum, report.profile.total()) << interface_level_name(level);
    EXPECT_EQ(static_cast<double>(report.profile.total()),
              report.total_cycles)
        << interface_level_name(level);
  }
}

TEST(FaultObs, CountersAndRecoveryHistogramReachTheRegistry) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 4, 9);
  obs::Registry registry;
  {
    obs::ScopedRegistry scope(registry);
    CosimConfig cfg;
    cfg.level = InterfaceLevel::kDriver;
    fault::FaultSpec hang = fault::FaultSpec::peripheral_hang(1.0);
    hang.max_count = 1;
    cfg.fault_plan.add(hang);
    (void)accel_cosim(impl, cfg, samples);
  }
  EXPECT_EQ(registry.counter("fault.injected"), 1u);
  EXPECT_EQ(registry.counter("fault.detected"), 1u);
  EXPECT_EQ(registry.counter("fault.recovered"), 1u);
  bool saw_hist = false;
  for (const obs::HistStat& h : registry.summary().hists) {
    saw_hist = saw_hist || h.name == "fault.recovery_cycles";
  }
  EXPECT_TRUE(saw_hist);
}

}  // namespace
}  // namespace mhs::sim

namespace mhs::core {
namespace {

// The component library must outlive every HlsResult synthesized from it
// (HlsResult keeps a pointer), so it is a function-local static, not a
// temporary.
hw::HlsResult make_impl(const ir::Cdfg& kernel) {
  static hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  return hw::synthesize(kernel, lib, constraints);
}

TEST(FaultFlow, ResilienceReportFlowsIntoTheUnifiedReport) {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  FlowConfig cfg = FlowConfig::defaults()
                       .with_fault_plan(fault::FaultPlan{}.add(
                           fault::FaultSpec::peripheral_stall(0.5, 50)))
                       .with_fault_seed(5);
  const FlowReport report = run_codesign_flow(w.graph, w.kernels, cfg);
  ASSERT_TRUE(report.cosim.has_value());
  ASSERT_EQ(report.report.resilience.size(), 1u);
  EXPECT_EQ(report.report.resilience[0], report.cosim->resilience);
  EXPECT_TRUE(report.report.resilience[0].invariants_hold());
  EXPECT_NE(report.report.str().find("faults injected"), std::string::npos);
}

TEST(FaultFlow, FaultFreeFlowKeepsReportResilienceEmpty) {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  const FlowReport report =
      run_codesign_flow(w.graph, w.kernels, FlowConfig::defaults());
  EXPECT_TRUE(report.report.resilience.empty());
}

TEST(FaultFlow, ThreadCountDoesNotChangeResilienceResults) {
  // Determinism satellite: each run owns its injector, so a batch of
  // faulty co-simulations spread over parallel_for at 1/2/4/8 threads
  // must produce identical ResilienceReports, checksums, and predicted
  // times.
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  Rng rng(19);
  std::vector<std::vector<std::int64_t>> samples;
  for (int s = 0; s < 6; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-500, 500));
    }
    samples.push_back(std::move(in));
  }
  constexpr std::size_t kRuns = 8;
  const auto run_batch = [&](std::size_t threads) {
    std::vector<sim::CosimReport> out(kRuns);
    parallel_for(threads, kRuns, [&](std::size_t i) {
      sim::CosimConfig cfg;
      cfg.level = sim::kAllInterfaceLevels[i % 4];
      cfg.fault_plan.add(fault::FaultSpec::peripheral_stall(0.4, 60))
          .add(fault::FaultSpec::bus_bit_flip(0.02));
      cfg.fault_seed = 100 + i;
      sim::SimRequest sreq;
      sreq.impl = &impl;
      sreq.samples = &samples;
      sreq.cosim = cfg;
      out[i] = sim::run(sreq).cosim.value();
    });
    return out;
  };
  const std::vector<sim::CosimReport> baseline = run_batch(1);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const std::vector<sim::CosimReport> got = run_batch(threads);
    for (std::size_t i = 0; i < kRuns; ++i) {
      EXPECT_EQ(got[i].resilience, baseline[i].resilience)
          << "run " << i << " at " << threads << " threads";
      EXPECT_EQ(got[i].checksum, baseline[i].checksum) << i;
      EXPECT_EQ(got[i].total_cycles, baseline[i].total_cycles) << i;
      EXPECT_EQ(got[i].sim_events, baseline[i].sim_events) << i;
      EXPECT_TRUE(got[i].resilience.invariants_hold()) << i;
    }
  }
}

TEST(FaultFlow, InterfaceSynthesisScoresDriversUnderInjection) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  Rng rng(3);
  std::vector<std::vector<std::int64_t>> samples;
  for (int s = 0; s < 6; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-100, 100));
    }
    samples.push_back(std::move(in));
  }
  cosynth::InterfaceRequirements reqs;
  reqs.fault_plan.add(fault::FaultSpec::peripheral_stall(0.4, 60));
  reqs.fault_seed = 21;
  cosynth::AddressMapAllocator allocator;
  cosynth::Request request;
  request.impl = &impl;
  request.interface_reqs = reqs;
  request.samples = &samples;
  request.allocator = &allocator;
  const cosynth::InterfaceDesign design =
      *cosynth::run(cosynth::Target::kInterface, request).iface;
  ASSERT_EQ(design.candidates.size(), 2u);
  for (const cosynth::DriverCandidate& cand : design.candidates) {
    EXPECT_GT(cand.report.resilience.injected, 0u);
    EXPECT_TRUE(cand.report.resilience.invariants_hold());
  }
}

}  // namespace
}  // namespace mhs::core
