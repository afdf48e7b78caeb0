// Deterministic fault injection for the co-simulation backplane.
//
// Adams & Thomas argue a mixed HW/SW design is only trustworthy if the
// co-simulation exposes interface misbehaviour — bus contention,
// peripheral latency, dropped hand-offs — *before* synthesis commits a
// partition. mhs::fault makes the unhappy paths first-class: a FaultPlan
// is a list of FaultSpecs (bus bit-flips, grant starvation, dropped or
// duplicated DMA bursts, peripheral stalls and hangs, stuck-at data
// lines, transient kernel-result corruption) scheduled by a seeded
// SplitMix64 PRNG, so every run is bit-exactly reproducible from
// (seed, plan) — the same property the partition explorer relies on for
// thread-count-independent results.
//
// The FaultInjector is threaded through sim::BusModel, sim::DmaEngine,
// sim::StreamPeripheral, and the driver layer at all four
// InterfaceLevels. It also keeps the run's ResilienceReport: how many
// faults were injected, how many the timeout/retry/verify machinery in
// sim::driver *detected*, how many operations it *recovered* by
// retrying, and how often it *degraded* to software execution of the
// kernel. The invariant injected >= detected >= recovered always holds:
// detection mechanisms (watchdog timeouts, write-verify) can only fire
// when a fault perturbed the run, and a recovery presupposes a
// detection.
//
// The library is deliberately free of simulator dependencies (only
// mhs_base), so core::Report can embed a ResilienceReport without
// pulling in the simulation stack.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mhs::fault {

// --------------------------------------------------------------- SplitMix64

/// SplitMix64: the 64-bit finalizer-based PRNG (Steele et al.). One
/// multiply-xorshift pipeline per draw, full 2^64 period, and — unlike a
/// shared global stream — cheap to fork per injector, which is what makes
/// fault schedules reproducible from a single (seed, plan) pair.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value.
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1) (53 significant bits).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

// -------------------------------------------------------------- fault kinds

/// Every interface misbehaviour the injector can schedule.
enum class FaultKind : std::uint8_t {
  kBusBitFlip,             ///< one data bit flips while crossing the bus
  kBusGrantStarvation,     ///< a phantom master delays the grant
  kDmaDrop,                ///< a DMA burst is lost; the transfer dies
  kDmaDuplicate,           ///< a DMA burst is issued twice
  kPeripheralStall,        ///< completion is late (param cycles) or never
  kStuckAtPin,             ///< a data line sticks at 0/1 (persistent)
  kKernelResultCorruption, ///< one activation's outputs are corrupted
};

inline constexpr std::size_t kNumFaultKinds = 7;

inline constexpr FaultKind kAllFaultKinds[kNumFaultKinds] = {
    FaultKind::kBusBitFlip,       FaultKind::kBusGrantStarvation,
    FaultKind::kDmaDrop,          FaultKind::kDmaDuplicate,
    FaultKind::kPeripheralStall,  FaultKind::kStuckAtPin,
    FaultKind::kKernelResultCorruption};

/// Stable lower_snake name of a fault kind.
const char* fault_kind_name(FaultKind kind);

// --------------------------------------------------------------- fault spec

/// One scheduled fault class: a kind, a per-opportunity probability, a
/// kind-specific parameter, and an optional injection budget.
struct FaultSpec {
  FaultKind kind = FaultKind::kBusBitFlip;
  /// Probability that the fault fires at each opportunity (each bus word,
  /// each DMA burst, each activation, ...). 0 disables the spec.
  double rate = 0.0;
  /// Kind-specific parameter:
  ///   kBusBitFlip:             bit index 0..63, or kRandomBit
  ///   kBusGrantStarvation:     extra grant-delay cycles
  ///   kPeripheralStall:        extra completion latency, or kHang
  ///                            (completion never arrives)
  ///   kStuckAtPin:             bit 0..5 = line index, bit 6 = stuck value
  ///   kKernelResultCorruption: XOR mask, or 0 = random non-zero mask
  ///   kDmaDrop / kDmaDuplicate: unused
  std::uint64_t param = 0;
  /// Injections this spec may perform over the run (budget).
  std::uint64_t max_count = UINT64_MAX;

  /// kPeripheralStall param: the completion is dropped entirely — the
  /// classic dropped hand-off. Only a watchdog timeout can detect it.
  static constexpr std::uint64_t kHang = UINT64_MAX;
  /// kBusBitFlip param: pick a fresh random bit per injection.
  static constexpr std::uint64_t kRandomBit = 64;

  // Factories (the readable way to build plans).
  static FaultSpec bus_bit_flip(double rate, std::uint64_t bit = kRandomBit);
  static FaultSpec bus_grant_starvation(double rate, std::uint64_t cycles);
  static FaultSpec dma_drop(double rate);
  static FaultSpec dma_duplicate(double rate);
  static FaultSpec peripheral_stall(double rate, std::uint64_t extra_cycles);
  static FaultSpec peripheral_hang(double rate);
  static FaultSpec stuck_at(double rate, std::uint64_t bit, bool value);
  static FaultSpec kernel_result_corruption(double rate,
                                            std::uint64_t xor_mask = 0);
};

// --------------------------------------------------------------- fault plan

/// The full fault schedule of a run: an ordered list of specs. The order
/// is part of the schedule — injectors consult specs in plan order, so
/// two plans with the same specs in a different order are different
/// (equally valid) schedules.
struct FaultPlan {
  std::vector<FaultSpec> specs;

  /// Fluent append.
  FaultPlan& add(const FaultSpec& spec) {
    specs.push_back(spec);
    return *this;
  }

  /// True iff any spec can actually fire (rate > 0 and budget > 0).
  /// Disabled plans keep every simulator hook on its fault-free path.
  bool enabled() const;

  /// One line per spec ("bus_bit_flip rate=0.01 param=63 ...").
  std::string summary() const;
};

// -------------------------------------------------------- resilience report

/// What the injection run did to the design and how the design coped.
/// Embedded in sim::CosimReport and core::Report.
struct ResilienceReport {
  /// Faults the injector actually fired.
  std::uint64_t injected = 0;
  /// Fault consequences the resilience machinery noticed (watchdog
  /// timeouts, write-verify mismatches). Payload corruption that no
  /// mechanism checks stays silent — injected counts it, detected
  /// doesn't, which is exactly the gap a fault campaign measures.
  std::uint64_t detected = 0;
  /// Detected failures that a retry ultimately resolved in hardware.
  std::uint64_t recovered = 0;
  /// Hardware retry attempts issued (resets + re-activations).
  std::uint64_t retries = 0;
  /// Samples completed by the software fallback path.
  std::uint64_t degradations = 0;
  /// Simulated cycles spent between first detection and resolution
  /// (retry success or degradation), summed over all recovery windows.
  std::uint64_t recovery_cycles = 0;
  /// Per-kind injection counts (indexed by FaultKind).
  std::uint64_t injected_by_kind[kNumFaultKinds] = {};

  bool operator==(const ResilienceReport&) const = default;

  /// True iff nothing fired (the report of a fault-free run).
  bool empty() const { return injected == 0 && detected == 0; }

  /// The library invariant: injected >= detected >= recovered, and the
  /// per-kind counts sum to injected.
  bool invariants_hold() const;

  /// Folds another report in (counter-wise sum).
  void merge(const ResilienceReport& other);

  /// Plain-text table of the counters plus the per-kind breakdown.
  std::string summary() const;
};

// ------------------------------------------------------------ the injector

/// The per-run fault scheduler and resilience scoreboard. Construct one
/// per co-simulation run from (seed, plan); hand it to the simulator
/// components (they accept a pointer and treat nullptr as "no faults").
///
/// Determinism: every decision hook draws from the private SplitMix64
/// stream in plan order, and the discrete-event simulator calls hooks in
/// a deterministic order, so the full injection schedule — and therefore
/// the run's results — is a pure function of (seed, plan, workload).
/// Injectors are not thread-safe; use one per concurrently-running
/// simulation (they are cheap).
class FaultInjector {
 public:
  FaultInjector(std::uint64_t seed, FaultPlan plan);

  std::uint64_t seed() const { return seed_; }
  const FaultPlan& plan() const { return plan_; }
  /// True iff the plan can fire at all (cached from FaultPlan::enabled).
  bool enabled() const { return enabled_; }

  // ---- injection hooks (called by sim components) -----------------------

  /// Applies bus data-payload faults (bit flips, stuck-at lines) to one
  /// word crossing the bus. Identity when nothing fires.
  std::int64_t corrupt_bus_word(std::int64_t value);

  /// Extra cycles a phantom master holds the bus before this grant
  /// (0 = no starvation this time).
  std::uint64_t grant_starvation_cycles();

  /// True iff this DMA burst is lost (transfer dies, no completion).
  bool drop_dma_burst();

  /// True iff this DMA burst is issued twice.
  bool duplicate_dma_burst();

  /// Extra completion latency for this activation; FaultSpec::kHang
  /// means the completion never arrives (dropped hand-off).
  std::uint64_t peripheral_stall_cycles();

  /// Applies transient result corruption to one kernel output value.
  std::int64_t corrupt_kernel_result(std::int64_t value);

  // ---- resilience scoreboard (called by the driver layers) --------------

  void note_detected() { ++report_.detected; }
  void note_retry() { ++report_.retries; }
  void note_recovered(std::uint64_t recovery_cycles) {
    ++report_.recovered;
    report_.recovery_cycles += recovery_cycles;
  }
  void note_degraded(std::uint64_t recovery_cycles) {
    ++report_.degradations;
    report_.recovery_cycles += recovery_cycles;
  }

  const ResilienceReport& report() const { return report_; }

 private:
  /// Draws once and decides whether `spec` fires now; tracks the budget
  /// and the per-kind counts when it does.
  bool fires(std::size_t spec_index);

  std::uint64_t seed_ = 0;
  FaultPlan plan_;
  bool enabled_ = false;
  SplitMix64 rng_;
  std::vector<std::uint64_t> fired_;  ///< per-spec injection counts
  ResilienceReport report_;
  // Stuck-at state: once a stuck-at spec fires, the line stays stuck.
  bool stuck_active_ = false;
  std::uint64_t stuck_bit_ = 0;
  bool stuck_value_ = false;
};

}  // namespace mhs::fault
