#include "sw/iss.h"

#include "ir/cdfg.h"

namespace mhs::sw {

Iss::Iss(CpuModel model) : model_(std::move(model)) {
  histogram_.assign(static_cast<std::size_t>(Opcode::kIret) + 1, 0);
}

void Iss::load_program(std::vector<Instr> code) {
  code_ = std::move(code);
  reset();
}

void Iss::reset() {
  for (auto& r : regs_) r = 0;
  pc_ = 0;
  halted_ = code_.empty();
  irq_pending_ = false;
  in_isr_ = false;
  saved_pc_ = 0;
  total_cycles_ = 0;
  total_instructions_ = 0;
  std::fill(histogram_.begin(), histogram_.end(), 0);
}

std::int64_t Iss::mem_load(std::uint64_t word_index) const {
  const std::uint64_t page = word_index >> kPageShift;
  if (page < pages_.size() && pages_[page] != nullptr) {
    return pages_[page][word_index & (kPageWords - 1)];
  }
  if (page < kMaxDirectPages) return 0;  // never-written direct page
  const auto it = far_memory_.find(word_index);
  return it == far_memory_.end() ? 0 : it->second;
}

void Iss::mem_store(std::uint64_t word_index, std::int64_t value) {
  const std::uint64_t page = word_index >> kPageShift;
  if (page < kMaxDirectPages) {
    if (page >= pages_.size()) pages_.resize(page + 1);
    if (pages_[page] == nullptr) {
      pages_[page] = std::make_unique<std::int64_t[]>(kPageWords);
    }
    pages_[page][word_index & (kPageWords - 1)] = value;
  } else {
    far_memory_[word_index] = value;
  }
}

void Iss::write_word(std::uint64_t addr, std::int64_t value) {
  MHS_CHECK(addr % 8 == 0, "unaligned word write at 0x" << std::hex << addr);
  if (const MmioRange* range = find_mmio(addr)) {
    range->write(addr, value);
    return;
  }
  mem_store(addr >> 3, value);
}

std::int64_t Iss::read_word(std::uint64_t addr) {
  MHS_CHECK(addr % 8 == 0, "unaligned word read at 0x" << std::hex << addr);
  if (const MmioRange* range = find_mmio(addr)) {
    return range->read(addr);
  }
  return mem_load(addr >> 3);
}

void Iss::add_mmio(std::uint64_t lo, std::uint64_t hi,
                   std::function<std::int64_t(std::uint64_t)> read,
                   std::function<void(std::uint64_t, std::int64_t)> write) {
  MHS_CHECK(lo <= hi, "MMIO range inverted");
  for (const MmioRange& r : mmio_) {
    MHS_CHECK(hi < r.lo || lo > r.hi,
              "MMIO range [0x" << std::hex << lo << ",0x" << hi
                               << "] overlaps existing range");
  }
  mmio_.push_back(MmioRange{lo, hi, std::move(read), std::move(write)});
}

const Iss::MmioRange* Iss::find_mmio(std::uint64_t addr) const {
  for (const MmioRange& r : mmio_) {
    if (addr >= r.lo && addr <= r.hi) return &r;
  }
  return nullptr;
}

std::int64_t Iss::reg(std::size_t r) const {
  MHS_CHECK(r < kNumRegisters, "register x" << r << " out of range");
  return r == kZeroReg ? 0 : regs_[r];
}

void Iss::set_reg(std::size_t r, std::int64_t value) {
  MHS_CHECK(r < kNumRegisters, "register x" << r << " out of range");
  if (r != kZeroReg) regs_[r] = value;
}

// Table-threaded interpreter: one handler per opcode, dispatched through
// a function-pointer table instead of a switch. Each handler owns its
// complete semantics (result, next pc, cycle accounting). Arithmetic is
// ir's (wraparound, INT64_MIN / -1 == INT64_MIN, ir::op_traps for a zero
// divisor); shifts mask with & 63, as no trapping shift reaches the ISS.
struct Iss::Ops {
  static std::int64_t rs1(const Iss& s, const Instr& i) { return s.reg(i.rs1); }
  static std::int64_t rs2(const Iss& s, const Instr& i) { return s.reg(i.rs2); }

  /// Common epilogue: commit next_pc and charge the model's cycle cost.
  static std::uint64_t finish(Iss& s, const Instr& i, std::size_t next_pc,
                              bool taken) {
    s.pc_ = next_pc;
    const std::uint64_t cycles = s.model_.cycles_for(i, taken);
    s.total_cycles_ += cycles;
    return cycles;
  }

  static std::uint64_t nop(Iss& s, const Instr& i) {
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t halt(Iss& s, const Instr& i) {
    s.halted_ = true;
    return finish(s, i, s.pc_, false);
  }
  static std::uint64_t li(Iss& s, const Instr& i) {
    s.set_reg(i.rd, i.imm);
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t add(Iss& s, const Instr& i) {
    s.set_reg(i.rd, ir::wrap_add(rs1(s, i), rs2(s, i)));
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t sub(Iss& s, const Instr& i) {
    s.set_reg(i.rd, ir::wrap_sub(rs1(s, i), rs2(s, i)));
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t mul(Iss& s, const Instr& i) {
    s.set_reg(i.rd, ir::wrap_mul(rs1(s, i), rs2(s, i)));
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t div(Iss& s, const Instr& i) {
    const std::int64_t args[2] = {rs1(s, i), rs2(s, i)};
    MHS_CHECK(!ir::op_traps(ir::OpKind::kDiv, args),
              "ISS divide by zero at pc " << s.pc_);
    s.set_reg(i.rd, ir::wrap_div(args[0], args[1]));
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t shl(Iss& s, const Instr& i) {
    s.set_reg(i.rd, static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(rs1(s, i))
                        << (static_cast<std::uint64_t>(rs2(s, i)) & 63)));
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t shr(Iss& s, const Instr& i) {
    s.set_reg(i.rd,
              rs1(s, i) >> (static_cast<std::uint64_t>(rs2(s, i)) & 63));
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t band(Iss& s, const Instr& i) {
    s.set_reg(i.rd, rs1(s, i) & rs2(s, i));
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t bor(Iss& s, const Instr& i) {
    s.set_reg(i.rd, rs1(s, i) | rs2(s, i));
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t bxor(Iss& s, const Instr& i) {
    s.set_reg(i.rd, rs1(s, i) ^ rs2(s, i));
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t slt(Iss& s, const Instr& i) {
    s.set_reg(i.rd, rs1(s, i) < rs2(s, i) ? 1 : 0);
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t seq(Iss& s, const Instr& i) {
    s.set_reg(i.rd, rs1(s, i) == rs2(s, i) ? 1 : 0);
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t addi(Iss& s, const Instr& i) {
    s.set_reg(i.rd, ir::wrap_add(rs1(s, i), i.imm));
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t cmovnz(Iss& s, const Instr& i) {
    if (rs1(s, i) != 0) s.set_reg(i.rd, rs2(s, i));
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t ld(Iss& s, const Instr& i) {
    s.set_reg(i.rd,
              s.read_word(static_cast<std::uint64_t>(rs1(s, i) + i.imm)));
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t st(Iss& s, const Instr& i) {
    s.write_word(static_cast<std::uint64_t>(rs1(s, i) + i.imm), rs2(s, i));
    return finish(s, i, s.pc_ + 1, false);
  }
  static std::uint64_t beq(Iss& s, const Instr& i) {
    const bool taken = rs1(s, i) == rs2(s, i);
    return finish(s, i,
                  taken ? static_cast<std::size_t>(i.imm) : s.pc_ + 1, taken);
  }
  static std::uint64_t bne(Iss& s, const Instr& i) {
    const bool taken = rs1(s, i) != rs2(s, i);
    return finish(s, i,
                  taken ? static_cast<std::size_t>(i.imm) : s.pc_ + 1, taken);
  }
  static std::uint64_t jmp(Iss& s, const Instr& i) {
    return finish(s, i, static_cast<std::size_t>(i.imm), true);
  }
  static std::uint64_t iret(Iss& s, const Instr& i) {
    (void)i;
    MHS_CHECK(s.in_isr_, "iret outside interrupt handler at pc " << s.pc_);
    s.in_isr_ = false;
    s.pc_ = s.saved_pc_;
    s.total_cycles_ += kIretCycles;
    return kIretCycles;
  }

  using Handler = std::uint64_t (*)(Iss&, const Instr&);
  static constexpr Handler kTable[] = {
      /*kNop=*/nop,     /*kHalt=*/halt,  /*kLi=*/li,       /*kAdd=*/add,
      /*kSub=*/sub,     /*kMul=*/mul,    /*kDiv=*/div,     /*kShl=*/shl,
      /*kShr=*/shr,     /*kAnd=*/band,   /*kOr=*/bor,      /*kXor=*/bxor,
      /*kSlt=*/slt,     /*kSeq=*/seq,    /*kAddi=*/addi,
      /*kCmovnz=*/cmovnz, /*kLd=*/ld,    /*kSt=*/st,       /*kBeq=*/beq,
      /*kBne=*/bne,     /*kJmp=*/jmp,    /*kIret=*/iret,
  };
};

std::uint64_t Iss::step() {
  if (halted_) return 0;

  // Interrupt entry happens at instruction boundaries.
  if (irq_pending_ && irq_enabled_ && !in_isr_) {
    irq_pending_ = false;
    in_isr_ = true;
    saved_pc_ = pc_;
    pc_ = isr_pc_;
    total_cycles_ += kIrqEntryCycles;
    return kIrqEntryCycles;
  }

  MHS_CHECK(pc_ < code_.size(),
            "pc " << pc_ << " fell off the program (size " << code_.size()
                  << ")");
  const Instr& i = code_[pc_];
  ++histogram_[static_cast<std::size_t>(i.op)];
  ++total_instructions_;
  return Ops::kTable[static_cast<std::size_t>(i.op)](*this, i);
}

RunResult Iss::run(std::uint64_t max_cycles) {
  RunResult result;
  while (!halted_) {
    if (max_cycles != 0 && result.cycles >= max_cycles) break;
    const std::uint64_t before_instr = total_instructions_;
    result.cycles += step();
    result.instructions += total_instructions_ - before_instr;
  }
  result.halted = halted_;
  return result;
}

std::map<std::string, std::int64_t> run_program(
    Iss& iss, const Program& program,
    const std::map<std::string, std::int64_t>& inputs,
    std::uint64_t max_cycles, double* cycles) {
  iss.load_program(program.code);
  for (const auto& [name, addr] : program.input_addr) {
    const auto it = inputs.find(name);
    MHS_CHECK(it != inputs.end(), "run_program: missing input '" << name
                                                                 << "'");
    iss.write_word(addr, it->second);
  }
  const RunResult r = iss.run(max_cycles);
  MHS_CHECK(r.halted, "program did not halt within " << max_cycles
                                                     << " cycles");
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, addr] : program.output_addr) {
    out[name] = iss.read_word(addr);
  }
  if (cycles != nullptr) {
    *cycles = static_cast<double>(r.cycles) * iss.model().clock_scale;
  }
  return out;
}

}  // namespace mhs::sw
