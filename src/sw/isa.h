// The reference instruction-set architecture.
//
// A small 64-bit RISC: 32 general registers (x0 hard-wired to zero),
// three-address register ops, load/store with base+offset addressing,
// conditional branches with resolved absolute targets, and a conditional
// move so that straight-line kernels compile branch-free. This is the
// "software" side of every Type I and Type II experiment in the suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/error.h"

namespace mhs::sw {

inline constexpr std::size_t kNumRegisters = 32;
/// x0 always reads zero; writes are ignored.
inline constexpr std::uint8_t kZeroReg = 0;
/// x27..x29 are reserved scratch registers for the code generator's
/// spill/reload sequences; x30 is the loop counter of kernel wrappers.
inline constexpr std::uint8_t kScratch0 = 27;
inline constexpr std::uint8_t kScratch1 = 28;
inline constexpr std::uint8_t kScratch2 = 29;
inline constexpr std::uint8_t kLoopReg = 30;
/// Registers x1..x26 are available to the register allocator.
inline constexpr std::size_t kMaxAllocatableRegs = 26;

enum class Opcode : std::uint8_t {
  kNop,
  kHalt,
  kLi,      ///< rd <- imm
  kAdd,     ///< rd <- rs1 + rs2
  kSub,
  kMul,
  kDiv,     ///< signed; traps on zero divisor, INT64_MIN / -1 wraps
  kShl,     ///< rd <- rs1 << (rs2 & 63)
  kShr,     ///< arithmetic shift right
  kAnd,
  kOr,
  kXor,
  kSlt,     ///< rd <- (rs1 < rs2) ? 1 : 0, signed
  kSeq,     ///< rd <- (rs1 == rs2) ? 1 : 0
  kAddi,    ///< rd <- rs1 + imm
  kCmovnz,  ///< if rs1 != 0 then rd <- rs2
  kLd,      ///< rd <- mem[rs1 + imm]
  kSt,      ///< mem[rs1 + imm] <- rs2
  kBeq,     ///< if rs1 == rs2 goto imm (absolute instruction index)
  kBne,     ///< if rs1 != rs2 goto imm
  kJmp,     ///< goto imm
  kIret,    ///< return from interrupt handler
};

/// One machine instruction. `imm` doubles as branch target (absolute
/// instruction index) for control flow.
struct Instr {
  Opcode op = Opcode::kNop;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int64_t imm = 0;
};

/// Mnemonic of an opcode ("add", "ld", ...).
const char* opcode_name(Opcode op);

/// Disassembles one instruction.
std::string disassemble(const Instr& instr);

/// Disassembles a whole program with instruction indices.
std::string disassemble(const std::vector<Instr>& program);

/// Encoded size in bytes of one instruction (fixed 4-byte encoding with a
/// 12-bit immediate; kLi with a wider immediate costs extra words, which
/// models a constant-pool load).
std::size_t encoded_size(const Instr& instr);

/// Total encoded size of a program (the "code size" partitioning metric).
std::size_t encoded_size(const std::vector<Instr>& program);

}  // namespace mhs::sw
