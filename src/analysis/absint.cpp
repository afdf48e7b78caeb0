#include "analysis/absint.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "analysis/lint.h"
#include "analysis/verify.h"

namespace mhs::analysis {

namespace {

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

std::uint64_t u(std::int64_t v) { return static_cast<std::uint64_t>(v); }

// ---- Interval arithmetic --------------------------------------------------
//
// add/sub/mul/shl are computed exactly in __int128 over the corners of
// the operand box (each is monotone in every variable separately, so the
// box extrema sit at corners). When the exact extrema fit i64 the
// interval is exact and no execution can wrap; otherwise the result is
// top and the "may wrap" fact is recorded (apply_op wraps mod 2^64, and
// a wrapped value can land anywhere).

using int128 = __int128;

Interval from_exact(int128 lo, int128 hi, bool* may_overflow) {
  if (lo < int128{kI64Min} || hi > int128{kI64Max}) {
    *may_overflow = true;
    return Interval::top();
  }
  return {static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)};
}

/// Division interval. The divisor box is split at zero (d == 0 traps, so
/// it contributes no value); over each one-sign sub-box x/d is monotone
/// in each variable, so corners suffice. The single non-monotone point,
/// INT64_MIN / -1, wraps — when it is inside the box the neighbouring
/// quotients reach both i64 extremes, so the result degrades to top.
Interval div_interval(Interval a, Interval d, bool* may_overflow) {
  if (a.contains(kI64Min) && d.contains(-1)) {
    *may_overflow = true;
    return Interval::top();
  }
  bool any = false;
  std::int64_t lo = kI64Max, hi = kI64Min;
  const auto consider = [&](std::int64_t v) {
    any = true;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  };
  if (d.lo <= -1) {
    const std::int64_t d_hi = std::min<std::int64_t>(d.hi, -1);
    for (const std::int64_t x : {a.lo, a.hi}) {
      for (const std::int64_t dd : {d.lo, d_hi}) consider(ir::wrap_div(x, dd));
    }
  }
  if (d.hi >= 1) {
    const std::int64_t d_lo = std::max<std::int64_t>(d.lo, 1);
    for (const std::int64_t x : {a.lo, a.hi}) {
      for (const std::int64_t dd : {d_lo, d.hi}) consider(ir::wrap_div(x, dd));
    }
  }
  if (!any) return Interval::top();  // divisor pinned to 0: always traps
  return {lo, hi};
}

// ---- Known-bits arithmetic ------------------------------------------------
//
// All of these stay sound under apply_op's mod-2^64 wraparound: bitwise
// ops are bitwise, and add/sub/mul/shl wraparound only discards carries
// out of bit 63, which no mask below ever depends on.

KnownBits kb_not(KnownBits a) { return {a.ones, a.zeros}; }

KnownBits kb_and(KnownBits a, KnownBits b) {
  return {a.zeros | b.zeros, a.ones & b.ones};
}

KnownBits kb_or(KnownBits a, KnownBits b) {
  return {a.zeros & b.zeros, a.ones | b.ones};
}

KnownBits kb_xor(KnownBits a, KnownBits b) {
  return {(a.zeros & b.zeros) | (a.ones & b.ones),
          (a.ones & b.zeros) | (a.zeros & b.ones)};
}

/// Join (least upper bound): keep only the facts both sides prove —
/// sound for any value that is one of the two (min/max/select arms).
KnownBits kb_join(KnownBits a, KnownBits b) {
  return {a.zeros & b.zeros, a.ones & b.ones};
}

/// Three-valued bit of `a` at position i: 0, 1, or 2 (unknown).
int bit3(KnownBits a, int i) {
  if ((a.zeros >> i) & 1) return 0;
  if ((a.ones >> i) & 1) return 1;
  return 2;
}

/// Ripple-carry addition over three-valued bits; `carry` in {0,1,2}.
/// A sum bit is known only when both operand bits and the incoming carry
/// are known; the carry stays known as long as a majority forces it.
KnownBits kb_add(KnownBits a, KnownBits b, int carry) {
  KnownBits r;
  int c = carry;
  for (int i = 0; i < 64; ++i) {
    const int ab = bit3(a, i);
    const int bb = bit3(b, i);
    if (ab != 2 && bb != 2 && c != 2) {
      const int sum = ab + bb + c;
      if (sum & 1) {
        r.ones |= std::uint64_t{1} << i;
      } else {
        r.zeros |= std::uint64_t{1} << i;
      }
      c = sum >= 2 ? 1 : 0;
    } else {
      const int known_ones = (ab == 1) + (bb == 1) + (c == 1);
      const int known_zeros = (ab == 0) + (bb == 0) + (c == 0);
      c = known_ones >= 2 ? 1 : (known_zeros >= 2 ? 0 : 2);
    }
  }
  return r;
}

/// a - b == a + ~b + 1 in two's complement.
KnownBits kb_sub(KnownBits a, KnownBits b) { return kb_add(a, kb_not(b), 1); }

KnownBits kb_neg(KnownBits a) {
  return kb_add(KnownBits::constant(0), kb_not(a), 1);
}

/// Number of consecutive low bits proven zero (64 when the value is
/// proven to be exactly 0).
int known_trailing_zeros(KnownBits a) {
  int n = 0;
  while (n < 64 && ((a.zeros >> n) & 1)) ++n;
  return n;
}

/// tz(x*y) >= tz(x) + tz(y), and wraparound preserves low bits — so the
/// low known-zero runs of the factors add up in the product.
KnownBits kb_mul(KnownBits a, KnownBits b) {
  const int tz = known_trailing_zeros(a) + known_trailing_zeros(b);
  if (tz >= 64) return KnownBits::constant(0);
  return {(std::uint64_t{1} << tz) - 1, 0};
}

/// Shift-by-proven-constant mask transfers. kb_shr shifts the masks
/// arithmetically, which replicates exactly what is known about the sign
/// bit into the vacated positions.
KnownBits kb_shl(KnownBits a, int s) {
  return {(a.zeros << s) | ((std::uint64_t{1} << s) - 1), a.ones << s};
}

KnownBits kb_shr(KnownBits a, int s) {
  return {u(static_cast<std::int64_t>(a.zeros) >> s),
          u(static_cast<std::int64_t>(a.ones) >> s)};
}

// ---- Domain conversions & refinement --------------------------------------

/// The bits every value in [lo, hi] shares: the common leading bits of
/// lo and hi above their highest differing bit. Sound for mixed-sign
/// intervals because the sign bit differs, leaving nothing "above" it.
KnownBits bits_from_interval(Interval iv) {
  if (iv.lo == iv.hi) return KnownBits::constant(iv.lo);
  const std::uint64_t diff = u(iv.lo) ^ u(iv.hi);
  const int msb = 63 - std::countl_zero(diff);  // diff != 0 here
  const std::uint64_t common =
      msb == 63 ? 0 : ~((std::uint64_t{1} << (msb + 1)) - 1);
  return {~u(iv.lo) & common, u(iv.lo) & common};
}

/// Tightest signed interval containing every value matching the masks:
/// unknown bits minimize by setting only the sign bit, maximize by
/// setting everything but it.
Interval interval_from_bits(KnownBits kb) {
  const std::uint64_t unknown = ~(kb.zeros | kb.ones);
  return {static_cast<std::int64_t>(kb.ones | (unknown & kSignBit)),
          static_cast<std::int64_t>(kb.ones | (unknown & ~kSignBit))};
}

/// One mutual-refinement pass: each half of the product domain sharpens
/// the other. Skips any refinement that would produce a contradiction
/// (possible downstream of a proven trap, where no concrete value
/// exists) — staying at the wider, still-sound approximation.
AbsValue refined(AbsValue v) {
  const KnownBits from_iv = bits_from_interval(v.range);
  const KnownBits merged{v.bits.zeros | from_iv.zeros,
                         v.bits.ones | from_iv.ones};
  if ((merged.zeros & merged.ones) == 0) v.bits = merged;
  const Interval from_kb = interval_from_bits(v.bits);
  const std::int64_t lo = std::max(v.range.lo, from_kb.lo);
  const std::int64_t hi = std::min(v.range.hi, from_kb.hi);
  if (lo <= hi) v.range = {lo, hi};
  return v;
}

/// Clamps a shift-amount interval to the non-trapping [0,63] window.
/// Returns false when the two are disjoint (every execution traps).
bool legal_shift_range(Interval amount, std::int64_t* s_lo,
                       std::int64_t* s_hi) {
  *s_lo = std::max<std::int64_t>(amount.lo, 0);
  *s_hi = std::min<std::int64_t>(amount.hi, 63);
  return *s_lo <= *s_hi;
}

DiagLocation op_loc(std::size_t id) {
  DiagLocation loc;
  loc.kind = "op";
  loc.id = static_cast<std::int64_t>(id);
  return loc;
}

}  // namespace

std::size_t needed_bits(Interval iv) {
  for (std::size_t w = 1; w < 64; ++w) {
    const std::int64_t w_lo = -(std::int64_t{1} << (w - 1));
    const std::int64_t w_hi = (std::int64_t{1} << (w - 1)) - 1;
    if (iv.lo >= w_lo && iv.hi <= w_hi) return w;
  }
  return 64;
}

bool proves_divide_trap(Interval divisor) {
  return divisor.lo == 0 && divisor.hi == 0;
}

bool proves_shift_trap(Interval amount) {
  return amount.hi < 0 || amount.lo > 63;
}

std::vector<ir::ValueRange> AbsintResult::interval_facts() const {
  std::vector<ir::ValueRange> facts;
  facts.reserve(values.size());
  for (const AbsValue& v : values) {
    facts.push_back({v.range.lo, v.range.hi});
  }
  return facts;
}

AbsintResult absint_cdfg(const ir::Cdfg& cdfg) {
  AbsintResult result;
  const std::size_t n = cdfg.num_ops();
  result.values.resize(n);
  result.width.assign(n, 64);

  for (const ir::OpId id : cdfg.op_ids()) {
    const ir::Op& op = cdfg.op(id);
    const auto arg = [&](std::size_t k) -> const AbsValue& {
      return result.values[op.operands[k].index()];
    };
    AbsValue v;  // top
    switch (op.kind) {
      case ir::OpKind::kConst:
        v = AbsValue::constant(op.value);
        break;
      case ir::OpKind::kInput:
        if (op.range && op.range->lo <= op.range->hi) {
          v.range = {op.range->lo, op.range->hi};
        }
        break;
      case ir::OpKind::kOutput:
        v = arg(0);
        v.may_overflow = false;  // the port just forwards the value
        break;
      case ir::OpKind::kAdd: {
        const AbsValue &a = arg(0), &b = arg(1);
        v.range = from_exact(int128{a.range.lo} + b.range.lo,
                             int128{a.range.hi} + b.range.hi,
                             &v.may_overflow);
        v.bits = kb_add(a.bits, b.bits, 0);
        break;
      }
      case ir::OpKind::kSub: {
        const AbsValue &a = arg(0), &b = arg(1);
        v.range = from_exact(int128{a.range.lo} - b.range.hi,
                             int128{a.range.hi} - b.range.lo,
                             &v.may_overflow);
        v.bits = kb_sub(a.bits, b.bits);
        break;
      }
      case ir::OpKind::kMul: {
        const AbsValue &a = arg(0), &b = arg(1);
        int128 lo = int128{a.range.lo} * b.range.lo;
        int128 hi = lo;
        for (const std::int64_t x : {a.range.lo, a.range.hi}) {
          for (const std::int64_t y : {b.range.lo, b.range.hi}) {
            const int128 p = int128{x} * y;
            lo = std::min(lo, p);
            hi = std::max(hi, p);
          }
        }
        v.range = from_exact(lo, hi, &v.may_overflow);
        v.bits = kb_mul(a.bits, b.bits);
        break;
      }
      case ir::OpKind::kDiv: {
        const AbsValue &a = arg(0), &b = arg(1);
        v.range = div_interval(a.range, b.range, &v.may_overflow);
        break;
      }
      case ir::OpKind::kShl: {
        const AbsValue &a = arg(0), &b = arg(1);
        std::int64_t s_lo = 0, s_hi = 0;
        if (legal_shift_range(b.range, &s_lo, &s_hi)) {
          int128 lo = int128{a.range.lo} << s_lo;
          int128 hi = lo;
          for (const std::int64_t x : {a.range.lo, a.range.hi}) {
            for (const std::int64_t s : {s_lo, s_hi}) {
              const int128 p = int128{x} << s;
              lo = std::min(lo, p);
              hi = std::max(hi, p);
            }
          }
          v.range = from_exact(lo, hi, &v.may_overflow);
          if (s_lo == s_hi && b.range.lo == b.range.hi) {
            v.bits = kb_shl(a.bits, static_cast<int>(s_lo));
          }
        }
        break;
      }
      case ir::OpKind::kShr: {
        const AbsValue &a = arg(0), &b = arg(1);
        std::int64_t s_lo = 0, s_hi = 0;
        if (legal_shift_range(b.range, &s_lo, &s_hi)) {
          std::int64_t lo = a.range.lo >> s_lo;
          std::int64_t hi = lo;
          for (const std::int64_t x : {a.range.lo, a.range.hi}) {
            for (const std::int64_t s : {s_lo, s_hi}) {
              const std::int64_t p = x >> s;
              lo = std::min(lo, p);
              hi = std::max(hi, p);
            }
          }
          v.range = {lo, hi};
          if (s_lo == s_hi && b.range.lo == b.range.hi) {
            v.bits = kb_shr(a.bits, static_cast<int>(s_lo));
          }
        }
        break;
      }
      case ir::OpKind::kAnd:
        v.bits = kb_and(arg(0).bits, arg(1).bits);
        break;
      case ir::OpKind::kOr:
        v.bits = kb_or(arg(0).bits, arg(1).bits);
        break;
      case ir::OpKind::kXor:
        v.bits = kb_xor(arg(0).bits, arg(1).bits);
        break;
      case ir::OpKind::kNeg: {
        const AbsValue& a = arg(0);
        if (a.range.lo == kI64Min) {
          v.may_overflow = true;  // neg(INT64_MIN) wraps to INT64_MIN
          if (a.range.hi == kI64Min) v.range = Interval::constant(kI64Min);
        } else {
          v.range = {-a.range.hi, -a.range.lo};
        }
        v.bits = kb_neg(a.bits);
        break;
      }
      case ir::OpKind::kAbs: {
        const AbsValue& a = arg(0);
        if (a.range.lo >= 0) {
          v = a;
          v.may_overflow = false;
        } else if (a.range.hi < 0) {
          if (a.range.lo == kI64Min) {
            v.may_overflow = true;  // abs(INT64_MIN) wraps to INT64_MIN
            if (a.range.hi == kI64Min) v.range = Interval::constant(kI64Min);
          } else {
            v.range = {-a.range.hi, -a.range.lo};
          }
          v.bits = kb_neg(a.bits);
        } else {
          if (a.range.lo == kI64Min) {
            v.may_overflow = true;
          } else {
            v.range = {0, std::max(a.range.hi, -a.range.lo)};
          }
          v.bits = kb_join(a.bits, kb_neg(a.bits));
        }
        break;
      }
      case ir::OpKind::kMin: {
        const AbsValue &a = arg(0), &b = arg(1);
        v.range = {std::min(a.range.lo, b.range.lo),
                   std::min(a.range.hi, b.range.hi)};
        v.bits = kb_join(a.bits, b.bits);
        break;
      }
      case ir::OpKind::kMax: {
        const AbsValue &a = arg(0), &b = arg(1);
        v.range = {std::max(a.range.lo, b.range.lo),
                   std::max(a.range.hi, b.range.hi)};
        v.bits = kb_join(a.bits, b.bits);
        break;
      }
      case ir::OpKind::kCmpLt: {
        const AbsValue &a = arg(0), &b = arg(1);
        if (a.range.hi < b.range.lo) {
          v = AbsValue::constant(1);
        } else if (a.range.lo >= b.range.hi) {
          v = AbsValue::constant(0);
        } else {
          v.range = {0, 1};
        }
        break;
      }
      case ir::OpKind::kCmpEq: {
        const AbsValue &a = arg(0), &b = arg(1);
        const bool bit_conflict = (a.bits.ones & b.bits.zeros) != 0 ||
                                  (b.bits.ones & a.bits.zeros) != 0;
        if (a.range.is_constant() && b.range.is_constant() &&
            a.range.lo == b.range.lo) {
          v = AbsValue::constant(1);
        } else if (a.range.hi < b.range.lo || b.range.hi < a.range.lo ||
                   bit_conflict) {
          v = AbsValue::constant(0);
        } else {
          v.range = {0, 1};
        }
        break;
      }
      case ir::OpKind::kSelect: {
        const AbsValue &cond = arg(0), &a = arg(1), &b = arg(2);
        if (cond.range.excludes_zero()) {
          v = a;
        } else if (cond.range == Interval::constant(0)) {
          v = b;
        } else {
          v.range = {std::min(a.range.lo, b.range.lo),
                     std::max(a.range.hi, b.range.hi)};
          v.bits = kb_join(a.bits, b.bits);
        }
        v.may_overflow = false;  // a mux never wraps by itself
        break;
      }
    }
    result.values[id.index()] = refined(v);
  }

  // Proven-safe widths: an FU computing op i at width w must represent
  // its result and every operand it reads, so width[] is the FU view
  // (max of result and operands). Schedule/binding consume it directly;
  // binding also rolls the same per-op width into whichever register
  // stores the value — conservative for registers (a stored value needs
  // only its result bits), but it keeps one width per op everywhere.
  for (const ir::OpId id : cdfg.op_ids()) {
    const ir::Op& op = cdfg.op(id);
    std::size_t w = needed_bits(result.values[id.index()].range);
    if (op.kind == ir::OpKind::kOutput) {
      w = needed_bits(result.values[op.operands[0].index()].range);
    } else if (ir::op_is_compute(op.kind)) {
      for (const ir::OpId operand : op.operands) {
        w = std::max(w, needed_bits(result.values[operand.index()].range));
      }
    }
    result.width[id.index()] = w;
  }
  return result;
}

Diagnostics lint_ranges(const ir::Cdfg& cdfg, const AbsintResult& result) {
  Diagnostics diags;
  const auto operand_kind = [&](const ir::Op& op, std::size_t k) {
    return cdfg.op(op.operands[k]).kind;
  };
  for (const ir::OpId id : cdfg.op_ids()) {
    const ir::Op& op = cdfg.op(id);
    const std::size_t i = id.index();
    const AbsValue& v = result.values[i];

    // CDFG200/201: proven traps that need dataflow reasoning. Constant
    // operands are the structural verifier's CDFG009/CDFG008 and are
    // skipped here so one defect never carries two codes.
    if (op.kind == ir::OpKind::kDiv &&
        operand_kind(op, 1) != ir::OpKind::kConst) {
      const Interval d = result.values[op.operands[1].index()].range;
      if (proves_divide_trap(d)) {
        diags.add("CDFG200", Severity::kError, op_loc(i),
                  "divisor is provably always zero; every evaluation traps");
      }
    }
    if ((op.kind == ir::OpKind::kShl || op.kind == ir::OpKind::kShr) &&
        operand_kind(op, 1) != ir::OpKind::kConst) {
      const Interval s = result.values[op.operands[1].index()].range;
      if (proves_shift_trap(s)) {
        std::ostringstream os;
        os << "shift amount is provably in [" << s.lo << "," << s.hi
           << "], outside [0,63]; every evaluation traps";
        diags.add("CDFG201", Severity::kError, op_loc(i), os.str());
      }
    }

    // CDFG202: arithmetic that may exceed i64 and wrap. Informational —
    // wraparound is defined behaviour in this IR, but usually a sign
    // that an input range annotation is missing or too wide.
    if (v.may_overflow) {
      std::ostringstream os;
      os << ir::op_name(op.kind)
         << " result may exceed the signed 64-bit range and wrap";
      diags.add("CDFG202", Severity::kNote, op_loc(i), os.str());
    }

    // CDFG203: an output pinned to one value by the analysis (a literal
    // constant operand is presumably intentional and stays quiet).
    if (op.kind == ir::OpKind::kOutput &&
        operand_kind(op, 0) != ir::OpKind::kConst) {
      const AbsValue& src = result.values[op.operands[0].index()];
      if (src.range.is_constant()) {
        std::ostringstream os;
        os << "output '" << op.name << "' is provably the constant "
           << src.range.lo;
        DiagLocation loc = op_loc(i);
        loc.name = op.name;
        diags.add("CDFG203", Severity::kWarn, loc, os.str());
      }
    }

    // CDFG204: a select arm that can never be taken.
    if (op.kind == ir::OpKind::kSelect) {
      const Interval cond = result.values[op.operands[0].index()].range;
      if (cond.excludes_zero()) {
        std::ostringstream os;
        os << "condition is provably never zero; the false arm (operand "
           << op.operands[2].index() << ") is dead";
        diags.add("CDFG204", Severity::kWarn, op_loc(i), os.str());
      } else if (cond == Interval::constant(0)) {
        std::ostringstream os;
        os << "condition is provably always zero; the true arm (operand "
           << op.operands[1].index() << ") is dead";
        diags.add("CDFG204", Severity::kWarn, op_loc(i), os.str());
      }
    }
  }
  return diags;
}

Diagnostics lint_ranges(const ir::Cdfg& cdfg) {
  return lint_ranges(cdfg, absint_cdfg(cdfg));
}

Diagnostics analyze_cdfg(const ir::Cdfg& cdfg, bool with_ranges) {
  // The dataflow lints only warn, so an error here is structural.
  Diagnostics diags = analyze_cdfg(cdfg);
  if (with_ranges && !diags.has_errors()) diags.merge(lint_ranges(cdfg));
  return diags;
}

}  // namespace mhs::analysis
