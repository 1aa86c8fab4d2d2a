#include "src/arm/psr.h"

namespace komodo::arm {

namespace {

// The seven modelled modes in Mode's order: architectural 5-bit encoding and
// the short name used in traces and diffs.
struct ModeInfo {
  word encoding;
  const char* name;
};
constexpr ModeInfo kModes[kNumModes] = {
    {0b10000, "usr"}, {0b10001, "fiq"}, {0b10010, "irq"}, {0b10011, "svc"},
    {0b10111, "abt"}, {0b11011, "und"}, {0b10110, "mon"},
};

}  // namespace

word ModeEncoding(Mode m) { return kModes[static_cast<size_t>(m)].encoding; }

bool DecodeMode(word bits, Mode* out) {
  for (int i = 0; i < kNumModes; ++i) {
    if (kModes[i].encoding == (bits & 0x1f)) {
      *out = static_cast<Mode>(i);
      return true;
    }
  }
  return false;
}

const char* ModeName(Mode m) { return kModes[static_cast<size_t>(m)].name; }

word Psr::Encode() const {
  word bits = ModeEncoding(mode);
  if (n) bits |= 1u << 31;
  if (z) bits |= 1u << 30;
  if (c) bits |= 1u << 29;
  if (v) bits |= 1u << 28;
  if (irq_masked) bits |= 1u << 7;
  if (fiq_masked) bits |= 1u << 6;
  return bits;
}

Psr Psr::Decode(word bits) {
  Psr p;
  p.n = (bits >> 31) & 1;
  p.z = (bits >> 30) & 1;
  p.c = (bits >> 29) & 1;
  p.v = (bits >> 28) & 1;
  p.irq_masked = (bits >> 7) & 1;
  p.fiq_masked = (bits >> 6) & 1;
  Mode m;
  if (DecodeMode(bits, &m)) {
    p.mode = m;
  }
  return p;
}

std::string Psr::ToString() const {
  std::string s;
  s += n ? 'N' : '-';
  s += z ? 'Z' : '-';
  s += c ? 'C' : '-';
  s += v ? 'V' : '-';
  s += irq_masked ? 'I' : '-';
  s += fiq_masked ? 'F' : '-';
  s += ' ';
  s += ModeName(mode);
  return s;
}

bool CondPasses(Cond cond, const Psr& psr) {
  switch (cond) {
    case Cond::kEq:
      return psr.z;
    case Cond::kNe:
      return !psr.z;
    case Cond::kCs:
      return psr.c;
    case Cond::kCc:
      return !psr.c;
    case Cond::kMi:
      return psr.n;
    case Cond::kPl:
      return !psr.n;
    case Cond::kVs:
      return psr.v;
    case Cond::kVc:
      return !psr.v;
    case Cond::kHi:
      return psr.c && !psr.z;
    case Cond::kLs:
      return !psr.c || psr.z;
    case Cond::kGe:
      return psr.n == psr.v;
    case Cond::kLt:
      return psr.n != psr.v;
    case Cond::kGt:
      return !psr.z && psr.n == psr.v;
    case Cond::kLe:
      return psr.z || psr.n != psr.v;
    case Cond::kAl:
      return true;
  }
  return true;
}

}  // namespace komodo::arm
