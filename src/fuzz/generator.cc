#include "src/fuzz/generator.h"

#include "src/arm/assembler.h"
#include "src/arm/types.h"
#include "src/core/kom_defs.h"
#include "src/enclave/programs.h"
#include "src/os/adversary.h"
#include "src/os/os.h"

namespace komodo::fuzz {

word RandomEnclaveInsn(crypto::HashDrbg& drbg) {
  using namespace arm;
  Instruction insn;
  insn.cond = static_cast<Cond>(drbg.Below(15));
  switch (drbg.Below(8)) {
    case 0:
    case 1: {  // data-processing, immediate
      static constexpr Op kOps[] = {Op::kAnd, Op::kEor, Op::kSub, Op::kAdd, Op::kOrr,
                                    Op::kMov, Op::kBic, Op::kMvn, Op::kCmp, Op::kTst};
      insn.op = kOps[drbg.Below(10)];
      insn.set_flags = drbg.Below(2) != 0;
      insn.rd = static_cast<Reg>(drbg.Below(13));  // keep PC out of rd
      insn.rn = static_cast<Reg>(drbg.Below(13));
      insn.op2 = Operand2::Imm(static_cast<uint8_t>(drbg.Below(256)),
                               static_cast<uint8_t>(drbg.Below(16)));
      break;
    }
    case 2: {  // data-processing, shifted register
      insn.op = Op::kAdd;
      insn.rd = static_cast<Reg>(drbg.Below(13));
      insn.rn = static_cast<Reg>(drbg.Below(13));
      insn.op2 = Operand2::Rm(static_cast<Reg>(drbg.Below(13)),
                              static_cast<ShiftKind>(drbg.Below(4)),
                              static_cast<uint8_t>(drbg.Below(32)));
      break;
    }
    case 3: {  // multiply
      insn.op = Op::kMul;
      insn.rd = static_cast<Reg>(drbg.Below(13));
      insn.rm = static_cast<Reg>(drbg.Below(13));
      insn.rn = static_cast<Reg>(drbg.Below(13));
      break;
    }
    case 4: {  // load/store — mostly wild addresses
      insn.op = drbg.Below(2) ? Op::kLdr : Op::kStr;
      insn.rd = static_cast<Reg>(drbg.Below(13));
      insn.rn = static_cast<Reg>(drbg.Below(13));
      insn.mem_imm12 = static_cast<uint16_t>(drbg.Below(0x1000));
      insn.mem_add = drbg.Below(2) != 0;
      break;
    }
    case 5: {  // block transfer
      insn.op = drbg.Below(2) ? Op::kLdm : Op::kStm;
      insn.rn = static_cast<Reg>(drbg.Below(13));
      insn.reg_list = static_cast<uint16_t>(drbg.Below(0x2000) | 1);  // nonempty, no PC
      insn.block_pre = drbg.Below(2) != 0;
      insn.mem_add = drbg.Below(2) != 0;
      insn.block_wback = drbg.Below(2) != 0;
      break;
    }
    case 6: {  // branch (short offsets so it stays near the code page)
      insn.op = Op::kB;
      insn.branch_offset = (static_cast<int32_t>(drbg.Below(64)) - 32) * 4;
      break;
    }
    default: {  // SVC with a random call number and whatever is in the regs
      insn.op = Op::kSvc;
      insn.trap_imm = drbg.Below(4);
      break;
    }
  }
  return Encode(insn);
}

arm::Instruction RandomFlatInsn(crypto::HashDrbg& drbg) {
  using namespace arm;
  Instruction insn;
  insn.cond = static_cast<Cond>(drbg.Below(15));  // all conditions incl. kAl
  const uint32_t kind = drbg.Below(10);
  const Reg rd = static_cast<Reg>(drbg.Below(10));
  const Reg rn = static_cast<Reg>(drbg.Below(12));
  const Reg rm = static_cast<Reg>(drbg.Below(12));
  if (kind < 6) {  // data-processing
    insn.op = static_cast<Op>(drbg.Below(16));  // kAnd..kMvn
    insn.set_flags = drbg.Below(2) != 0;
    if (IsCompare(insn.op)) {
      insn.set_flags = true;
    }
    insn.rd = rd;
    insn.rn = rn;
    if (drbg.Below(2) != 0) {
      insn.op2 = Operand2::Imm(static_cast<uint8_t>(drbg.Below(256)),
                               static_cast<uint8_t>(drbg.Below(16)));
    } else {
      insn.op2 = Operand2::Rm(rm, static_cast<ShiftKind>(drbg.Below(4)),
                              static_cast<uint8_t>(drbg.Below(32)));
    }
  } else if (kind < 7) {  // multiply
    insn.op = Op::kMul;
    insn.rd = rd;
    insn.rm = static_cast<Reg>(drbg.Below(10));
    insn.rn = static_cast<Reg>(drbg.Below(10));  // Rs in the MUL encoding
    if (insn.rm == insn.rd) {  // Rd==Rm is UNPREDICTABLE; sidestep it
      insn.rm = static_cast<Reg>((insn.rm + 1) % 10);
    }
  } else {  // load/store word through the scratch base
    insn.op = drbg.Below(2) != 0 ? Op::kLdr : Op::kStr;
    insn.rd = rd;
    insn.rn = R10;
    insn.mem_imm12 = static_cast<uint16_t>(drbg.Below(64) * kWordSize);
    insn.mem_add = true;
  }
  return insn;
}

word RandomCodeWord(crypto::HashDrbg& drbg) {
  const uint32_t roll = drbg.Below(16);
  if (roll == 0) {
    return drbg.NextWord();  // fully random: usually undefined, sometimes wild
  }
  if (roll == 1) {
    // cond=0b1111: one past the 0b1110 "always" boundary — must decode as
    // undefined, never as an executed instruction.
    return 0xf000'0000u | (drbg.NextWord() & 0x0fff'ffffu);
  }
  return RandomEnclaveInsn(drbg);
}

namespace {

// Loads the secret into exactly the registers the SMC epilogue must scrub
// (r2, r3, r12 — §5.2), then spins until the step budget interrupts it.
std::vector<word> SpinScratchProgram() {
  arm::Assembler a(os::kEnclaveCodeVa);
  using namespace arm;
  a.MovImm(R4, os::kEnclaveDataVa);
  a.Ldr(R2, R4, 0);
  a.Mov(R3, R2);
  a.Mov(R12, R2);
  Assembler::Label loop = a.NewLabel();
  a.Bind(loop);
  a.Add(R8, R8, 1u);
  a.B(loop);
  return a.Finish();
}

// Loads the secret into r2, then data-aborts on an unmapped store: the fault
// return path must scrub scratch registers just like the exit path.
std::vector<word> FaultSecretProgram() {
  arm::Assembler a(os::kEnclaveCodeVa);
  using namespace arm;
  a.MovImm(R4, os::kEnclaveDataVa);
  a.Ldr(R2, R4, 0);
  a.MovImm(R6, 0x3f00'0000);  // unmapped
  a.Str(R2, R6, 0);           // data abort
  return a.Finish();
}

// The self-modifying loop of the interp-diff suite, relocated into an
// enclave: ADD R0,R0,#1 on the first pass, rewritten to ADD R0,R0,#2 for the
// remaining two, so r0 ends at 5 — a machine replaying a stale decode ends at
// 3. Exits with r0 as the return value.
std::vector<word> SelfModifyProgram() {
  using namespace arm;
  Instruction add2;
  add2.op = Op::kAdd;
  add2.rd = R0;
  add2.rn = R0;
  add2.op2 = Operand2::Imm(2);

  // Two-pass assembly: the rewritten instruction's address depends only on
  // the fixed prologue, so learn it with a placeholder first.
  vaddr target_addr = 0;
  std::vector<word> code;
  for (int pass = 0; pass < 2; ++pass) {
    Assembler a(os::kEnclaveCodeVa);
    a.MovImm(R0, 0);
    a.MovImm(R2, 0);             // iteration counter
    a.MovImm(R4, Encode(add2));  // replacement encoding
    Assembler::Label loop = a.NewLabel();
    a.Bind(loop);
    const vaddr here = a.CurrentAddr();
    a.Add(R0, R0, 1);  // the instruction that gets rewritten
    a.MovImm(R3, target_addr);
    a.Str(R4, R3, 0);  // overwrite the ADD above
    a.Add(R2, R2, 1);
    a.Cmp(R2, 3);
    a.B(loop, Cond::kNe);
    a.Mov(R1, R0);
    a.MovImm(R0, kSvcExit);
    a.Svc();
    code = a.Finish();
    target_addr = here;
  }
  return code;
}

}  // namespace

std::vector<word> VictimProgram(const std::string& name) {
  if (name == "internal-compute") {
    return enclave::SquareSecretProgram();
  }
  if (name == "spin-scratch") {
    return SpinScratchProgram();
  }
  if (name == "fault-secret") {
    return FaultSecretProgram();
  }
  if (name == "self-modify") {
    return SelfModifyProgram();
  }
  return {};
}

bool VictimWantsWritableCode(const std::string& name) { return name == "self-modify"; }

std::vector<std::string> OracleNames() {
  return {"refinement", "invariants", "noninterference", "interp"};
}

Trace GenerateTrace(const std::string& oracle, uint64_t seed, size_t nops) {
  // Mix the oracle name into the seed material so the four campaigns explore
  // different traces even from the same master seed.
  std::vector<uint8_t> material;
  for (int i = 0; i < 8; ++i) {
    material.push_back(static_cast<uint8_t>(seed >> (8 * i)));
  }
  material.insert(material.end(), oracle.begin(), oracle.end());
  crypto::HashDrbg drbg(material);

  Trace t;
  t.oracle = oracle;
  t.seed = seed;
  const bool paired = oracle == "noninterference";
  const bool interp = oracle == "interp";
  const bool with_svc = oracle == "refinement" || oracle == "invariants";
  t.pages = (paired || interp) ? 64 : 24;
  if (paired) {
    t.victim = kVictimNames[drbg.Below(3)];  // the secret-bearing victims
    t.secrets[0] = drbg.NextWord();
    t.secrets[1] = drbg.NextWord();
  } else if (interp && drbg.Below(2) == 0) {
    t.victim = "self-modify";
  }

  os::Adversary adv(t.pages, drbg.NextU64());
  for (size_t i = 0; i < nops; ++i) {
    TraceOp op;
    const uint32_t roll = drbg.Below(16);
    if (roll < 3) {
      // Stage code/data in the insecure pages MapSecure draws from, so
      // accidentally-built enclaves run fuzzed instruction streams.
      op.kind = OpKind::kPoke;
      op.a[0] = 32 + drbg.Below(16);
      op.a[1] = drbg.Below(arm::kWordsPerPage);
      op.a[2] = RandomCodeWord(drbg);
    } else if (!t.victim.empty() && roll < 6) {
      if (drbg.Below(4) == 0) {
        op.kind = OpKind::kResume;
      } else {
        op.kind = OpKind::kEnter;
        for (int j = 1; j <= 3; ++j) {
          op.a[j] = drbg.Below(2) != 0 ? drbg.Below(64) : drbg.NextWord();
        }
      }
    } else if (with_svc && roll < 6) {
      op.kind = OpKind::kSvc;
      static constexpr word kSvcs[] = {kSvcExit,   kSvcGetRandom,   kSvcAttest,
                                       kSvcVerify, kSvcInitL2Table, kSvcMapData,
                                       kSvcUnmapData, 99};
      op.a[0] = kSvcs[drbg.Below(8)];
      for (int j = 1; j <= 3; ++j) {
        switch (drbg.Below(4)) {
          case 0:
            op.a[j] = drbg.Below(16);  // page-number shaped
            break;
          case 1:
            op.a[j] = MakeMapping(drbg.Below(64) * arm::kPageSize, kMapR | kMapW);
            break;
          case 2:
            op.a[j] = drbg.Below(4096);  // small VA / index shaped
            break;
          default:
            op.a[j] = drbg.NextWord();
            break;
        }
      }
    } else {
      op.kind = OpKind::kSmc;
      if (drbg.Below(8) == 0) {
        // Raw Enter/Resume at an adversary-guessed page: exercises the guard
        // paths, and user execution itself when it lands on a real thread.
        op.a[0] = drbg.Below(2) != 0 ? kSmcEnter : kSmcResume;
        op.a[1] = drbg.Below(16);
        op.a[2] = drbg.Below(64);
        op.a[3] = drbg.Below(64);
      } else {
        os::AdvAction act = adv.NextAction();
        // Bias toward *runnable* enclaves: entrypoints and code mappings at
        // the conventional code VA make accidental Enter successes common.
        if (act.call == kSmcInitThread && drbg.Below(2) == 0) {
          act.args[2] = os::kEnclaveCodeVa;
        }
        if (act.call == kSmcMapSecure && drbg.Below(2) == 0) {
          act.args[2] = MakeMapping(os::kEnclaveCodeVa, kMapR | kMapW | kMapX);
        }
        op.a[0] = act.call;
        for (int j = 0; j < 4; ++j) {
          op.a[1 + j] = act.args[j];
        }
      }
    }
    t.ops.push_back(op);
  }
  return t;
}

}  // namespace komodo::fuzz
