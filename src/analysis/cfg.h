// Control-flow-graph recovery over the modelled A32 subset.
//
// The unit of analysis is a "program image": the vector of instruction words
// an enclave ships (src/enclave/programs.cc et al.), linked at a known base
// VA. Every word is decoded with arm::Decode; basic blocks are split at branch
// targets and after terminators. Direct branches (B/BL) resolve statically;
// indirect PC writes (BX, MOV pc, LDR pc, LDM {..pc}) terminate their block
// with no successors and are surfaced to the caller — following them would
// require the dataflow pass, and komodo-lint reports them instead (see
// DESIGN.md § Analysis, soundness limits).
#ifndef SRC_ANALYSIS_CFG_H_
#define SRC_ANALYSIS_CFG_H_

#include <optional>
#include <vector>

#include "src/arm/isa.h"
#include "src/arm/types.h"

namespace komodo::analysis {

using arm::vaddr;
using arm::word;

// Why a basic block stops.
enum class BlockExit : uint8_t {
  kFallthrough,     // next block starts here (leader boundary)
  kBranch,          // direct B/BL: target edge, plus fallthrough if conditional
  kIndirect,        // BX / PC write with statically-unknown target
  kTrap,            // SVC: monitor may return to the next instruction
  kUndefined,       // undecodable word -> Undefined exception, no successors
  kExceptionReturn, // MOVS pc, lr idiom (privileged; dead end for enclave code)
  kEndOfProgram,    // execution would run off the program text
};

struct CfgInsn {
  vaddr addr = 0;
  word bits = 0;
  std::optional<arm::Instruction> decoded;  // nullopt = undecodable
};

struct BasicBlock {
  size_t first = 0;  // index range [first, last] into Cfg::insns
  size_t last = 0;
  BlockExit exit = BlockExit::kFallthrough;
  // Successor blocks, split by how control reaches them: `taken` is the
  // resolved target of a direct branch; `fall` is the fallthrough (including
  // the monitor's return point after an SVC). The dataflow pass needs the
  // distinction to propagate the branch-not-taken state only along `fall`.
  std::optional<size_t> taken;
  std::optional<size_t> fall;
  std::vector<size_t> successors;  // taken + fall, for generic traversals
};

struct Cfg {
  vaddr base = 0;
  std::vector<CfgInsn> insns;
  std::vector<BasicBlock> blocks;  // blocks[0] is the entry block

  // Maps a VA to the instruction index, or nullopt if outside the program.
  std::optional<size_t> IndexOf(vaddr addr) const;
  // Maps an instruction index to the id of the block containing it.
  size_t BlockOf(size_t insn_index) const;
};

// Builds the CFG for `program` linked at `base`. Never fails: undecodable
// words and out-of-range branch targets become block exits (the taint pass
// and the privilege lint turn them into findings).
Cfg BuildCfg(const std::vector<word>& program, vaddr base);

}  // namespace komodo::analysis

#endif  // SRC_ANALYSIS_CFG_H_
