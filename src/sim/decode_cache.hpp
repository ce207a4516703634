// Pre-decoded micro-op records and the per-program decode cache.
//
// The cycle-accurate pipeline used to re-run the full decoder — opcode
// classification, source/destination extraction, target arithmetic — for
// every fetched instruction on every trip around a loop.  The decode cache
// does that work exactly once per PC: the first fetch of an address fills a
// specialized DecodedOp record (direct per-class dispatch tag, operands and
// control-flow targets pre-resolved), and every later fetch of the same
// address is an indexed array read.  Records are keyed by fetch address and
// invalidated wholesale when a different program is bound, so a program
// reload can never serve stale micro-ops.
//
// Correctness contract: a DecodedOp is a pure function of (instruction word,
// decode-time PC), and a cache fill is decodeOne() of the word at that PC —
// the same function the pipeline uses for the records it decodes outside the
// cache — so cached and uncached records share one semantics implementation,
// stepDecoded().
#pragma once

#include <cstdint>
#include <vector>

#include "asm/program.hpp"
#include "isa/isa.hpp"
#include "util/ensure.hpp"

namespace asbr {

/// Direct-dispatch execution class of a decoded instruction.  stepDecoded()
/// switches on this tag instead of re-classifying the opcode.
enum class ExecClass : std::uint8_t {
    kAluReg,      ///< R-type ALU: rd <- rs OP rt
    kAluImm,      ///< I-type ALU: rd <- rs OP imm
    kLoad,        ///< rd <- mem[rs + imm]
    kStore,       ///< mem[rs + imm] <- rt
    kCondBranch,  ///< zero-comparison branch on rs
    kJump,        ///< j: unconditional direct jump
    kJumpLink,    ///< jal: direct jump + link into ra
    kJumpReg,     ///< jr/jalr: indirect jump (jalr links into rd)
    kSyscall,     ///< sys
    kNop,
};

/// One pre-decoded micro-op.  Everything the hot path needs — dispatch tag,
/// source/destination registers, absolute control-flow targets — is resolved
/// at decode time; steady-state execution never consults the decoder again.
struct DecodedOp {
    Instruction ins{};                    ///< original instruction word
    ExecClass cls = ExecClass::kNop;
    Cond cond = Cond::kEqz;               ///< branch condition (kCondBranch)
    std::uint32_t pc = 0;                 ///< address the record decodes at
    std::uint32_t fallthrough = 0;        ///< pc + 4
    std::uint32_t target = 0;             ///< absolute taken/jump target
    /// Static IF-stage successor: the fetch redirect for non-branch control
    /// (j/jal predecode to their target), pc+4 otherwise.  Conditional
    /// branches consult the predictor instead.
    std::uint32_t fetchNext = 0;
    SrcRegs srcs{};                       ///< pre-resolved source registers
    std::uint8_t dest = reg::zero;        ///< architected destination
    bool writesDest = false;              ///< dest exists and is not r0
    bool load = false;
    bool store = false;
    bool condBranch = false;
};

/// Decode one instruction as located at `pc`.  Pure; shared by the cache
/// fill path and by callers that must decode off-program-text words (the
/// pipeline decodes customizer-injected fold replacements this way, since a
/// BTI/BFI replacement is not guaranteed to match the program image).
[[nodiscard]] DecodedOp decodeOne(const Instruction& ins, std::uint32_t pc);

/// Lazily-filled decode cache over one program's text segment, keyed by
/// fetch address.  One slot per instruction word; a fill happens at most
/// once per PC until the cache is rebound.
class DecodeCache {
public:
    DecodeCache() = default;
    explicit DecodeCache(const Program& program) { bind(program); }

    /// Hit/fill statistics (published as sim.decode_cache_* counters).
    struct Stats {
        std::uint64_t lookups = 0;
        std::uint64_t fills = 0;
        [[nodiscard]] std::uint64_t hits() const { return lookups - fills; }
    };

    /// Bind to a program: size one slot per text word and invalidate all
    /// records.  Call again on program reload — records decoded from the
    /// previous image are discarded, never served.
    void bind(const Program& program);

    /// The record for a text-segment PC, filling the slot on first use.
    /// Inline: this is the per-fetch hot path of both simulators and every
    /// functional walk; the steady-state trip is one bounds check against
    /// the cache's own copy of the text extent (an unbound cache has none)
    /// and an indexed read.
    const DecodedOp& lookup(std::uint32_t pc) {
        const std::uint32_t offset = pc - textBase_;
        ASBR_ENSURE(offset < textBytes_ && offset % kInstrBytes == 0,
                    "decode cache lookup outside the bound program's text");
        const std::size_t index = offset / kInstrBytes;
        ++stats_.lookups;
        if (filled_[index] == 0) fill(index, pc);
        return slots_[index];
    }

    [[nodiscard]] const Stats& stats() const { return stats_; }
    [[nodiscard]] bool bound() const { return program_ != nullptr; }

private:
    void fill(std::size_t index, std::uint32_t pc);  ///< first-use decode

    const Program* program_ = nullptr;
    std::uint32_t textBase_ = 0;
    std::uint32_t textBytes_ = 0;  ///< 0 until bound
    std::vector<DecodedOp> slots_;
    std::vector<std::uint8_t> filled_;
    Stats stats_;
};

}  // namespace asbr
