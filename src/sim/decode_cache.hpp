// Pre-decoded micro-op records and the per-program decoded text.
//
// The cycle-accurate pipeline used to re-run the full decoder — opcode
// classification, source/destination extraction, target arithmetic — for
// every fetched instruction on every trip around a loop.  The decode cache
// does that work exactly once per text word: bind() decodes the whole text
// into specialized DecodedOp records (direct per-class dispatch tag,
// operands and control-flow targets pre-resolved), one per word in address
// order, and every fetch is an indexed array read.  The records never change
// after bind(); binding a different program replaces them wholesale, so a
// program reload can never serve stale micro-ops.  A functional walk steps
// from one record to the next by pointer while control falls through
// (sim/functional.hpp).
//
// Correctness contract: a DecodedOp is a pure function of (instruction word,
// decode-time PC), and a record is decodeOne() of the word at its PC — the
// same function the pipeline uses for the records it decodes outside the
// text — so text and off-text records share one semantics implementation,
// stepDecoded().
#pragma once

#include <cstdint>
#include <span>
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

/// Decode one instruction as located at `pc`.  Pure; shared by bind() and
/// by callers that must decode off-program-text words (the
/// pipeline decodes customizer-injected fold replacements this way, since a
/// BTI/BFI replacement is not guaranteed to match the program image).
[[nodiscard]] DecodedOp decodeOne(const Instruction& ins, std::uint32_t pc);

/// One program's text segment decoded once, keyed by fetch address: one
/// record per instruction word.  Lookups are counted, and the first lookup
/// of each word counts as a fill, so the statistics read as those of a cache
/// that decodes a word on first use.
class DecodeCache {
public:
    DecodeCache() = default;
    explicit DecodeCache(const Program& program) { bind(program); }

    /// Hit/fill statistics (published as sim.decode_cache_* counters).
    struct Stats {
        std::uint64_t lookups = 0;
        std::uint64_t fills = 0;  ///< first lookups of a word since bind()
        [[nodiscard]] std::uint64_t hits() const { return lookups - fills; }
    };

    /// Bind to a program: decode every text word and forget which words
    /// were looked up.  Call again on program reload — records decoded from
    /// the previous image are discarded, never served.
    void bind(const Program& program);

    /// The record for a text-segment PC; throws EnsureError for a PC outside
    /// the text or misaligned.  Counts nothing: this is a functional walk's
    /// path after a taken control transfer (sim/functional.hpp).
    [[nodiscard]] const DecodedOp& at(std::uint32_t pc) const {
        return records_[indexOf(pc)];
    }

    /// at(), counted in stats().  Inline: this is the pipeline's per-fetch
    /// hot path; the trip is one bounds check against the cache's own copy
    /// of the text extent (an unbound cache has none) and an indexed read.
    const DecodedOp& lookup(std::uint32_t pc) {
        const std::size_t index = indexOf(pc);
        ++stats_.lookups;
        if (touched_[index] == 0) {
            touched_[index] = 1;
            ++stats_.fills;
        }
        return records_[index];
    }

    /// Every record in address order: records()[i] is the word at
    /// textBase + 4i.  Unchanged until the next bind().
    [[nodiscard]] std::span<const DecodedOp> records() const {
        return records_;
    }

    [[nodiscard]] const Stats& stats() const { return stats_; }

private:
    [[nodiscard]] std::size_t indexOf(std::uint32_t pc) const {
        const std::uint32_t offset = pc - textBase_;
        ASBR_ENSURE(offset < textBytes_ && offset % kInstrBytes == 0,
                    "decode cache lookup outside the bound program's text");
        return offset / kInstrBytes;
    }

    std::uint32_t textBase_ = 0;
    std::uint32_t textBytes_ = 0;  ///< 0 until bound
    std::vector<DecodedOp> records_;
    std::vector<std::uint8_t> touched_;  ///< looked up since bind()
    Stats stats_;
};

}  // namespace asbr
