#include "sim/fast_forward_log.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <unordered_map>

#include "asbr/asbr_unit.hpp"
#include "sim/decode_cache.hpp"
#include "sim/functional.hpp"
#include "util/ensure.hpp"

namespace asbr {

namespace {

/// Words written during the current interval, as one bitmap per touched
/// 4 KiB page: marking costs a bit set per store (plus a hash lookup when
/// the store leaves the last page), and a flush emits the words in address
/// order, so consecutive words fall into one run.
class DirtyWords {
public:
    void mark(std::uint32_t addr) {
        const std::uint32_t tag = addr >> kPageBits;
        if (tag != lastTag_ || pages_.empty()) {
            const auto [it, inserted] = slotOf_.try_emplace(tag, pages_.size());
            if (inserted) pages_.push_back(Page{});
            lastTag_ = tag;
            last_ = it->second;
        }
        Page& page = pages_[last_];
        if (!page.dirty) {
            page.dirty = true;
            dirtyTags_.push_back(tag);
        }
        const std::uint32_t word = (addr & kPageMask) >> 2;
        page.bits[word / 64] |= std::uint64_t{1} << (word % 64);
    }

    /// The interval's runs [address, count, value x count]... with each
    /// word's current value in `memory`; clears the marks.
    std::vector<std::uint32_t> flush(const Memory& memory) {
        std::sort(dirtyTags_.begin(), dirtyTags_.end());
        packed_.clear();
        std::size_t header = 0;
        std::uint32_t next = 0;
        for (const std::uint32_t tag : dirtyTags_) {
            Page& page = pages_[slotOf_.at(tag)];
            for (std::size_t i = 0; i < page.bits.size(); ++i) {
                for (std::uint64_t b = page.bits[i]; b != 0; b &= b - 1) {
                    const auto word = static_cast<std::uint32_t>(
                        i * 64 + static_cast<std::size_t>(std::countr_zero(b)));
                    const std::uint32_t addr = (tag << kPageBits) | (word << 2);
                    if (packed_.empty() || addr != next) {
                        header = packed_.size();
                        packed_.push_back(addr);
                        packed_.push_back(0);
                    }
                    packed_.push_back(memory.read32(addr));
                    ++packed_[header + 1];
                    next = addr + 4;
                }
                page.bits[i] = 0;
            }
            page.dirty = false;
        }
        dirtyTags_.clear();
        return {packed_.begin(), packed_.end()};  // exactly sized copy
    }

private:
    static constexpr std::uint32_t kPageBits = 12;
    static constexpr std::uint32_t kPageMask = (1u << kPageBits) - 1;
    struct Page {
        std::array<std::uint64_t, (1u << kPageBits) / 4 / 64> bits{};
        bool dirty = false;
    };

    std::unordered_map<std::uint32_t, std::size_t> slotOf_;
    std::vector<Page> pages_;
    std::vector<std::uint32_t> dirtyTags_;  ///< pages marked this interval
    std::vector<std::uint32_t> packed_;     ///< flush buffer, reused
    std::uint32_t lastTag_ = 0;
    std::size_t last_ = 0;
};

}  // namespace

FastForwardLog FastForwardLog::record(const Program& program, Memory& memory,
                                      const SamplingConfig& sampling,
                                      std::uint64_t maxInstructions,
                                      const std::function<void()>& poll) {
    constexpr std::uint64_t kLimit = std::uint64_t{1} << 63;
    ASBR_ENSURE(sampling.measure > 0,
                "sampling: the measure window must be nonzero");
    ASBR_ENSURE(sampling.warmup < kLimit &&
                    sampling.measure < kLimit - sampling.warmup &&
                    sampling.skip < kLimit - sampling.warmup - sampling.measure,
                "sampling: W+M+S must be below 2^63");

    FastForwardLog log;
    log.sampling_ = sampling;
    const std::uint64_t unit =
        sampling.warmup + sampling.measure + sampling.skip;
    log.spacing_ = unit * ((kMinSpacing + unit - 1) / unit);
    if (sampling.skip == 0) return log;

    DecodeCache decode(program);
    ArchState state = resetState(program);
    IoContext io;
    DirtyWords dirty;
    std::uint32_t written = 0;
    std::uint64_t position = 0;
    for (;;) {
        log.checkpoints_.push_back(
            Checkpoint{position, state, written, io.output.size()});
        if (io.exited) break;
        const std::uint64_t end =
            position + std::min(log.spacing_, maxInstructions - position);
        while (position < end && !io.exited) {
            const std::uint64_t stop =
                position + std::min(kPollInterval, end - position);
            std::uint64_t at = position;  // position of the next instruction
            position += walk(
                decode, state, memory, io, stop - position,
                [&](const DecodedOp& dec, const ArchState& now) {
                    // writesDest is exactly "a register other than r0 is
                    // written".
                    written |= static_cast<std::uint32_t>(dec.writesDest)
                               << dec.dest;
                    if (dec.store) {
                        const std::uint32_t addr = storeAddress(dec, now);
                        dirty.mark(addr);
                        if (addr == kBitBankSelectAddr)
                            log.bankSelects_.push_back(
                                {at, now.reg(dec.ins.rt)});
                    }
                    ++at;
                });
            if (poll) poll();
        }
        if (!io.exited && position == maxInstructions)
            throw SimTimeoutError(watchdogMessage(
                "functional", "instruction", maxInstructions, "instructions"));
        log.intervals_.push_back(dirty.flush(memory));
    }
    log.instructions_ = position;
    log.exitCode_ = io.exitCode;
    log.output_ = std::move(io.output);
    return log;
}

void FastForwardLog::applyInterval(std::size_t k, Memory& memory) const {
    const std::vector<std::uint32_t>& runs = intervals_.at(k);
    for (std::size_t i = 0; i < runs.size(); i += 2 + runs[i + 1]) {
        std::uint32_t addr = runs[i];
        for (std::uint32_t j = 0; j < runs[i + 1]; ++j, addr += 4)
            memory.write32(addr, runs[i + 2 + j]);
    }
}

std::span<const FastForwardLog::BankSelect> FastForwardLog::bankSelects(
    std::uint64_t from, std::uint64_t to) const {
    const auto before = [](const BankSelect& s, std::uint64_t p) {
        return s.position < p;
    };
    const auto first = std::lower_bound(bankSelects_.begin(),
                                        bankSelects_.end(), from, before);
    const auto last =
        std::lower_bound(first, bankSelects_.end(), to, before);
    return {first, last};
}

std::uint64_t FastForwardLog::writtenWords() const {
    std::uint64_t words = 0;
    for (const std::vector<std::uint32_t>& runs : intervals_)
        for (std::size_t i = 0; i < runs.size(); i += 2 + runs[i + 1])
            words += runs[i + 1];
    return words;
}

std::uint64_t FastForwardLog::packedBytes() const {
    std::uint64_t bytes = 0;
    for (const std::vector<std::uint32_t>& runs : intervals_)
        bytes += runs.size() * sizeof(std::uint32_t);
    return bytes;
}

}  // namespace asbr
