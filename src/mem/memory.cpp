#include "mem/memory.hpp"

#include <algorithm>
#include <cstring>

#include "isa/encoding.hpp"
#include "util/ensure.hpp"

namespace asbr {

const Memory::Page* Memory::findPage(std::uint32_t tag) const {
    const auto it = pages_.find(tag);
    if (it == pages_.end()) return nullptr;
    cached_ = it->second.get();
    cachedTag_ = tag;
    return cached_;
}

Memory::Page& Memory::pageFor(std::uint32_t tag) {
    auto& slot = pages_[tag];
    if (!slot) slot = std::make_unique<Page>(Page{});
    cached_ = slot.get();
    cachedTag_ = tag;
    return *slot;
}

void Memory::writeBlock(std::uint32_t addr, std::span<const std::uint8_t> bytes) {
    while (!bytes.empty()) {
        const std::uint32_t offset = addr & kOffsetMask;
        const std::size_t n =
            std::min<std::size_t>(kPageSize - offset, bytes.size());
        const std::span<const std::uint8_t> chunk = bytes.first(n);
        const std::uint32_t tag = addr >> kPageBits;
        // An absent page already reads as zero, so an all-zero chunk leaves
        // it absent: a data segment's `.space` costs no page until written.
        static constexpr Page kZeroPage{};
        if (findPage(tag) != nullptr ||
            std::memcmp(chunk.data(), kZeroPage.data(), n) != 0)
            std::memcpy(pageFor(tag).data() + offset, chunk.data(), n);
        bytes = bytes.subspan(n);
        addr += static_cast<std::uint32_t>(n);
    }
}

void Memory::readBlock(std::uint32_t addr, std::span<std::uint8_t> out) const {
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = read8(addr + static_cast<std::uint32_t>(i));
}

void Memory::loadProgram(const Program& program) {
    std::uint32_t addr = program.textBase;
    for (const Instruction& ins : program.code) {
        write32(addr, encode(ins));
        addr += kInstrBytes;
    }
    writeBlock(program.dataBase, program.data);
}

}  // namespace asbr
