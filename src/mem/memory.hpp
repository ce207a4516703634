// Byte-addressable sparse main memory.
//
// Backing store is a page map so the full 32-bit address space (text, data,
// heap, stack) is usable without reserving 4GB.  All multi-byte accesses are
// little-endian and must be naturally aligned — ep32 has no unaligned
// accesses, and benchmarks that violate alignment are bugs we want to catch.
//
// The accessors are the simulators' per-instruction load/store port, so they
// are inline and word-wide (an aligned access never crosses the 4 KiB page
// boundary), with a one-entry last-page cache in front of the hash map —
// consecutive accesses overwhelmingly hit the same page.  The cache is an
// instance member: each engine worker builds its own Memory, so there is no
// shared mutable state across threads.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "asm/program.hpp"
#include "util/ensure.hpp"

namespace asbr {

class Memory {
public:
    /// Read/write primitives.  Throw EnsureError on misalignment.
    [[nodiscard]] std::uint8_t read8(std::uint32_t addr) const {
        const Page* page = cachedPage(addr);
        return page != nullptr ? (*page)[addr & kOffsetMask] : 0;
    }
    [[nodiscard]] std::uint16_t read16(std::uint32_t addr) const {
        ASBR_ENSURE((addr & 1u) == 0, "unaligned 16-bit read");
        const Page* page = cachedPage(addr);
        if (page == nullptr) return 0;
        const std::uint32_t off = addr & kOffsetMask;
        return static_cast<std::uint16_t>(
            (*page)[off] | (static_cast<std::uint16_t>((*page)[off + 1]) << 8));
    }
    [[nodiscard]] std::uint32_t read32(std::uint32_t addr) const {
        ASBR_ENSURE((addr & 3u) == 0, "unaligned 32-bit read");
        const Page* page = cachedPage(addr);
        if (page == nullptr) return 0;
        const std::uint32_t off = addr & kOffsetMask;
        return static_cast<std::uint32_t>((*page)[off]) |
               (static_cast<std::uint32_t>((*page)[off + 1]) << 8) |
               (static_cast<std::uint32_t>((*page)[off + 2]) << 16) |
               (static_cast<std::uint32_t>((*page)[off + 3]) << 24);
    }
    void write8(std::uint32_t addr, std::uint8_t value) {
        cachedPageMut(addr)[addr & kOffsetMask] = value;
    }
    void write16(std::uint32_t addr, std::uint16_t value) {
        ASBR_ENSURE((addr & 1u) == 0, "unaligned 16-bit write");
        Page& page = cachedPageMut(addr);
        const std::uint32_t off = addr & kOffsetMask;
        page[off] = static_cast<std::uint8_t>(value & 0xFF);
        page[off + 1] = static_cast<std::uint8_t>(value >> 8);
    }
    void write32(std::uint32_t addr, std::uint32_t value) {
        ASBR_ENSURE((addr & 3u) == 0, "unaligned 32-bit write");
        Page& page = cachedPageMut(addr);
        const std::uint32_t off = addr & kOffsetMask;
        page[off] = static_cast<std::uint8_t>(value & 0xFF);
        page[off + 1] = static_cast<std::uint8_t>((value >> 8) & 0xFF);
        page[off + 2] = static_cast<std::uint8_t>((value >> 16) & 0xFF);
        page[off + 3] = static_cast<std::uint8_t>((value >> 24) & 0xFF);
    }

    /// Bulk helpers.  writeBlock copies a page-sized chunk at a time and
    /// allocates no page for an all-zero chunk: an absent page reads as
    /// zero.
    void writeBlock(std::uint32_t addr, std::span<const std::uint8_t> bytes);
    void readBlock(std::uint32_t addr, std::span<std::uint8_t> out) const;

    /// Copy a program image (encoded text + initialized data) into memory.
    void loadProgram(const Program& program);

    /// Convenience typed accessors used by workload harnesses.
    [[nodiscard]] std::int32_t readWord(std::uint32_t addr) const {
        return static_cast<std::int32_t>(read32(addr));
    }
    void writeWord(std::uint32_t addr, std::int32_t value) {
        write32(addr, static_cast<std::uint32_t>(value));
    }
    [[nodiscard]] std::int16_t readHalf(std::uint32_t addr) const {
        return static_cast<std::int16_t>(read16(addr));
    }
    void writeHalf(std::uint32_t addr, std::int16_t value) {
        write16(addr, static_cast<std::uint16_t>(value));
    }

private:
    static constexpr std::uint32_t kPageBits = 12;
    static constexpr std::uint32_t kPageSize = 1u << kPageBits;
    static constexpr std::uint32_t kOffsetMask = kPageSize - 1;
    using Page = std::array<std::uint8_t, kPageSize>;

    /// Last-page fast path.  Pages live behind unique_ptr and are never
    /// erased, so a cached pointer stays valid across map rehashes; a read
    /// of a not-yet-allocated page returns nullptr without polluting the
    /// cache (a later write allocates the page and refreshes it).
    [[nodiscard]] const Page* cachedPage(std::uint32_t addr) const {
        const std::uint32_t tag = addr >> kPageBits;
        if (cached_ != nullptr && cachedTag_ == tag) return cached_;
        return findPage(tag);
    }
    [[nodiscard]] Page& cachedPageMut(std::uint32_t addr) {
        const std::uint32_t tag = addr >> kPageBits;
        if (cached_ != nullptr && cachedTag_ == tag) return *cached_;
        return pageFor(tag);
    }

    [[nodiscard]] const Page* findPage(std::uint32_t tag) const;
    Page& pageFor(std::uint32_t tag);

    std::unordered_map<std::uint32_t, std::unique_ptr<Page>> pages_;
    mutable Page* cached_ = nullptr;  ///< one-entry page cache (per instance)
    mutable std::uint32_t cachedTag_ = 0;
};

}  // namespace asbr
