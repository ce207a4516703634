// Unit tests for main memory and the cache timing model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "asm/assembler.hpp"
#include "mem/cache.hpp"
#include "mem/memory.hpp"
#include "util/rng.hpp"

namespace asbr {
namespace {

TEST(MemoryTest, ZeroInitialized) {
    Memory m;
    EXPECT_EQ(m.read8(0), 0);
    EXPECT_EQ(m.read32(0x7FFF'0000), 0u);
}

TEST(MemoryTest, ByteHalfWordRoundTrip) {
    Memory m;
    m.write8(100, 0xAB);
    EXPECT_EQ(m.read8(100), 0xAB);
    m.write16(200, 0xBEEF);
    EXPECT_EQ(m.read16(200), 0xBEEF);
    m.write32(300 * 4, 0xDEADBEEFu);
    EXPECT_EQ(m.read32(300 * 4), 0xDEADBEEFu);
}

TEST(MemoryTest, LittleEndianLayout) {
    Memory m;
    m.write32(0x1000, 0x04030201u);
    EXPECT_EQ(m.read8(0x1000), 1);
    EXPECT_EQ(m.read8(0x1001), 2);
    EXPECT_EQ(m.read8(0x1002), 3);
    EXPECT_EQ(m.read8(0x1003), 4);
    EXPECT_EQ(m.read16(0x1000), 0x0201);
    EXPECT_EQ(m.read16(0x1002), 0x0403);
}

TEST(MemoryTest, CrossPageAccess) {
    Memory m;
    const std::uint32_t addr = 4096 - 2;  // half straddles nothing; bytes do
    m.write16(addr, 0x1234);
    EXPECT_EQ(m.read16(addr), 0x1234);
    std::array<std::uint8_t, 8> block{1, 2, 3, 4, 5, 6, 7, 8};
    m.writeBlock(4092, block);
    std::array<std::uint8_t, 8> out{};
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = m.read8(4092 + static_cast<std::uint32_t>(i));
    EXPECT_EQ(block, out);
}

TEST(MemoryTest, BlockWriteSkipsOnlyZeroChunksOfAbsentPages) {
    // Five pages from an unaligned start to an unaligned end: a zero head on
    // an absent page, a nonzero page, a zero page over a page that already
    // holds data (it must still be cleared), an absent zero page and a
    // nonzero tail.
    constexpr std::uint32_t kBase = 0x1000'0000;
    constexpr std::uint32_t kStart = kBase + 4096 - 100;
    std::vector<std::uint8_t> block(4 * 4096 + 300, 0);
    for (std::size_t i = 100; i < 100 + 4096; ++i)
        block[i] = static_cast<std::uint8_t>(i * 7 + 1);
    for (std::size_t i = block.size() - 200; i < block.size(); ++i)
        block[i] = static_cast<std::uint8_t>(i | 1);
    Memory m;
    m.write32(kBase + 2 * 4096 + 8, 0xDEADBEEFu);  // page 2 exists already
    m.writeBlock(kStart, block);
    std::vector<std::uint8_t> out(block.size() + 8, 0xAA);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = m.read8(kStart - 4 + static_cast<std::uint32_t>(i));
    EXPECT_EQ(std::vector<std::uint8_t>(out.begin() + 4, out.end() - 4), block);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(out[i], 0) << "before the block";
        EXPECT_EQ(out[out.size() - 1 - i], 0) << "after the block";
    }
    // Writing into a page the block left absent, then reading it back.
    const std::uint32_t elided = kBase + 3 * 4096 + 40;
    EXPECT_EQ(m.read32(elided), 0u);
    m.write32(elided, 0x01020304u);
    EXPECT_EQ(m.read32(elided), 0x01020304u);
    EXPECT_EQ(m.read32(elided + 4), 0u);
    EXPECT_EQ(m.read8(kStart + 100), block[100]);
}

// Pages at the edges of the page table: page 0, two pages of one 4 MiB
// leaf, pages of different leaves (the stack's) and the last page, which
// holds the BIT bank-select register and the top word of the address space.
// Every access alternates pages, so each one misses the last-page cache.
TEST(MemoryTest, PagesAcrossThePageTable) {
    constexpr std::array<std::uint32_t, 7> kWords{
        0x0000'0000u,  // page 0
        0x0000'1000u,  // text: page 1, same leaf as page 0
        0x0010'0FFCu,  // data: last word of a page in the same leaf
        0x0040'0000u,  // first page of the second leaf
        0x7FFF'FEFCu,  // just below the stack top
        0xFFFF'0000u,  // bank-select register
        0xFFFF'FFFCu,  // last word of the address space
    };
    Memory m;
    for (const std::uint32_t addr : kWords) {
        EXPECT_EQ(m.read32(addr), 0u) << std::hex << addr;
        m.write32(addr, addr ^ 0xA5A5'A5A5u);
    }
    for (int round = 0; round < 2; ++round) {
        for (const std::uint32_t addr : kWords)
            EXPECT_EQ(m.read32(addr), addr ^ 0xA5A5'A5A5u) << std::hex << addr;
    }
    EXPECT_EQ(m.read8(0xFFFF'FFFFu), 0xA5u ^ 0xFFu);
    EXPECT_EQ(m.read16(0xFFFF'FFFEu), 0xA5A5u ^ 0xFFFFu);
    // Neighbours of the written words stay zero.
    EXPECT_EQ(m.read32(0x0000'0004u), 0u);
    EXPECT_EQ(m.read32(0x0010'1000u), 0u);
    EXPECT_EQ(m.read32(0x003F'FFFCu), 0u);
    EXPECT_EQ(m.read32(0xFFFE'FFFCu), 0u);
}

TEST(MemoryTest, AlternatingPagesMissTheLastPageCache) {
    Memory m;
    constexpr std::uint32_t kIn = 0x0010'0000;   // input page
    constexpr std::uint32_t kOut = 0x0010'2000;  // output page
    constexpr std::uint32_t kStack = 0x7FFF'F000;
    for (std::uint32_t i = 0; i < 1024; ++i) {
        m.write8(kIn + i, static_cast<std::uint8_t>(i * 3));
        m.write16(kStack + 2 * i, static_cast<std::uint16_t>(i + 7));
        m.write32(kOut + 4 * i, m.read8(kIn + i) + m.read16(kStack + 2 * i));
    }
    for (std::uint32_t i = 0; i < 1024; ++i) {
        EXPECT_EQ(m.read16(kStack + 2 * i), i + 7);
        EXPECT_EQ(m.read32(kOut + 4 * i), ((i * 3) & 0xFFu) + i + 7);
        EXPECT_EQ(m.read8(kIn + i), static_cast<std::uint8_t>(i * 3));
    }
}

TEST(MemoryTest, AbsentPageReadsZeroUntilWritten) {
    Memory m;
    m.write32(0x2000, 1);  // a neighbouring page exists
    constexpr std::uint32_t kAbsent = 0x3000;
    EXPECT_EQ(m.read8(kAbsent + 5), 0);
    EXPECT_EQ(m.read16(kAbsent + 6), 0);
    EXPECT_EQ(m.read32(kAbsent + 8), 0u);
    EXPECT_EQ(m.read32(0x2000), 1u);
    m.write8(kAbsent + 5, 0x7F);  // the first write allocates the page
    EXPECT_EQ(m.read8(kAbsent + 5), 0x7F);
    EXPECT_EQ(m.read32(kAbsent + 4), 0x7F00u);
    EXPECT_EQ(m.read32(kAbsent + 8), 0u);
    EXPECT_EQ(m.read32(0x2000), 1u);
}

TEST(MemoryTest, MovedMemoryKeepsItsContents) {
    Memory m;
    m.write32(0x1000, 0x11111111u);
    m.write32(0x7FFF'FEF0u, 0x22222222u);
    m.write32(0xFFFF'0000u, 0x33333333u);
    Memory moved(std::move(m));
    EXPECT_EQ(moved.read32(0x1000), 0x11111111u);
    EXPECT_EQ(moved.read32(0x7FFF'FEF0u), 0x22222222u);
    EXPECT_EQ(moved.read32(0xFFFF'0000u), 0x33333333u);
    Memory assigned;
    assigned.write32(0x1000, 0xDEADu);
    assigned = std::move(moved);
    EXPECT_EQ(assigned.read32(0x1000), 0x11111111u);
    EXPECT_EQ(assigned.read32(0xFFFF'0000u), 0x33333333u);
    assigned.write32(0x0040'0000u, 5);
    EXPECT_EQ(assigned.read32(0x0040'0000u), 5u);
    EXPECT_EQ(assigned.read32(0x7FFF'FEF0u), 0x22222222u);
}

TEST(MemoryTest, AlignmentEnforced) {
    Memory m;
    EXPECT_THROW((void)m.read16(1), EnsureError);
    EXPECT_THROW((void)m.read32(2), EnsureError);
    EXPECT_THROW(m.write16(3, 0), EnsureError);
    EXPECT_THROW(m.write32(6, 0), EnsureError);
}

TEST(MemoryTest, SignedHelpers) {
    Memory m;
    m.writeWord(0x2000, -12345);
    EXPECT_EQ(static_cast<std::int32_t>(m.read32(0x2000)), -12345);
    m.write16(0x2004, 0x8000);
    EXPECT_EQ(m.readHalf(0x2004), -32768);
}

TEST(MemoryTest, LoadProgramPlacesTextAndData) {
    const Program p = assemble(R"(
        .text
main:   addiu t0, zero, 1
        .data
v:      .word 0x11223344
    )");
    Memory m;
    m.loadProgram(p);
    EXPECT_NE(m.read32(kTextBase), 0u);
    EXPECT_EQ(m.read32(p.symbol("v")), 0x11223344u);
}

TEST(CacheTest, ConfigValidation) {
    EXPECT_NO_THROW(Cache({8192, 32, 2, 8}));
    EXPECT_THROW(Cache({8192, 33, 2, 8}), EnsureError);   // non-pow2 line
    EXPECT_THROW(Cache({8192, 32, 0, 8}), EnsureError);   // assoc 0
    EXPECT_THROW(Cache({8000, 32, 2, 8}), EnsureError);   // size mismatch
}

TEST(CacheTest, ColdMissThenHit) {
    Cache c({1024, 32, 1, 10});
    EXPECT_EQ(c.access(0x100), 10u);  // cold miss
    EXPECT_EQ(c.access(0x100), 0u);   // hit
    EXPECT_EQ(c.access(0x11C), 0u);   // same line (0x100..0x11F)
    EXPECT_EQ(c.access(0x120), 10u);  // next line
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(CacheTest, DirectMappedConflict) {
    Cache c({1024, 32, 1, 10});  // 32 sets
    EXPECT_EQ(c.access(0x0000), 10u);
    EXPECT_EQ(c.access(0x0400), 10u);  // same set (1024 apart), evicts
    EXPECT_EQ(c.access(0x0000), 10u);  // conflict miss
}

TEST(CacheTest, TwoWayAvoidsSimpleConflict) {
    Cache c({1024, 32, 2, 10});  // 16 sets
    EXPECT_EQ(c.access(0x0000), 10u);
    EXPECT_EQ(c.access(0x0400), 10u);  // same set, second way
    EXPECT_EQ(c.access(0x0000), 0u);   // still resident
    EXPECT_EQ(c.access(0x0400), 0u);
}

TEST(CacheTest, LruReplacement) {
    Cache c({64, 32, 2, 5});  // one set, two ways
    c.access(0x000);          // A
    c.access(0x100);          // B
    c.access(0x000);          // touch A (B is LRU)
    EXPECT_EQ(c.access(0x200), 5u);  // C evicts B
    EXPECT_EQ(c.access(0x000), 0u);  // A survives
    EXPECT_EQ(c.access(0x100), 5u);  // B was evicted
}

TEST(CacheTest, ProbeDoesNotAllocate) {
    Cache c({1024, 32, 1, 10});
    EXPECT_FALSE(c.probe(0x40));
    c.access(0x40);
    EXPECT_TRUE(c.probe(0x40));
    EXPECT_TRUE(c.probe(0x5C));   // same line
    EXPECT_FALSE(c.probe(0x60));  // next line
}

TEST(CacheTest, ResetClears) {
    Cache c({1024, 32, 1, 10});
    c.access(0x40);
    c.reset();
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_EQ(c.stats().accesses, 0u);
}

// Property: an N-line fully-covered sequential sweep misses exactly once per
// line regardless of associativity.
TEST(CacheTest, SequentialSweepMissesOncePerLine) {
    for (std::uint32_t assoc : {1u, 2u, 4u}) {
        Cache c({8192, 32, assoc, 8});
        for (std::uint32_t addr = 0; addr < 8192; addr += 4) c.access(addr);
        EXPECT_EQ(c.stats().misses, 8192u / 32u) << "assoc " << assoc;
        // Second sweep: everything resident.
        for (std::uint32_t addr = 0; addr < 8192; addr += 4) c.access(addr);
        EXPECT_EQ(c.stats().misses, 8192u / 32u) << "assoc " << assoc;
    }
}

/// True-LRU reference: per set, resident line tags from most to least
/// recently used.
class ReferenceLru {
public:
    explicit ReferenceLru(const CacheConfig& config)
        : config_(config), sets_(config.numSets()) {}

    std::uint32_t access(std::uint32_t addr) {
        ++accesses;
        const std::uint32_t line = addr / config_.lineBytes;
        std::vector<std::uint32_t>& set = sets_[line % config_.numSets()];
        const std::uint32_t tag = line / config_.numSets();
        const auto hit = std::find(set.begin(), set.end(), tag);
        if (hit != set.end()) {
            set.erase(hit);
            set.insert(set.begin(), tag);
            return 0;
        }
        ++misses;
        if (set.size() == config_.assoc) set.pop_back();
        set.insert(set.begin(), tag);
        return config_.missPenalty;
    }

    void reset() {
        for (std::vector<std::uint32_t>& set : sets_) set.clear();
        accesses = misses = 0;
    }

    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

private:
    CacheConfig config_;
    std::vector<std::vector<std::uint32_t>> sets_;
};

// Property: the cache is exactly true LRU, access for access, including the
// re-hits of the most recently used line that return early.  Streams mix
// runs inside one line with jumps across a working set larger than the
// cache, so every geometry sees hits, conflict misses and evictions; a
// reset() midway must forget the early-return line as well.
TEST(CacheTest, MatchesReferenceLruAccessForAccess) {
    for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            const CacheConfig config{2048, 32, assoc, 7};
            Cache cache(config);
            ReferenceLru reference(config);
            Xorshift64 rng(seed * 16 + assoc);
            for (int phase = 0; phase < 2; ++phase) {
                for (int step = 0; step < 4000; ++step) {
                    const std::uint32_t line =
                        static_cast<std::uint32_t>(rng.below(192));
                    const std::uint64_t run = 1 + rng.below(6);
                    for (std::uint64_t i = 0; i < run; ++i) {
                        const std::uint32_t addr =
                            line * 32 + 4 * static_cast<std::uint32_t>(
                                                rng.below(8));
                        ASSERT_EQ(cache.access(addr), reference.access(addr))
                            << "assoc " << assoc << " seed " << seed
                            << " phase " << phase << " step " << step;
                    }
                }
                EXPECT_EQ(cache.stats().accesses, reference.accesses);
                EXPECT_EQ(cache.stats().misses, reference.misses);
                EXPECT_GT(reference.misses, 0u);
                EXPECT_LT(reference.misses, reference.accesses);
                cache.reset();
                reference.reset();
            }
        }
    }
}

TEST(CacheTest, ResetForgetsTheMostRecentLine) {
    Cache c({1024, 32, 2, 10});
    EXPECT_EQ(c.access(0x40), 10u);
    EXPECT_EQ(c.access(0x44), 0u);  // same line: early return
    c.reset();
    EXPECT_EQ(c.access(0x48), 10u);  // the line is gone after reset
    EXPECT_EQ(c.stats().accesses, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

// Property: a random access stream against a small cache never reports more
// misses than accesses, and a fully-associative-equivalent config with the
// same capacity never has more misses than the direct-mapped one on a
// repeating working set.
TEST(CacheTest, HigherAssociativityHelpsRepeatingWorkingSet) {
    std::vector<std::uint32_t> workingSet;
    Xorshift64 rng(7);
    for (int i = 0; i < 8; ++i)
        workingSet.push_back(static_cast<std::uint32_t>(rng.below(16)) * 1024);
    Cache direct({4096, 32, 1, 8});
    Cache assoc8({4096, 32, 8, 8});
    for (int round = 0; round < 50; ++round) {
        for (std::uint32_t a : workingSet) {
            direct.access(a);
            assoc8.access(a);
        }
    }
    EXPECT_LE(assoc8.stats().misses, direct.stats().misses);
}

}  // namespace
}  // namespace asbr
