// Two-level radix table over the 2^20 page numbers of the 32-bit address
// space.
//
// A page number (address >> 12) picks a leaf with its top ten bits and a
// slot in that leaf with its low ten bits; the root has 1024 entries and
// each leaf holds 1024 entry pointers, so a lookup is three dependent loads
// and never hashes.  An absent page costs nothing; a leaf costs 8 KiB once
// any page of its 4 MiB exists.  The ep32 address map touches three leaves:
// text and data below 4 MiB, the stack, and the BIT bank-select page at
// 0xFFFF0000.
//
// Entries are created value-initialised on first use and never move or
// disappear, so a pointer to one stays valid for the table's lifetime.  The
// root is allocated with the first entry, so an empty table is one null
// pointer and a move costs a pointer copy.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

namespace asbr {

template <class Entry>
class PageTable {
public:
    /// The entry of page `number` (< 2^20), or nullptr when it is absent.
    [[nodiscard]] Entry* find(std::uint32_t number) const {
        if (root_ == nullptr) return nullptr;
        const Leaf* leaf = (*root_)[number >> kLeafBits].get();
        return leaf != nullptr ? (*leaf)[number & kSlotMask].get() : nullptr;
    }

    /// The entry of page `number` (< 2^20), created on first use.
    Entry& get(std::uint32_t number) {
        if (Entry* entry = find(number)) return *entry;
        return insert(number);
    }

private:
    static constexpr std::uint32_t kLeafBits = 10;
    static constexpr std::uint32_t kSlotMask = (1u << kLeafBits) - 1;
    using Leaf = std::array<std::unique_ptr<Entry>, 1u << kLeafBits>;
    using Root = std::array<std::unique_ptr<Leaf>, 1u << (20 - kLeafBits)>;

    /// The allocating half of get(), kept off its inlined fast path.
    [[gnu::noinline]] Entry& insert(std::uint32_t number) {
        if (root_ == nullptr) root_ = std::make_unique<Root>();
        std::unique_ptr<Leaf>& leaf = (*root_)[number >> kLeafBits];
        if (leaf == nullptr) leaf = std::make_unique<Leaf>();
        std::unique_ptr<Entry>& entry = (*leaf)[number & kSlotMask];
        entry = std::make_unique<Entry>();
        return *entry;
    }

    std::unique_ptr<Root> root_;
};

}  // namespace asbr
