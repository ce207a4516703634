// Natural-loop detection over the interprocedural CFG.
//
// A back edge is an edge b -> h whose target dominates its source; the
// natural loop of that edge is h plus every block that can reach b without
// passing through h.  Loops sharing a head are merged (one Loop per head),
// nesting depth is the number of enclosing loop bodies a block belongs to,
// and the innermost loop of each block is recorded for O(1) membership
// queries.
//
// Separately from the dominator-based loops, the pass records the *widening
// set*: targets of retreating edges of a fixed depth-first traversal.  Every
// cycle of the graph — including irreducible cycles the conservative
// indirect-jump edges can create, which have no dominating head — contains
// at least one retreating edge, so widening at exactly these blocks is
// enough to force the abstract-interpretation fixpoint (analysis/absint) to
// terminate.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/dominators.hpp"

namespace asbr::analysis {

struct Loop {
    std::size_t head = kNoBlock;          ///< the loop-header block
    std::vector<std::size_t> latches;     ///< back-edge sources (b of b -> head)
    std::vector<std::size_t> blocks;      ///< body incl. head, sorted ascending
    std::size_t parent = kNoBlock;        ///< enclosing loop index; kNoBlock = outermost
    std::size_t depth = 1;                ///< 1 = outermost

    [[nodiscard]] bool contains(std::size_t block) const;
};

struct LoopForest {
    std::vector<Loop> loops;  ///< ordered outermost-first (by body size, desc)
    /// Innermost loop index per block; kNoBlock when the block is in no loop.
    std::vector<std::size_t> innermost;
    /// Loop-nesting depth per block (0 = not in any loop).
    std::vector<std::size_t> depthOf;
    /// Blocks where the abstract interpreter must widen: targets of DFS
    /// retreating edges.  Superset-compatible with the loop heads on
    /// reducible graphs; additionally cuts irreducible cycles.
    std::vector<char> wideningPoint;

    [[nodiscard]] bool isWideningPoint(std::size_t block) const {
        return wideningPoint[block] != 0;
    }
};

/// Detect natural loops and widening points for `cfg` using `doms`.
[[nodiscard]] LoopForest computeLoops(const Cfg& cfg, const DominatorTree& doms);

}  // namespace asbr::analysis
