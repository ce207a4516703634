#include "analysis/loops.hpp"

#include <algorithm>
#include <map>

namespace asbr::analysis {

bool Loop::contains(std::size_t block) const {
    return std::binary_search(blocks.begin(), blocks.end(), block);
}

namespace {

/// Body of the natural loop with head `head` and latch set `latches`:
/// everything that reaches a latch backwards without crossing the head.
std::vector<std::size_t> loopBody(const Cfg& cfg, std::size_t head,
                                  const std::vector<std::size_t>& latches) {
    std::vector<char> inBody(cfg.blocks.size(), 0);
    inBody[head] = 1;
    std::vector<std::size_t> stack;
    for (const std::size_t latch : latches)
        if (!inBody[latch]) {
            inBody[latch] = 1;
            stack.push_back(latch);
        }
    while (!stack.empty()) {
        const std::size_t b = stack.back();
        stack.pop_back();
        for (const std::size_t p : cfg.blocks[b].preds)
            if (!inBody[p]) {
                inBody[p] = 1;
                stack.push_back(p);
            }
    }
    std::vector<std::size_t> body;
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b)
        if (inBody[b]) body.push_back(b);
    return body;
}

/// Mark targets of retreating edges of one fixed DFS from the entry.
void markWideningPoints(const Cfg& cfg, std::vector<char>& widening) {
    const std::size_t n = cfg.blocks.size();
    if (cfg.entryBlock == kNoBlock) return;
    enum : char { kWhite = 0, kGrey = 1, kBlack = 2 };
    std::vector<char> color(n, kWhite);
    std::vector<std::pair<std::size_t, std::size_t>> stack;
    stack.emplace_back(cfg.entryBlock, 0);
    color[cfg.entryBlock] = kGrey;
    while (!stack.empty()) {
        auto& [block, next] = stack.back();
        const auto& succs = cfg.blocks[block].succs;
        if (next < succs.size()) {
            const std::size_t s = succs[next++];
            if (color[s] == kWhite) {
                color[s] = kGrey;
                stack.emplace_back(s, 0);
            } else if (color[s] == kGrey) {
                widening[s] = 1;  // retreating edge: s is on the DFS stack
            }
        } else {
            color[block] = kBlack;
            stack.pop_back();
        }
    }
}

}  // namespace

LoopForest computeLoops(const Cfg& cfg, const DominatorTree& doms) {
    LoopForest forest;
    const std::size_t n = cfg.blocks.size();
    forest.innermost.assign(n, kNoBlock);
    forest.depthOf.assign(n, 0);
    forest.wideningPoint.assign(n, 0);
    if (n == 0) return forest;
    markWideningPoints(cfg, forest.wideningPoint);

    // One natural loop per head: merge the back edges sharing a target.
    std::map<std::size_t, std::vector<std::size_t>> latchesByHead;
    for (std::size_t b = 0; b < n; ++b) {
        if (!doms.reachable(b)) continue;
        for (const std::size_t s : cfg.blocks[b].succs)
            if (doms.dominates(s, b)) latchesByHead[s].push_back(b);
    }
    for (auto& [head, latches] : latchesByHead) {
        Loop loop;
        loop.head = head;
        loop.latches = std::move(latches);
        loop.blocks = loopBody(cfg, head, loop.latches);
        forest.loops.push_back(std::move(loop));
    }

    // Outermost-first: a loop strictly containing another has a larger body
    // (ties broken by head id for determinism).
    std::sort(forest.loops.begin(), forest.loops.end(),
              [](const Loop& a, const Loop& b) {
                  if (a.blocks.size() != b.blocks.size())
                      return a.blocks.size() > b.blocks.size();
                  return a.head < b.head;
              });

    // Nesting: the parent of loop i is the smallest-bodied earlier loop that
    // contains its head; depth follows the parent chain.
    for (std::size_t i = 0; i < forest.loops.size(); ++i) {
        Loop& loop = forest.loops[i];
        // Later entries are smaller bodies, so the first containing loop
        // found scanning backwards is the closest enclosing one.
        for (std::size_t j = i; j-- > 0;) {
            if (forest.loops[j].contains(loop.head)) {
                loop.parent = j;
                break;
            }
        }
        loop.depth =
            loop.parent == kNoBlock ? 1 : forest.loops[loop.parent].depth + 1;
        for (const std::size_t b : loop.blocks) {
            forest.depthOf[b] = std::max(forest.depthOf[b], loop.depth);
            // Innermost = deepest loop covering the block; loops are visited
            // outermost-first, so the last writer wins only when deeper.
            if (forest.innermost[b] == kNoBlock ||
                forest.loops[forest.innermost[b]].depth <= loop.depth)
                forest.innermost[b] = i;
        }
    }
    return forest;
}

}  // namespace asbr::analysis
