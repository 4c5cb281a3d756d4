// Dominator and post-dominator trees (Cooper–Harvey–Kennedy "simple, fast
// dominance"), plus dominance frontiers for mem2reg's phi placement and
// post-dominance queries for the implicit-leak regions of typing Rule 4
// (§6.1.1): the blocks colored by a conditional branch on a colored value are
// exactly the blocks on a path from the branch to its immediate post-
// dominator, excluding the post-dominator itself (the "joining point").
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/cfg.hpp"

namespace privagic::ir {

class DominatorTree {
 public:
  explicit DominatorTree(const Function& fn);

  /// Immediate dominator; nullptr for the entry block or unreachable blocks.
  [[nodiscard]] BasicBlock* idom(const BasicBlock* bb) const {
    auto it = idom_.find(bb);
    return it != idom_.end() ? it->second : nullptr;
  }

  /// True if @p a dominates @p b (reflexive).
  [[nodiscard]] bool dominates(const BasicBlock* a, const BasicBlock* b) const;

  /// Dominance frontier of @p bb.
  [[nodiscard]] const std::vector<BasicBlock*>& frontier(const BasicBlock* bb) const {
    static const std::vector<BasicBlock*> kEmpty;
    auto it = frontier_.find(bb);
    return it != frontier_.end() ? it->second : kEmpty;
  }

  [[nodiscard]] const Cfg& cfg() const { return cfg_; }

 private:
  Cfg cfg_;
  std::unordered_map<const BasicBlock*, BasicBlock*> idom_;
  std::unordered_map<const BasicBlock*, std::vector<BasicBlock*>> frontier_;
};

/// Post-dominator information, computed over the reverse CFG. Functions with
/// multiple exit blocks use a virtual exit node (represented by nullptr).
class PostDominatorTree {
 public:
  explicit PostDominatorTree(const Cfg& cfg);
  explicit PostDominatorTree(const Function& fn) : PostDominatorTree(Cfg(fn)) {}

  /// Immediate post-dominator of @p bb; nullptr means the virtual exit.
  [[nodiscard]] BasicBlock* ipdom(const BasicBlock* bb) const {
    auto it = ipdom_.find(bb);
    return it != ipdom_.end() ? it->second : nullptr;
  }

  /// The blocks "controlled" by the terminator of @p branch_bb: every block
  /// reachable from a successor of @p branch_bb before its immediate post-
  /// dominator (the join point) is reached. This is the region Rule 4 colors.
  [[nodiscard]] std::vector<BasicBlock*> controlled_region(BasicBlock* branch_bb) const;

 private:
  std::unordered_map<const BasicBlock*, BasicBlock*> ipdom_;
};

}  // namespace privagic::ir
