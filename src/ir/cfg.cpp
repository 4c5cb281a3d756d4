#include "ir/cfg.hpp"

#include <algorithm>

#include "obs/hooks.hpp"

namespace privagic::ir {

Cfg::Cfg(const Function& fn) {
  obs::on_cfg_build();
  BasicBlock* entry = fn.entry_block();
  if (entry == nullptr) return;

  // Iterative postorder DFS.
  std::vector<BasicBlock*> postorder;
  std::unordered_set<BasicBlock*> visited;
  struct Frame {
    BasicBlock* bb;
    std::vector<BasicBlock*> succs;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  visited.insert(entry);
  stack.push_back({entry, entry->successors()});
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next < top.succs.size()) {
      BasicBlock* succ = top.succs[top.next++];
      if (visited.insert(succ).second) {
        stack.push_back({succ, succ->successors()});
      }
    } else {
      postorder.push_back(top.bb);
      stack.pop_back();
    }
  }

  rpo_.assign(postorder.rbegin(), postorder.rend());
  for (std::size_t i = 0; i < rpo_.size(); ++i) rpo_index_[rpo_[i]] = i;

  for (BasicBlock* bb : rpo_) {
    for (BasicBlock* succ : bb->successors()) {
      if (is_reachable(succ)) preds_[succ].push_back(bb);
    }
  }
}

}  // namespace privagic::ir
