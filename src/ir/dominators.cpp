#include "ir/dominators.hpp"

#include <algorithm>
#include <cassert>

#include "obs/hooks.hpp"

namespace privagic::ir {

namespace {

/// Cooper–Harvey–Kennedy iterative idom computation over an abstract graph:
/// node 0 is the root; @p preds gives predecessor indices; nodes are numbered
/// in reverse postorder (so a lower index is closer to the root).
/// Returns idom indices (idom[0] == 0).
std::vector<std::size_t> compute_idoms(std::size_t n,
                                       const std::vector<std::vector<std::size_t>>& preds) {
  constexpr std::size_t kUndef = static_cast<std::size_t>(-1);
  std::vector<std::size_t> idom(n, kUndef);
  if (n == 0) return idom;
  idom[0] = 0;

  auto intersect = [&](std::size_t a, std::size_t b) {
    while (a != b) {
      while (a > b) a = idom[a];
      while (b > a) b = idom[b];
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t node = 1; node < n; ++node) {
      std::size_t new_idom = kUndef;
      for (std::size_t p : preds[node]) {
        if (idom[p] == kUndef) continue;  // not yet processed
        new_idom = (new_idom == kUndef) ? p : intersect(p, new_idom);
      }
      if (new_idom != kUndef && idom[node] != new_idom) {
        idom[node] = new_idom;
        changed = true;
      }
    }
  }
  return idom;
}

}  // namespace

DominatorTree::DominatorTree(const Function& fn) : cfg_(fn) {
  const auto& rpo = cfg_.reverse_postorder();
  const std::size_t n = rpo.size();
  if (n == 0) return;

  std::vector<std::vector<std::size_t>> preds(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (BasicBlock* p : cfg_.predecessors(rpo[i])) {
      preds[i].push_back(cfg_.rpo_index(p));
    }
  }
  const std::vector<std::size_t> idom = compute_idoms(n, preds);
  for (std::size_t i = 1; i < n; ++i) {
    idom_[rpo[i]] = rpo[idom[i]];
  }
  idom_[rpo[0]] = nullptr;

  // Dominance frontiers (Cooper et al.): for each join point, walk up from
  // each predecessor to the join's idom.
  for (std::size_t i = 0; i < n; ++i) {
    BasicBlock* bb = rpo[i];
    const auto& bb_preds = cfg_.predecessors(bb);
    if (bb_preds.size() < 2) continue;
    for (BasicBlock* pred : bb_preds) {
      BasicBlock* runner = pred;
      while (runner != nullptr && runner != idom_[bb]) {
        auto& fr = frontier_[runner];
        if (std::find(fr.begin(), fr.end(), bb) == fr.end()) fr.push_back(bb);
        runner = idom_[runner];
      }
    }
  }
}

bool DominatorTree::dominates(const BasicBlock* a, const BasicBlock* b) const {
  const BasicBlock* runner = b;
  while (runner != nullptr) {
    if (runner == a) return true;
    auto it = idom_.find(runner);
    runner = (it != idom_.end()) ? it->second : nullptr;
  }
  return false;
}

PostDominatorTree::PostDominatorTree(const Cfg& cfg) {
  obs::on_pdom_build();
  const auto& blocks = cfg.reverse_postorder();
  if (blocks.empty()) return;

  // Exit blocks: terminator is ret (or the block is unterminated).
  std::vector<BasicBlock*> exits;
  for (BasicBlock* bb : blocks) {
    if (bb->successors().empty()) exits.push_back(bb);
  }
  if (exits.empty()) return;  // infinite loop; nothing post-dominates

  // Build the reverse graph with a virtual exit as node 0 and number nodes in
  // reverse-graph reverse postorder via DFS from the virtual exit.
  std::vector<BasicBlock*> order;                       // postorder of reverse graph
  std::unordered_set<const BasicBlock*> visited;
  struct Frame {
    BasicBlock* bb;
    std::vector<BasicBlock*> succs;  // reverse-graph successors = CFG preds
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  for (BasicBlock* x : exits) {
    if (!visited.insert(x).second) continue;
    stack.push_back({x, cfg.predecessors(x)});
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (top.next < top.succs.size()) {
        BasicBlock* s = top.succs[top.next++];
        if (visited.insert(s).second) stack.push_back({s, cfg.predecessors(s)});
      } else {
        order.push_back(top.bb);
        stack.pop_back();
      }
    }
  }
  // Node numbering: 0 = virtual exit, then blocks in reverse postorder.
  std::unordered_map<const BasicBlock*, std::size_t> index;
  std::vector<BasicBlock*> by_index(order.size() + 1, nullptr);
  {
    std::size_t next = 1;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      index[*it] = next;
      by_index[next] = *it;
      ++next;
    }
  }

  const std::size_t n = by_index.size();
  std::vector<std::vector<std::size_t>> preds(n);
  // Reverse-graph predecessors of v = CFG successors of v; exits also have
  // the virtual exit as predecessor.
  for (std::size_t i = 1; i < n; ++i) {
    BasicBlock* bb = by_index[i];
    for (BasicBlock* succ : bb->successors()) {
      auto it = index.find(succ);
      if (it != index.end()) preds[i].push_back(it->second);
    }
    if (bb->successors().empty()) preds[i].push_back(0);
  }

  const std::vector<std::size_t> idom = compute_idoms(n, preds);
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t p = idom[i];
    ipdom_[by_index[i]] = (p == 0) ? nullptr : by_index[p];
  }
}

std::vector<BasicBlock*> PostDominatorTree::controlled_region(BasicBlock* branch_bb) const {
  BasicBlock* join = ipdom(branch_bb);
  std::vector<BasicBlock*> region;
  std::unordered_set<BasicBlock*> visited;
  std::vector<BasicBlock*> work;
  for (BasicBlock* succ : branch_bb->successors()) {
    if (succ != join && visited.insert(succ).second) work.push_back(succ);
  }
  while (!work.empty()) {
    BasicBlock* bb = work.back();
    work.pop_back();
    region.push_back(bb);
    for (BasicBlock* succ : bb->successors()) {
      if (succ != join && succ != branch_bb && visited.insert(succ).second) {
        work.push_back(succ);
      }
    }
  }
  return region;
}

}  // namespace privagic::ir
