// The secure type system of Privagic (§5–§6).
//
// The analysis assigns a color to every SSA register, every instruction
// (its *placement*: which enclave the partitioner will generate it in), and
// every basic block (Rule 4's implicit-leak regions), per function
// *specialization* — the pair (function, argument colors) of §6.2. It runs
// the stabilizing algorithm of §5.2: full passes over everything reachable
// from the entry points, repeated until no new color is inferred, then one
// final reporting pass that collects diagnostics.
//
// Color sources are entirely static:
//  * memory locations — a pointer's type carries the color of the memory it
//    points to (ptr<T color(c)>; "" means the unsafe default: U in hardened
//    mode, S in relaxed mode);
//  * registers — inferred from Table 3's rules, starting at F.
//
// Because colors only move F → concrete, the fixpoint is monotone and
// terminates in at most (#values) passes.
//
// One check from the paper is deliberately *not* here: the hardened-mode
// error for F arguments crossing an enclave boundary (§7.3.2) depends on
// per-function color sets and call-site chunk matching, so it lives in the
// partitioner (src/partition).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/dominators.hpp"
#include "ir/module.hpp"
#include "sectype/color.hpp"
#include "sectype/diagnostics.hpp"

namespace privagic::sectype {

/// Compilation mode (§5): hardened prevents confidentiality, integrity, and
/// Iago issues; relaxed drops Iago prevention (values loaded from S become F).
///
/// kHardenedAuth is this repository's implementation of the paper's §8
/// future work: hardened mode plus *authenticated pointers*. A pointer to
/// enclave memory may live in (and be reloaded from) unsafe memory because
/// the runtime MACs pointer values of colored pointee type — the enclave
/// verifies the MAC before dereferencing, so an attacker who swaps the
/// indirection cannot redirect enclave accesses. This lifts the
/// multi-color-structure restriction of §8 without weakening to relaxed
/// mode.
enum class Mode : std::uint8_t { kHardened, kRelaxed, kHardenedAuth };

/// A function specialization: the function plus the colors of its actual
/// arguments at a call site (§6.2).
struct SpecSig {
  const ir::Function* fn = nullptr;
  std::vector<Color> args;

  /// "f$blue.F" — the specialized symbol name ('.'-joined so the result is a
  /// valid PIR identifier and round-trips through the printer/parser).
  [[nodiscard]] std::string mangled() const {
    std::string s = fn->name();
    if (args.empty()) return s;
    s += "$";
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i > 0) s += ".";
      s += args[i].to_string();
    }
    return s;
  }

  friend bool operator==(const SpecSig& a, const SpecSig& b) {
    return a.fn == b.fn && a.args == b.args;
  }
  friend bool operator<(const SpecSig& a, const SpecSig& b) {
    if (a.fn != b.fn) return a.fn < b.fn;
    return a.args < b.args;
  }
};

/// Everything the analysis concluded about one specialization.
class SpecFacts {
 public:
  explicit SpecFacts(SpecSig sig) : sig_(std::move(sig)) {}

  [[nodiscard]] const SpecSig& sig() const { return sig_; }
  [[nodiscard]] Color ret_color() const { return ret_color_; }

  /// Color of a register (instruction result or argument); constants,
  /// globals, and function addresses are always F.
  [[nodiscard]] Color value_color(const ir::Value* v) const {
    auto it = value_color_.find(v);
    return it != value_color_.end() ? it->second : Color::free();
  }

  /// Placement: the enclave that generates this instruction. F means the
  /// instruction is replicated into every chunk (§7.3.1).
  [[nodiscard]] Color placement(const ir::Instruction* inst) const {
    auto it = inst_color_.find(inst);
    return it != inst_color_.end() ? it->second : Color::free();
  }

  /// Rule 4 block color (F when the block is not control-dependent on a
  /// colored branch).
  [[nodiscard]] Color block_color(const ir::BasicBlock* bb) const {
    auto it = block_color_.find(bb);
    return it != block_color_.end() ? it->second : Color::free();
  }

  /// For a direct call to a local function: the callee specialization.
  [[nodiscard]] const SpecSig* call_sig(const ir::CallInst* call) const {
    auto it = call_sigs_.find(call);
    return it != call_sigs_.end() ? &it->second : nullptr;
  }

  /// The function's color set (§7.3.1): all concrete placement colors plus
  /// the colors of the arguments (a function that receives a blue argument
  /// has blue in its color set even if it only forwards the value — see the
  /// paper's f.blue example in Figure 6).
  [[nodiscard]] ColorSet color_set() const {
    ColorSet set;
    for (const auto& [inst, color] : inst_color_) {
      (void)inst;
      if (color.is_concrete()) set.insert(color);
    }
    for (const Color& c : sig_.args) {
      if (c.is_concrete()) set.insert(c);
    }
    return set;
  }

 private:
  friend class TypeAnalysis;
  friend class SpecAnalyzer;
  SpecSig sig_;
  Color ret_color_ = Color::free();
  std::unordered_map<const ir::Value*, Color> value_color_;
  std::unordered_map<const ir::Instruction*, Color> inst_color_;
  std::unordered_map<const ir::BasicBlock*, Color> block_color_;
  std::unordered_map<const ir::CallInst*, SpecSig> call_sigs_;
};

class TypeAnalysis {
 public:
  TypeAnalysis(ir::Module& module, Mode mode) : module_(module), mode_(mode) {}

  /// Runs type inference + checking. Returns true iff no rule was violated.
  /// Precondition: mem2reg has run (§5.1); run() calls it defensively.
  bool run();

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] const DiagnosticEngine& diagnostics() const { return diags_; }
  [[nodiscard]] ir::Module& module() { return module_; }

  /// U in hardened modes, S in relaxed mode (Table 2).
  [[nodiscard]] Color unsafe_color() const {
    return mode_ == Mode::kRelaxed ? Color::shared() : Color::untrusted();
  }

  /// The color of the memory a pointer of this type points to.
  [[nodiscard]] Color memory_color(const ir::PtrType* pt) const {
    if (!pt->pointee_color().empty()) return color_from_annotation(pt->pointee_color());
    return unsafe_color();
  }

  /// The entry-point specializations the analysis started from (§6.2).
  [[nodiscard]] const std::vector<SpecSig>& entry_specs() const { return entry_specs_; }

  /// Facts for @p sig; nullptr if that specialization was never reached.
  [[nodiscard]] const SpecFacts* facts(const SpecSig& sig) const {
    auto it = specs_.find(sig);
    return it != specs_.end() ? it->second.get() : nullptr;
  }

  /// All specializations reachable from the entry points after
  /// stabilization, in deterministic order.
  [[nodiscard]] std::vector<const SpecFacts*> reachable_specs() const;

  /// All named enclave colors that appear anywhere in the program.
  [[nodiscard]] ColorSet program_colors() const;

  /// What the passes read of a defined function's CFG (its reverse
  /// postorder; the predecessor maps are dropped once the post-dominator
  /// tree is built) and its post-dominator tree.
  struct FunctionGraphs {
    explicit FunctionGraphs(const ir::Function& fn) : FunctionGraphs(ir::Cfg(fn)) {}
    explicit FunctionGraphs(const ir::Cfg& cfg) : rpo(cfg.reverse_postorder()), pdom(cfg) {}
    std::vector<ir::BasicBlock*> rpo;
    ir::PostDominatorTree pdom;
  };

  /// Graphs of @p fn, built on first use and shared by every fixpoint pass
  /// and specialization, the planner, and the rewriter. run() clears them
  /// after its mem2reg, so they describe the body the later stages read; a
  /// caller that edits a body after run() must run() again.
  [[nodiscard]] const FunctionGraphs& graphs(const ir::Function& fn) {
    return graphs_.try_emplace(&fn, fn).first->second;
  }

 private:
  friend class SpecAnalyzer;

  SpecFacts& get_or_create(const SpecSig& sig);
  void build_entry_specs();
  void validate_declared_colors();
  void analyze_pass(bool report);
  void analyze_spec(const SpecSig& sig, bool report);

  ir::Module& module_;
  Mode mode_;
  DiagnosticEngine diags_;
  std::vector<SpecSig> entry_specs_;
  std::map<SpecSig, std::unique_ptr<SpecFacts>> specs_;
  std::unordered_map<const ir::Function*, FunctionGraphs> graphs_;

  // Per-pass state.
  bool changed_ = false;
  std::vector<const SpecFacts*> visit_order_;
  std::map<SpecSig, bool> visited_;  // includes "in progress" for recursion
};

}  // namespace privagic::sectype
