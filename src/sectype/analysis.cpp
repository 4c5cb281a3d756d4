#include "sectype/analysis.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "ir/mem2reg.hpp"

namespace privagic::sectype {

namespace {

std::string describe(const ir::Instruction* inst) {
  static constexpr std::string_view kNames[] = {
      "alloca", "heap_alloc", "heap_free", "load",     "store",
      "gep",    "binop",      "icmp",      "cast",     "phi",
      "br",     "cond_br",    "call",      "call_indirect", "ret"};
  std::string s(kNames[static_cast<std::size_t>(inst->opcode())]);
  if (!inst->name().empty()) s += " %" + inst->name();
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// SpecAnalyzer: applies the Table 3 rules to one specialization.
// ---------------------------------------------------------------------------

class SpecAnalyzer {
 public:
  SpecAnalyzer(TypeAnalysis& ta, SpecFacts& facts, bool report)
      : ta_(ta), facts_(facts), report_(report) {}

  void run() {
    const ir::Function* fn = facts_.sig().fn;
    assert(!fn->is_declaration());

    // Argument colors come from the specialization signature.
    for (std::size_t i = 0; i < fn->arg_count(); ++i) {
      set_value(fn->argument(i), facts_.sig().args[i]);
    }

    const auto& [rpo, pdom] = ta_.graphs(*fn);
    for (ir::BasicBlock* bb : rpo) {
      for (const auto& inst : bb->instructions()) {
        // Opcode rules first (they establish the instruction's natural
        // placement), then Rule 4: a conflict between the two is exactly an
        // implicit leak — e.g. a store to U under a blue-controlled branch.
        visit(inst.get(), pdom);
        apply_block_rule(inst.get());
      }
    }
  }

 private:
  // -- Color slots -------------------------------------------------------------

  [[nodiscard]] Color value(const ir::Value* v) const { return facts_.value_color(v); }

  void set_value(const ir::Value* v, Color c) {
    Color& slot = facts_.value_color_[v];
    if (slot != c) {
      slot = c;
      ta_.changed_ = true;
    }
  }

  /// `x ← ȳ` from Table 3 on a value slot: checks compatibility and, if the
  /// slot is still F, colors it.
  void assign_value(const ir::Value* v, Color c, Rule rule, const ir::Instruction* site,
                    const std::string& what) {
    // Constants, globals, and function addresses are permanently F.
    if (v->is_constant() || v->value_kind() == ir::ValueKind::kGlobal ||
        v->value_kind() == ir::ValueKind::kFunction) {
      return;
    }
    Color& slot = facts_.value_color_[v];
    if (!compatible(slot, c)) {
      report(rule, site, what + ": " + slot.to_string() + " vs " + c.to_string());
      return;
    }
    if (slot.is_free() && c.is_concrete()) {
      slot = c;
      ta_.changed_ = true;
    }
  }

  void assign_placement(const ir::Instruction* inst, Color c, Rule rule,
                        const std::string& what) {
    Color& slot = facts_.inst_color_[inst];
    if (!compatible(slot, c)) {
      report(rule, inst, what + ": instruction belongs to " + slot.to_string() +
                             " but must execute in " + c.to_string());
      return;
    }
    if (slot.is_free() && c.is_concrete()) {
      slot = c;
      ta_.changed_ = true;
    }
  }

  void assign_block(const ir::BasicBlock* bb, Color c, const ir::Instruction* site) {
    Color& slot = facts_.block_color_[bb];
    if (!compatible(slot, c)) {
      report(Rule::kImplicitLeak, site,
             "block %" + bb->name() + " is control-dependent on branches of colors " +
                 slot.to_string() + " and " + c.to_string());
      return;
    }
    if (slot.is_free() && c.is_concrete()) {
      slot = c;
      ta_.changed_ = true;
    }
  }

  void check_compat(Color a, Color b, Rule rule, const ir::Instruction* site,
                    const std::string& what) {
    if (!compatible(a, b)) {
      report(rule, site, what + ": " + a.to_string() + " vs " + b.to_string());
    }
  }

  void report(Rule rule, const ir::Instruction* site, const std::string& message) {
    if (!report_) return;
    ta_.diags_.report(rule, facts_.sig().mangled(), site != nullptr ? describe(site) : "",
                      message);
  }

  [[nodiscard]] Color memory_color(const ir::Value* ptr) const {
    return ta_.memory_color(static_cast<const ir::PtrType*>(ptr->type()));
  }

  // -- Rule 4: implicit leaks (§6.1.1) -----------------------------------------

  void apply_block_rule(const ir::Instruction* inst) {
    const Color block = facts_.block_color(inst->parent());
    if (!block.is_concrete()) return;
    // `ins ← B̄` and, for value-producing instructions, `x ← B̄`.
    assign_placement(inst, block, Rule::kImplicitLeak, "instruction under a colored branch");
    if (!inst->type()->is_void()) {
      assign_value(inst, block, Rule::kImplicitLeak,
                   inst, "result observable under a colored branch");
    }
  }

  // -- Instruction dispatch ------------------------------------------------------

  void visit(ir::Instruction* inst, const ir::PostDominatorTree& pdom) {
    switch (inst->opcode()) {
      case ir::Opcode::kAlloca:
      case ir::Opcode::kHeapAlloc: {
        // The allocation produces unsafe-or-enclave memory; the allocation
        // itself executes where the memory lives.
        const Color mc = memory_color(inst);
        assign_placement(inst, mc, Rule::kAccessPlacement, "allocation of colored memory");
        break;
      }
      case ir::Opcode::kHeapFree: {
        const auto* free_inst = static_cast<const ir::HeapFreeInst*>(inst);
        const Color mc = memory_color(free_inst->pointer());
        check_compat(value(free_inst->pointer()), mc, Rule::kAccessPlacement,
                     inst, "freeing through an incompatible pointer");
        assign_placement(inst, mc, Rule::kAccessPlacement, "free of colored memory");
        break;
      }
      case ir::Opcode::kLoad:
        visit_load(static_cast<ir::LoadInst*>(inst));
        break;
      case ir::Opcode::kStore:
        visit_store(static_cast<ir::StoreInst*>(inst));
        break;
      case ir::Opcode::kGep:
        visit_gep(static_cast<ir::GepInst*>(inst));
        break;
      case ir::Opcode::kBinOp:
      case ir::Opcode::kICmp:
        visit_operation(inst);
        break;
      case ir::Opcode::kCast:
        visit_cast(static_cast<ir::CastInst*>(inst));
        break;
      case ir::Opcode::kPhi:
        visit_operation(inst);
        break;
      case ir::Opcode::kBr:
        break;
      case ir::Opcode::kCondBr:
        visit_cond_br(static_cast<ir::CondBrInst*>(inst), pdom);
        break;
      case ir::Opcode::kCall:
        visit_call(static_cast<ir::CallInst*>(inst));
        break;
      case ir::Opcode::kCallIndirect:
        visit_external_call(inst, "indirect call");
        break;
      case ir::Opcode::kRet:
        visit_ret(static_cast<ir::RetInst*>(inst));
        break;
    }
  }

  /// Rule 1: `*p ~ p̄ ∧ (*p ≠ S ⇒ r ← *p̄)`, `ins ← *p̄`.
  void visit_load(ir::LoadInst* load) {
    const Color mc = memory_color(load->pointer());
    check_compat(value(load->pointer()), mc, Rule::kAccessPlacement,
                 load, "pointer register and pointee color disagree");
    assign_placement(load, mc, Rule::kAccessPlacement, "load from colored memory");
    if (mc.is_shared()) {
      // In relaxed mode a value loaded from S becomes F — the documented
      // loss of Iago protection (§6.1.2).
      return;
    }
    if (ta_.mode() == Mode::kHardenedAuth && mc.is_untrusted() &&
        is_authenticated_pointer_type(load->type())) {
      // §8 extension: an *authenticated* pointer to enclave memory reloaded
      // from unsafe memory stays F — the runtime verifies its MAC before any
      // dereference, so this is not the Iago channel plain hardened mode
      // must forbid.
      return;
    }
    assign_value(load, mc, Rule::kIndirectLeak, load, "loaded value must keep its color");
  }

  /// True for ptr<T color(c)> with a *named* enclave color — the values the
  /// kHardenedAuth runtime MACs in memory.
  [[nodiscard]] static bool is_authenticated_pointer_type(const ir::Type* t) {
    const auto* pt = dynamic_cast<const ir::PtrType*>(t);
    return pt != nullptr && !pt->pointee_color().empty() &&
           color_from_annotation(pt->pointee_color()).is_named();
  }

  /// Rule 3: `*p ~ p̄ ∧ r̄ ~ *p̄`, `ins ← *p̄` (integrity: the store executes in
  /// the enclave of the written location).
  void visit_store(ir::StoreInst* store) {
    const Color mc = memory_color(store->pointer());
    check_compat(value(store->pointer()), mc, Rule::kAccessPlacement,
                 store, "pointer register and pointee color disagree");
    check_compat(value(store->stored_value()), mc, Rule::kDirectLeak,
                 store, "stored value would change color");
    assign_placement(store, mc, Rule::kIntegrity, "store into colored memory");
  }

  void visit_gep(ir::GepInst* gep) {
    // A colored field inside memory of a different color is a multi-color
    // structure access, possible only via the §7.2 indirection, which needs
    // relaxed mode (§8).
    if (gep->is_field_access()) {
      const auto& field =
          gep->struct_type()->fields()[static_cast<std::size_t>(gep->field_index())];
      if (!field.color.empty()) {
        const Color field_color = color_from_annotation(field.color);
        const Color base_color = memory_color(gep->base());
        if (field_color != base_color && ta_.mode() == Mode::kHardened) {
          report(Rule::kMixedStructure, gep,
                 "field '" + field.name + "' (" + field_color.to_string() +
                     ") inside " + base_color.to_string() +
                     " memory requires the indirection of relaxed mode "
                     "(or authenticated pointers: Mode::kHardenedAuth)");
        }
      }
    }
    visit_operation(gep);
  }

  /// Rule 2: `∀i, r ← x̄ᵢ`, `ins ← r̄`.
  void visit_operation(ir::Instruction* inst) {
    for (ir::Value* op : inst->operands()) {
      assign_value(inst, value(op), Rule::kIago, inst,
                   "instruction mixes inputs of different colors");
    }
    if (!inst->type()->is_void()) {
      assign_placement(inst, value(inst), Rule::kAccessPlacement,
                       "operation on colored values");
    }
  }

  void visit_cast(ir::CastInst* cast) {
    const auto* src_ptr = dynamic_cast<const ir::PtrType*>(cast->source()->type());
    const auto* dst_ptr = dynamic_cast<const ir::PtrType*>(cast->type());
    if (src_ptr != nullptr && dst_ptr != nullptr &&
        src_ptr->pointee_color() != dst_ptr->pointee_color()) {
      // §4 rule 4: a cast cannot change a pointer's color.
      report(Rule::kPointerCast, cast,
             "cast changes pointee color from '" + src_ptr->pointee_color() + "' to '" +
                 dst_ptr->pointee_color() + "'");
    }
    if (cast->cast_kind() == ir::CastKind::kIntToPtr && dst_ptr != nullptr &&
        !dst_ptr->pointee_color().empty()) {
      report(Rule::kPointerForge, cast,
             "inttoptr manufactures a pointer into enclave '" + dst_ptr->pointee_color() + "'");
    }
    visit_operation(cast);
  }

  /// Rule 4 trigger: a conditional branch on a colored register colors every
  /// block between the branch and its join point (§6.1.1).
  void visit_cond_br(ir::CondBrInst* br, const ir::PostDominatorTree& pdom) {
    const Color c = value(br->condition());
    if (!c.is_concrete()) return;
    assign_placement(br, c, Rule::kAccessPlacement, "branch on a colored condition");
    for (ir::BasicBlock* bb : pdom.controlled_region(br->parent())) {
      assign_block(bb, c, br);
    }
    // Phis at the join point select by the branch direction: their value
    // observably encodes the colored condition, so they take its color (the
    // LLVM-level equivalent of Figure 4's in-region assignment).
    if (ir::BasicBlock* join = pdom.ipdom(br->parent()); join != nullptr) {
      for (ir::PhiInst* phi : join->phis()) {
        assign_value(phi, c, Rule::kImplicitLeak, phi,
                     "phi selects by a colored branch");
        assign_placement(phi, c, Rule::kImplicitLeak, "phi selects by a colored branch");
      }
    }
  }

  void visit_ret(ir::RetInst* ret) {
    if (!ret->has_value()) return;
    const Color c = value(ret->value());
    assign_placement(ret, c, Rule::kAccessPlacement, "return of a colored value");
    Color& slot = facts_.ret_color_;
    if (!compatible(slot, c)) {
      report(Rule::kReturnConflict, ret,
             "function returns both " + slot.to_string() + " and " + c.to_string());
      return;
    }
    if (slot.is_free() && c.is_concrete()) {
      slot = c;
      ta_.changed_ = true;
    }
  }

  // -- Calls (§6.2–§6.4) ---------------------------------------------------------

  void visit_call(ir::CallInst* call) {
    ir::Function* callee = call->callee();
    if (callee->is_ignore()) {
      visit_within_call(call, /*is_ignore=*/true);
    } else if (callee->is_within()) {
      visit_within_call(call, /*is_ignore=*/false);
    } else if (callee->is_external()) {
      visit_external_call(call, "call to external @" + callee->name());
    } else {
      visit_local_call(call);
    }
  }

  /// §6.2: specialize the callee on the actual argument colors and propagate
  /// its return color. Explicit colors on the callee's formals win (and the
  /// actuals must be compatible with them).
  void visit_local_call(ir::CallInst* call) {
    ir::Function* callee = call->callee();
    SpecSig sig;
    sig.fn = callee;
    sig.args.reserve(call->args().size());
    for (std::size_t i = 0; i < call->args().size(); ++i) {
      const Color actual = value(call->args()[i]);
      const std::string& declared = callee->argument(i)->color();
      if (!declared.empty()) {
        const Color want = color_from_annotation(declared);
        check_compat(actual, want, Rule::kDirectLeak, call,
                     "argument " + std::to_string(i) + " of @" + callee->name() +
                         " is declared " + want.to_string());
        sig.args.push_back(want);
      } else {
        sig.args.push_back(actual);
      }
    }
    facts_.call_sigs_[call] = sig;
    ta_.analyze_spec(sig, report_);
    const SpecFacts* callee_facts = ta_.facts(sig);
    if (callee_facts != nullptr && !call->type()->is_void()) {
      assign_value(call, callee_facts->ret_color(), Rule::kIndirectLeak, call,
                   "call result must keep the callee's return color");
    }
  }

  /// §6.3 within / §6.4 ignore: the call executes in the enclave C of its
  /// first concretely colored argument (value color or pointee color); all
  /// other arguments — and all pointed-to memory — must be compatible with C
  /// unless the function is `ignore`, which deliberately drops that check to
  /// provide classify/declassify boundaries.
  void visit_within_call(ir::CallInst* call, bool is_ignore) {
    Color enclave = Color::free();
    for (ir::Value* arg : call->args()) {
      if (value(arg).is_concrete()) {
        enclave = value(arg);
        break;
      }
      if (arg->type()->is_ptr()) {
        const Color mc = memory_color(arg);
        if (mc.is_named()) {
          enclave = mc;
          break;
        }
      }
    }
    if (!enclave.is_concrete()) {
      // No colored argument: behaves like a plain external call.
      visit_external_call(call, "call to @" + call->callee()->name());
      return;
    }
    if (!is_ignore) {
      for (std::size_t i = 0; i < call->args().size(); ++i) {
        ir::Value* arg = call->args()[i];
        check_compat(value(arg), enclave, Rule::kWithinCall,
                     call, "within-call argument " + std::to_string(i));
        if (arg->type()->is_ptr()) {
          check_compat(memory_color(arg), enclave, Rule::kWithinCall,
                       call, "within-call pointer argument " + std::to_string(i) +
                                 " points outside the enclave");
        }
      }
    }
    assign_placement(call, enclave, Rule::kWithinCall, "within/ignore call");
    if (!call->type()->is_void()) {
      if (is_ignore) {
        // ignore declassifies: the result is F by design (§6.4).
      } else {
        assign_value(call, enclave, Rule::kIndirectLeak, call,
                     "within-call result computed inside the enclave");
      }
    }
  }

  /// §6.3: an external or indirect call belongs to the untrusted part — the
  /// U domain, in both modes (S only names unannotated memory in relaxed
  /// mode; U is the untrusted *execution* domain everywhere, cf. the U
  /// chunks of Figure 7). Arguments must be compatible with U, and no
  /// pointer to enclave memory may cross the boundary.
  void visit_external_call(ir::Instruction* call, const std::string& what) {
    const Color untrusted = Color::untrusted();
    for (ir::Value* op : call->operands()) {
      check_compat(value(op), untrusted, Rule::kExternalCall, call,
                   what + ": argument leaves the trusted world");
      if (op->type()->is_ptr()) {
        const auto* pt = static_cast<const ir::PtrType*>(op->type());
        if (ta_.memory_color(pt).is_named()) {
          report(Rule::kExternalCall, call,
                 what + ": pointer to '" + pt->pointee_color() + "' memory escapes");
        }
      }
    }
    assign_placement(call, untrusted, Rule::kExternalCall, "external call");
    if (!call->type()->is_void() && ta_.mode() == Mode::kHardened) {
      // The result was produced by the untrusted world: it is U, so no
      // enclave instruction can consume it (Iago prevention). In relaxed
      // mode it stays F — the documented weakening.
      assign_value(call, untrusted, Rule::kIago, call, "external-call result is untrusted");
    }
  }

  TypeAnalysis& ta_;
  SpecFacts& facts_;
  bool report_;
};

// ---------------------------------------------------------------------------
// TypeAnalysis driver: the stabilizing algorithm of §5.2.
// ---------------------------------------------------------------------------

SpecFacts& TypeAnalysis::get_or_create(const SpecSig& sig) {
  auto it = specs_.find(sig);
  if (it == specs_.end()) {
    it = specs_.emplace(sig, std::make_unique<SpecFacts>(sig)).first;
  }
  return *it->second;
}

void TypeAnalysis::build_entry_specs() {
  entry_specs_.clear();
  std::vector<const ir::Function*> entries;
  for (const auto& fn : module_.functions()) {
    if (!fn->is_declaration() && fn->is_entry_point()) entries.push_back(fn.get());
  }
  if (entries.empty()) {
    // Fallbacks: main if present, else every defined function is an entry
    // point (the paper's default for libraries: any extern function, §6.2).
    if (const ir::Function* main_fn = module_.function_by_name("main");
        main_fn != nullptr && !main_fn->is_declaration()) {
      entries.push_back(main_fn);
    } else {
      for (const auto& fn : module_.functions()) {
        if (!fn->is_declaration()) entries.push_back(fn.get());
      }
    }
  }
  // §6.3: a local function whose address is taken can be called indirectly
  // from the untrusted world, so it is analyzed like an entry point (the
  // partitioner later redirects loaded function pointers to its interface
  // version). The callee slot of a direct call is not an operand, so any
  // Function-valued operand is an address-take.
  std::unordered_set<const ir::Function*> address_taken;
  for (const auto& fn : module_.functions()) {
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        for (const ir::Value* op : inst->operands()) {
          if (op->value_kind() == ir::ValueKind::kFunction) {
            address_taken.insert(static_cast<const ir::Function*>(op));
          }
        }
      }
    }
  }
  for (const ir::Function* fn : address_taken) {
    const bool already = std::find(entries.begin(), entries.end(), fn) != entries.end();
    if (!fn->is_declaration() && !already) entries.push_back(fn);
  }

  for (const ir::Function* fn : entries) {
    SpecSig sig;
    sig.fn = fn;
    for (std::size_t i = 0; i < fn->arg_count(); ++i) {
      const std::string& declared = fn->argument(i)->color();
      if (!declared.empty()) {
        sig.args.push_back(color_from_annotation(declared));
      } else {
        // §6.2: entry-point arguments are U in hardened modes, F in relaxed.
        sig.args.push_back(mode_ == Mode::kRelaxed ? Color::free() : Color::untrusted());
      }
    }
    entry_specs_.push_back(std::move(sig));
  }
}

void TypeAnalysis::validate_declared_colors() {
  auto check = [&](const std::string& color, const std::string& where) {
    if (color == "F") {
      diags_.report(Rule::kReservedColor, where, "",
                    "'F' is reserved and cannot be used as an explicit color");
    }
  };
  for (const auto* st : module_.types().structs()) {
    for (const auto& field : st->fields()) {
      if (!field.color.empty()) check(field.color, "%" + st->name() + "." + field.name);
    }
  }
  for (const auto& g : module_.globals()) {
    if (!g->color().empty()) check(g->color(), "@" + g->name());
  }
  for (const auto& fn : module_.functions()) {
    for (const auto& arg : fn->arguments()) {
      if (!arg->color().empty()) check(arg->color(), "@" + fn->name() + " %" + arg->name());
    }
  }
}

void TypeAnalysis::analyze_spec(const SpecSig& sig, bool report) {
  auto vit = visited_.find(sig);
  if (vit != visited_.end()) return;  // analyzed or in progress this pass
  visited_[sig] = true;
  SpecFacts& facts = get_or_create(sig);
  SpecAnalyzer(*this, facts, report).run();
  visit_order_.push_back(&facts);
}

void TypeAnalysis::analyze_pass(bool report) {
  visited_.clear();
  visit_order_.clear();
  for (const SpecSig& sig : entry_specs_) {
    analyze_spec(sig, report);
  }
}

bool TypeAnalysis::run() {
  // §5.1: mem2reg first, so register inference covers every local whose
  // address is not taken.
  ir::promote_memory_to_registers(module_);
  graphs_.clear();

  validate_declared_colors();
  build_entry_specs();

  // Stabilize silently (colors only move F → concrete, so this terminates),
  // then run one reporting pass against the fixpoint.
  constexpr int kMaxPasses = 1000;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    changed_ = false;
    analyze_pass(/*report=*/false);
    if (!changed_) break;
  }
  analyze_pass(/*report=*/true);
  return !diags_.has_errors();
}

std::vector<const SpecFacts*> TypeAnalysis::reachable_specs() const { return visit_order_; }

ColorSet TypeAnalysis::program_colors() const {
  ColorSet colors;
  auto add = [&](const std::string& annotation) {
    if (annotation.empty()) return;
    const Color c = color_from_annotation(annotation);
    if (c.is_named()) colors.insert(c);
  };
  for (const auto* st : module_.types().structs()) {
    for (const auto& field : st->fields()) add(field.color);
  }
  for (const auto& g : module_.globals()) add(g->color());
  for (const SpecFacts* facts : visit_order_) {
    for (const Color& c : facts->color_set()) {
      if (c.is_named()) colors.insert(c);
    }
  }
  return colors;
}

}  // namespace privagic::sectype
