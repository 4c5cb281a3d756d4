#include "partition/plan.hpp"

#include <algorithm>

#include "ir/dominators.hpp"
#include "ir/use_def.hpp"

namespace privagic::partition {

namespace {

// Folding moved to plan.hpp (fold_color / fold_colors) so src/analysis can
// predict chunk sets with the planner's exact rule; keep the short local
// aliases the planner body reads naturally.
Color fold(Color c) { return fold_color(c); }
ColorSet fold(const ColorSet& set) { return fold_colors(set); }

/// True if this call leaves the module: external, within, ignore, indirect.
bool is_local_call(const ir::Instruction* inst) {
  if (inst->opcode() != ir::Opcode::kCall) return false;
  const auto* call = static_cast<const ir::CallInst*>(inst);
  const ir::Function* callee = call->callee();
  return !callee->is_external() && !callee->is_within() && !callee->is_ignore();
}

}  // namespace

Color PartitionPlanner::placement_chunk(const SpecFacts& facts,
                                        const ir::Instruction* inst) const {
  return fold(facts.placement(inst));
}

ColorSet PartitionPlanner::chunk_colors(const SpecSig& sig) const {
  auto it = chunk_colors_.find(sig);
  return it != chunk_colors_.end() ? it->second : ColorSet{};
}

void PartitionPlanner::compute_chunk_colors() {
  const auto specs = analysis_.reachable_specs();

  // Pass 1: base chunk colors = folded color sets.
  for (const SpecFacts* facts : specs) {
    chunk_colors_[facts->sig()] = fold(facts->color_set());
  }

  // Pass 2: replicability. A specialization with an empty color set touches
  // no colored memory and calls nothing external (those would place
  // instructions in U); it is replicable iff all its direct callees are
  // replicable too — replicating a call to an effectful callee would run the
  // effect once per chunk.
  std::map<SpecSig, bool>& replicable = replicable_;
  replicable.clear();
  for (const SpecFacts* facts : specs) {
    replicable[facts->sig()] = chunk_colors_[facts->sig()].empty();
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const SpecFacts* facts : specs) {
      if (!replicable[facts->sig()]) continue;
      for (const auto& fn_bb : facts->sig().fn->blocks()) {
        for (const auto& inst : fn_bb->instructions()) {
          if (!is_local_call(inst.get())) continue;
          const SpecSig* callee =
              facts->call_sig(static_cast<const ir::CallInst*>(inst.get()));
          if (callee != nullptr && !replicable[*callee]) {
            replicable[facts->sig()] = false;
            changed = true;
          }
        }
      }
    }
  }

  // Pass 3: replicable specializations take the chunk colors of their call
  // sites ("Privagic replicates the computation of a F register in each
  // enclave", §5.3); everything else that is still empty becomes a plain U
  // function.
  changed = true;
  while (changed) {
    changed = false;
    for (const SpecFacts* facts : specs) {
      for (const auto& fn_bb : facts->sig().fn->blocks()) {
        for (const auto& inst : fn_bb->instructions()) {
          if (!is_local_call(inst.get())) continue;
          const auto* call = static_cast<const ir::CallInst*>(inst.get());
          const SpecSig* callee = facts->call_sig(call);
          if (callee == nullptr || !replicable[*callee]) continue;
          const Color call_place = placement_chunk(*facts, call);
          ColorSet sites;
          if (call_place.is_concrete()) {
            sites.insert(call_place);
          } else {
            sites = chunk_colors_[facts->sig()];
          }
          ColorSet& target = chunk_colors_[*callee];
          for (const Color& c : sites) {
            if (target.insert(c).second) changed = true;
          }
        }
      }
    }
  }
  for (auto& [sig, colors] : chunk_colors_) {
    if (colors.empty()) colors.insert(Color::untrusted());
  }
}

void PartitionPlanner::plan_call(SpecPlan& plan, const ir::CallInst* call) {
  const SpecFacts& facts = *plan.facts;
  const SpecSig* callee_sig = facts.call_sig(call);
  if (callee_sig == nullptr) return;  // external/within/ignore: no lowering

  CallLowering low;
  low.callee_sig = *callee_sig;
  low.callee_chunks = chunk_colors_.at(*callee_sig);

  // The chunks in which this call site appears.
  const Color call_place = placement_chunk(facts, call);
  ColorSet site_chunks;
  if (call_place.is_concrete()) {
    site_chunks.insert(call_place);
  } else {
    site_chunks = plan.chunk_colors;
  }

  // A replicable callee (§5.3) is pure F code cloned into every color that
  // uses it: each caller chunk calls its local copy directly and nothing is
  // ever spawned — restrict the callee's chunk set to this site's chunks.
  auto rit = replicable_.find(*callee_sig);
  if (rit != replicable_.end() && rit->second) {
    low.callee_chunks = site_chunks;
  }

  ColorSet shared;
  std::set_intersection(site_chunks.begin(), site_chunks.end(), low.callee_chunks.begin(),
                        low.callee_chunks.end(), std::inserter(shared, shared.begin()));
  low.leader = !shared.empty() ? *shared.begin() : *site_chunks.begin();
  for (const Color& k : low.callee_chunks) {
    if (!site_chunks.contains(k)) low.spawned.push_back(k);
  }

  const sectype::TypeAnalysis& ta = analysis_;
  const SpecFacts* callee_facts = ta.facts(*callee_sig);
  const Color ret = callee_facts != nullptr ? callee_facts->ret_color() : Color::free();
  low.result_is_free = ret.is_free() && !call->type()->is_void();
  low.remote_result_provider = Color::free();

  // Arguments to remotely spawned chunks travel in cont messages — an error
  // in hardened modes (§7.3.2; kHardenedAuth authenticates pointers in
  // memory, not cont payloads, so the rule stands there too). A spawned
  // chunk k needs the formals whose specialization color is F or k itself.
  if (analysis_.mode() != sectype::Mode::kRelaxed) {
    for (const Color& k : low.spawned) {
      const bool needs_params =
          std::any_of(callee_sig->args.begin(), callee_sig->args.end(),
                      [&](const Color& c) { return c.is_free() || c == k; });
      if (needs_params) {
        diags_.report(sectype::Rule::kFreeArgument, facts.sig().mangled(),
                      "call @" + callee_sig->fn->name(),
                      "argument for remotely spawned chunk '" + k.to_string() +
                          "' would cross an enclave boundary in a cont message "
                          "(hardened mode prohibits this, §7.3.2)");
      }
    }
  }

  if (low.result_is_free) {
    // Which caller chunks outside the callee's set consume the result?
    const ir::UsersMap users = ir::compute_users(*facts.sig().fn);
    ColorSet consumers;
    auto uit = users.find(call);
    if (uit != users.end()) {
      for (const ir::Instruction* user : uit->second) {
        const Color p = placement_chunk(facts, user);
        if (p.is_concrete()) {
          consumers.insert(p);
        } else {
          for (const Color& c : site_chunks) consumers.insert(c);
        }
      }
    }
    for (const Color& c : consumers) {
      if (!low.callee_chunks.contains(c) && c != low.leader) {
        low.result_consumers.push_back(c);
      }
    }
    if (shared.empty() && (consumers.contains(low.leader) || !low.result_consumers.empty())) {
      // The leader itself never calls the callee directly; the lowest callee
      // chunk's trampoline sends the result back.
      low.remote_result_provider = *low.callee_chunks.begin();
    }
    const bool result_crosses =
        !low.result_consumers.empty() || low.remote_result_provider.is_concrete();
    if (result_crosses && analysis_.mode() != sectype::Mode::kRelaxed) {
      diags_.report(sectype::Rule::kFreeArgument, facts.sig().mangled(),
                    "call @" + callee_sig->fn->name(),
                    "F result would cross an enclave boundary in a cont message "
                    "(hardened mode prohibits this, §7.3.2)");
    }
  }

  plan.calls[call] = std::move(low);
}

void PartitionPlanner::plan_spec(SpecPlan& plan) {
  const SpecFacts& facts = *plan.facts;
  const ir::Function* fn = facts.sig().fn;
  const auto& [rpo, pdom] = analysis_.graphs(*fn);

  for (ir::BasicBlock* bb : rpo) {
    for (const auto& inst : bb->instructions()) {
      // Foreign-region skipping: a branch placed in color pc makes its
      // controlled region invisible to every other chunk.
      if (inst->opcode() == ir::Opcode::kCondBr) {
        const Color pc = placement_chunk(facts, inst.get());
        if (pc.is_concrete()) {
          const auto region = pdom.controlled_region(bb);
          for (const Color& c : plan.chunk_colors) {
            if (c == pc) continue;
            for (const ir::BasicBlock* rb : region) plan.skipped_blocks[c].insert(rb);
          }
        }
      }
      // Call lowering.
      if (is_local_call(inst.get())) {
        plan_call(plan, static_cast<const ir::CallInst*>(inst.get()));
      }
      // Visible effects (§7.3.3): stores to S and calls that leave the
      // module for the untrusted world.
      const bool external_call =
          (inst->opcode() == ir::Opcode::kCall &&
           static_cast<const ir::CallInst*>(inst.get())->callee()->is_external() &&
           !static_cast<const ir::CallInst*>(inst.get())->callee()->is_within() &&
           !static_cast<const ir::CallInst*>(inst.get())->callee()->is_ignore()) ||
          inst->opcode() == ir::Opcode::kCallIndirect;
      const bool shared_store =
          inst->opcode() == ir::Opcode::kStore &&
          analysis_
              .memory_color(static_cast<const ir::PtrType*>(
                  static_cast<const ir::StoreInst*>(inst.get())->pointer()->type()))
              .is_shared();
      if (external_call || shared_store) {
        plan.visible_effects.push_back(inst.get());
      }
      // Result relays: an instruction pinned to one chunk whose F result is
      // consumed in others. Arises for external/ignore call results (the
      // §6.4 declassification path), loads from S (§8's indirection-pointer
      // loads), and allocations of enclave memory whose address is linked
      // into unsafe structures (§7.2). Local direct calls distribute their
      // results through the call protocol instead.
      const bool relay_candidate = !is_local_call(inst.get()) && !inst->is_terminator();
      if (relay_candidate && !inst->type()->is_void() &&
          facts.value_color(inst.get()).is_free()) {
        const Color from = placement_chunk(facts, inst.get());
        if (from.is_concrete()) {
          const ir::UsersMap users = ir::compute_users(*fn);
          ColorSet consumers;
          auto uit = users.find(inst.get());
          if (uit != users.end()) {
            for (const ir::Instruction* user : uit->second) {
              const Color p = placement_chunk(facts, user);
              if (p.is_concrete()) {
                consumers.insert(p);
              } else {
                for (const Color& c : plan.chunk_colors) consumers.insert(c);
              }
            }
          }
          ResultRelay relay;
          relay.from = from;
          for (const Color& c : consumers) {
            if (c != from) relay.to.push_back(c);
          }
          if (!relay.to.empty()) plan.relays[inst.get()] = std::move(relay);
        }
      }
    }
  }
}

bool PartitionPlanner::plan() {
  compute_chunk_colors();

  // Entry-point sanity: results returned to the untrusted caller must not be
  // enclave-colored — declassify first (the paper's memcached get() does
  // exactly this, §9.2).
  for (const SpecSig& entry : analysis_.entry_specs()) {
    const SpecFacts* facts = analysis_.facts(entry);
    if (facts != nullptr && facts->ret_color().is_named()) {
      diags_.report(sectype::Rule::kExternalCall, entry.mangled(), "",
                    "entry point returns a '" + facts->ret_color().to_string() +
                        "' value to the untrusted caller — declassify it first");
    }
    if (analysis_.mode() != sectype::Mode::kRelaxed) {
      for (const Color& c : entry.args) {
        if (c.is_named()) {
          diags_.report(sectype::Rule::kFreeArgument, entry.mangled(), "",
                        "hardened mode cannot deliver an enclave-colored entry "
                        "argument through the untrusted interface");
        }
      }
    }
  }

  for (const SpecFacts* facts : analysis_.reachable_specs()) {
    SpecPlan plan;
    plan.facts = facts;
    plan.chunk_colors = chunk_colors_.at(facts->sig());
    plan_spec(plan);
    plans_.emplace(facts->sig(), std::move(plan));
  }
  return !diags_.has_errors();
}

}  // namespace privagic::partition
