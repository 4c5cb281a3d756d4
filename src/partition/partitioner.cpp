#include "partition/partitioner.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "ir/builder.hpp"
#include "ir/dominators.hpp"
#include "ir/passes.hpp"
#include "partition/intrinsics.hpp"

namespace privagic::partition {

namespace {

using sectype::Mode;

Color fold(Color c) { return c.is_shared() ? Color::untrusted() : c; }

/// Internal error during rewriting; converted to a Result at the boundary.
class RewriteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------------------
// Module-level cloning: types, globals, declarations, intrinsics.
// ---------------------------------------------------------------------------

class ModuleCloner {
 public:
  ModuleCloner(const ir::Module& in, ir::Module& out) : in_(in), out_(out) {
    clone_structs();
    clone_globals();
    clone_declarations();
    declare_intrinsics();
  }

  const ir::Type* type(const ir::Type* t) {
    switch (t->kind()) {
      case ir::TypeKind::kVoid:
        return out_.types().void_type();
      case ir::TypeKind::kFloat:
        return out_.types().f64();
      case ir::TypeKind::kInt:
        return out_.types().int_type(static_cast<const ir::IntType*>(t)->bits());
      case ir::TypeKind::kPtr: {
        const auto* pt = static_cast<const ir::PtrType*>(t);
        return out_.types().ptr(type(pt->pointee()), pt->pointee_color());
      }
      case ir::TypeKind::kArray: {
        const auto* at = static_cast<const ir::ArrayType*>(t);
        return out_.types().array(type(at->element()), at->count());
      }
      case ir::TypeKind::kStruct:
        return out_.types().struct_by_name(static_cast<const ir::StructType*>(t)->name());
      case ir::TypeKind::kFunc: {
        const auto* ft = static_cast<const ir::FuncType*>(t);
        std::vector<const ir::Type*> params;
        params.reserve(ft->params().size());
        for (const ir::Type* p : ft->params()) params.push_back(type(p));
        return out_.types().func(type(ft->ret()), std::move(params));
      }
    }
    throw RewriteError("unknown type kind");
  }

  ir::GlobalVariable* global(const ir::GlobalVariable* g) {
    return out_.global_by_name(g->name());
  }

  /// The cloned declaration for an external/within/ignore function.
  ir::Function* declaration(const ir::Function* fn) {
    ir::Function* out_fn = out_.function_by_name(fn->name());
    if (out_fn == nullptr) throw RewriteError("missing declaration @" + fn->name());
    return out_fn;
  }

  ir::Function* intrinsic(std::string_view name) { return out_.function_by_name(name); }

 private:
  void clone_structs() {
    // Shells first, fields second: struct fields may point to each other.
    for (const ir::StructType* st : in_.types().structs()) {
      out_.types().create_struct(st->name(), {});
    }
    for (const ir::StructType* st : in_.types().structs()) {
      std::vector<ir::StructField> fields;
      fields.reserve(st->fields().size());
      for (const ir::StructField& f : st->fields()) {
        fields.push_back({f.name, type(f.type), f.color});
      }
      out_.types().struct_by_name(st->name())->set_fields(std::move(fields));
    }
  }

  void clone_globals() {
    for (const auto& g : in_.globals()) {
      out_.create_global(type(g->contained_type()), g->name(), g->int_init(), g->color());
    }
  }

  void clone_declarations() {
    for (const auto& fn : in_.functions()) {
      if (!fn->is_external() && !fn->is_within() && !fn->is_ignore()) continue;
      auto* ft = static_cast<const ir::FuncType*>(type(fn->function_type()));
      ir::Function* decl = out_.create_function(ft, fn->name());
      for (const auto& arg : fn->arguments()) {
        decl->add_argument(arg->name())->set_color(arg->color());
      }
      decl->set_within(fn->is_within());
      decl->set_ignore(fn->is_ignore());
    }
  }

  void declare_intrinsics() {
    auto& t = out_.types();
    const ir::IntType* i64 = t.i64();
    auto declare = [&](std::string_view name, const ir::Type* ret,
                       std::vector<const ir::Type*> params) {
      ir::Function* f =
          out_.create_function(t.func(ret, std::move(params)), std::string(name));
      for (std::size_t i = 0; i < f->function_type()->params().size(); ++i) {
        f->add_argument("a" + std::to_string(i));
      }
      // The runtime provides these inside every enclave, like the paper's
      // mini-libc (§6.3).
      f->set_within(true);
    };
    declare(kIntrinsicSpawn, t.void_type(), {i64, i64, i64, i64});
    declare(kIntrinsicCont, t.void_type(), {i64, i64, i64});
    declare(kIntrinsicWait, i64, {i64});
    declare(kIntrinsicAck, t.void_type(), {i64, i64});
    declare(kIntrinsicWaitAck, t.void_type(), {i64});
  }

  const ir::Module& in_;
  ir::Module& out_;
};

// ---------------------------------------------------------------------------
// The rewriter proper.
// ---------------------------------------------------------------------------

class Rewriter {
 public:
  explicit Rewriter(PartitionPlanner& planner)
      : planner_(planner),
        analysis_(planner.analysis()),
        in_(analysis_.module()),
        result_(std::make_unique<PartitionResult>()) {
    result_->module = std::make_unique<ir::Module>(in_.name() + ".partitioned");
    cloner_ = std::make_unique<ModuleCloner>(in_, *result_->module);
  }

  std::unique_ptr<PartitionResult> run() {
    build_color_table();
    create_chunk_shells();
    create_interface_shells();
    allocate_tags();
    for (const auto& [sig, plan] : planner_.plans()) {
      for (const Color& c : plan.chunk_colors) emit_chunk_body(plan, c);
    }
    emit_trampolines();
    emit_interface_bodies();
    ir::run_cleanup(*result_->module);
    collect_metrics();
    return std::move(result_);
  }

 private:
  // -- Setup -------------------------------------------------------------------

  void build_color_table() {
    result_->color_table.push_back(Color::untrusted());
    for (const Color& c : analysis_.program_colors()) result_->color_table.push_back(c);
  }

  [[nodiscard]] std::int64_t color_id(const Color& c) const {
    const std::int64_t id = result_->color_id(fold(c));
    if (id < 0) throw RewriteError("color not in table: " + c.to_string());
    return id;
  }

  /// Chunk function name: "f$blue.F$blue".
  static std::string chunk_name(const SpecSig& sig, const Color& c) {
    return sig.mangled() + "$" + c.to_string();
  }

  void create_chunk_shells() {
    for (const auto& [sig, plan] : planner_.plans()) {
      const Color ret_color = fold(plan.facts->ret_color());
      for (const Color& c : plan.chunk_colors) {
        // Parameters: formals whose specialization color is c or F.
        std::vector<const ir::Type*> params;
        for (std::size_t i = 0; i < sig.args.size(); ++i) {
          if (param_in_chunk(sig, i, c)) {
            params.push_back(cloner_->type(sig.fn->argument(i)->type()));
          }
        }
        // Return type: the original type if the return value is F (computed
        // in every chunk) or belongs to this chunk; void otherwise.
        const ir::Type* ret =
            (ret_color.is_free() || ret_color == c)
                ? cloner_->type(sig.fn->return_type())
                : result_->module->types().void_type();
        ir::Function* fn = result_->module->create_function(
            result_->module->types().func(ret, std::move(params)), chunk_name(sig, c));
        for (std::size_t i = 0; i < sig.args.size(); ++i) {
          if (param_in_chunk(sig, i, c)) fn->add_argument(sig.fn->argument(i)->name());
        }
        ChunkInfo info;
        info.origin_spec = sig.mangled();
        info.color = c;
        info.fn = fn;
        info.id = result_->chunks.size();
        chunk_index_[{sig.mangled(), c}] = result_->chunks.size();
        result_->chunks.push_back(info);
      }
    }
    // Chunks that can be started remotely need trampolines: anything in a
    // call plan's `spawned` list, plus every non-U chunk of an entry spec.
    for (const auto& [sig, plan] : planner_.plans()) {
      for (const auto& [site, low] : plan.calls) {
        (void)site;
        for (const Color& k : low.spawned) {
          needs_trampoline_.insert(chunk_id(low.callee_sig, k));
        }
      }
    }
    for (const SpecSig& entry : analysis_.entry_specs()) {
      for (const Color& c : planner_.chunk_colors(entry)) {
        if (c != Color::untrusted()) needs_trampoline_.insert(chunk_id(entry, c));
      }
    }
  }

  static bool param_in_chunk(const SpecSig& sig, std::size_t i, const Color& c) {
    const Color a = fold(sig.args[i]);
    return a.is_free() || a == c;
  }

  [[nodiscard]] std::uint64_t chunk_id(const SpecSig& sig, const Color& c) const {
    auto it = chunk_index_.find({sig.mangled(), c});
    if (it == chunk_index_.end()) {
      throw RewriteError("no chunk for " + sig.mangled() + "$" + c.to_string());
    }
    return it->second;
  }

  void allocate_tags() {
    std::int64_t next = 0;
    for (const auto& [sig, plan] : planner_.plans()) {
      (void)sig;
      for (const auto& [site, low] : plan.calls) {
        (void)low;
        call_tags_[site] = next;
        next += kTagStride;
      }
      for (const ir::Instruction* v : plan.visible_effects) {
        barrier_tags_[v] = next;
        next += kTagStride;
      }
      for (const auto& [inst, relay] : plan.relays) {
        (void)relay;
        relay_tags_[inst] = next;
        next += kTagStride;
      }
    }
    next_free_tag_ = next;
  }

  struct EmitCtx {
    const SpecPlan* plan = nullptr;
    Color color;
    ir::Function* chunk = nullptr;
    std::unordered_map<const ir::Value*, ir::Value*> vmap;
    std::unordered_map<const ir::BasicBlock*, ir::BasicBlock*> bmap;
    std::vector<std::pair<const ir::PhiInst*, ir::PhiInst*>> phis;
    const std::unordered_set<const ir::BasicBlock*>* skipped = nullptr;
  };

  /// Cross-chunk relay of an F call result (plan.relays): the producing
  /// chunk conts it; consuming chunks wait. Returns the received value when
  /// this chunk is a consumer, nullptr otherwise.
  ir::Value* receive_relay(EmitCtx& ctx, ir::IRBuilder& b, const ir::Instruction* inst) {
    auto it = ctx.plan->relays.find(inst);
    if (it == ctx.plan->relays.end()) return nullptr;
    const ResultRelay& relay = it->second;
    if (std::find(relay.to.begin(), relay.to.end(), ctx.color) == relay.to.end()) {
      return nullptr;
    }
    ir::Value* v64 = b.call(cloner_->intrinsic(kIntrinsicWait),
                            {result_->module->const_i64(relay_tags_.at(inst))}, "");
    return from_i64(b, v64, cloner_->type(inst->type()));
  }

  void send_relay(EmitCtx& ctx, ir::IRBuilder& b, const ir::Instruction* inst,
                  ir::Value* result) {
    auto it = ctx.plan->relays.find(inst);
    if (it == ctx.plan->relays.end()) return;
    const ResultRelay& relay = it->second;
    if (ctx.color != relay.from) return;
    for (const Color& target : relay.to) {
      b.call(cloner_->intrinsic(kIntrinsicCont),
             {result_->module->const_i64(color_id(target)),
              result_->module->const_i64(relay_tags_.at(inst)), to_i64(b, result)},
             "");
    }
  }

  // -- Payload casts --------------------------------------------------------------

  ir::Value* to_i64(ir::IRBuilder& b, ir::Value* v) {
    auto& t = result_->module->types();
    if (v->type() == t.i64()) return v;
    if (v->type()->is_int()) return b.cast(ir::CastKind::kZext, t.i64(), v, "");
    if (v->type()->is_float()) return b.cast(ir::CastKind::kBitcast, t.i64(), v, "");
    if (v->type()->is_ptr()) return b.cast(ir::CastKind::kPtrToInt, t.i64(), v, "");
    throw RewriteError("cannot send value of type " + v->type()->to_string());
  }

  ir::Value* from_i64(ir::IRBuilder& b, ir::Value* v64, const ir::Type* want) {
    auto& t = result_->module->types();
    if (want == t.i64()) return v64;
    if (want->is_int()) return b.cast(ir::CastKind::kTrunc, want, v64, "");
    if (want->is_float()) return b.cast(ir::CastKind::kBitcast, want, v64, "");
    if (want->is_ptr()) return b.cast(ir::CastKind::kIntToPtr, want, v64, "");
    throw RewriteError("cannot receive value of type " + want->to_string());
  }

  // -- Chunk body emission ---------------------------------------------------------

  ir::Value* map_operand(EmitCtx& ctx, ir::Value* v) {
    switch (v->value_kind()) {
      case ir::ValueKind::kConstInt: {
        const auto* ci = static_cast<const ir::ConstInt*>(v);
        return result_->module->const_int(
            static_cast<const ir::IntType*>(cloner_->type(ci->type())), ci->value());
      }
      case ir::ValueKind::kConstFloat:
        return result_->module->const_f64(static_cast<const ir::ConstFloat*>(v)->value());
      case ir::ValueKind::kConstNull:
        return result_->module->const_null(
            static_cast<const ir::PtrType*>(cloner_->type(v->type())));
      case ir::ValueKind::kGlobal:
        return cloner_->global(static_cast<const ir::GlobalVariable*>(v));
      case ir::ValueKind::kFunction: {
        // §7.3.4: a loaded function pointer refers to the interface version.
        const auto* fn = static_cast<const ir::Function*>(v);
        if (fn->is_external() || fn->is_within() || fn->is_ignore()) {
          return cloner_->declaration(fn);
        }
        auto it = result_->interfaces.find(fn->name());
        if (it == result_->interfaces.end()) {
          throw RewriteError("address of @" + fn->name() + " taken but no interface exists");
        }
        return it->second;
      }
      case ir::ValueKind::kArgument:
      case ir::ValueKind::kInstruction: {
        auto it = ctx.vmap.find(v);
        if (it == ctx.vmap.end()) {
          throw RewriteError("value %" + v->name() + " not available in chunk " +
                             ctx.chunk->name());
        }
        return it->second;
      }
    }
    throw RewriteError("bad operand kind");
  }

  void emit_chunk_body(const SpecPlan& plan, const Color& c) {
    static const std::unordered_set<const ir::BasicBlock*> kNoSkips;
    EmitCtx ctx;
    ctx.plan = &plan;
    ctx.color = c;
    ctx.chunk = result_->chunks[chunk_id(plan.facts->sig(), c)].fn;
    auto skip_it = plan.skipped_blocks.find(c);
    ctx.skipped = skip_it != plan.skipped_blocks.end() ? &skip_it->second : &kNoSkips;

    const SpecSig& sig = plan.facts->sig();
    std::size_t next_param = 0;
    for (std::size_t i = 0; i < sig.args.size(); ++i) {
      if (param_in_chunk(sig, i, c)) {
        ctx.vmap[sig.fn->argument(i)] = ctx.chunk->argument(next_param++);
      }
    }

    // Blocks (original order, skipping foreign regions).
    for (const auto& bb : sig.fn->blocks()) {
      if (ctx.skipped->contains(bb.get())) continue;
      ctx.bmap[bb.get()] = ctx.chunk->create_block(bb->name());
    }

    const ir::PostDominatorTree& pdom = analysis_.graphs(*sig.fn).pdom;
    ir::IRBuilder b(*result_->module);
    for (const auto& bb : sig.fn->blocks()) {
      if (ctx.skipped->contains(bb.get())) continue;
      b.set_insertion_point(ctx.bmap.at(bb.get()));
      for (const auto& inst : bb->instructions()) {
        emit_instruction(ctx, b, inst.get(), pdom);
      }
    }

    // Phi incomings (second pass: values may be defined later).
    for (auto& [old_phi, new_phi] : ctx.phis) {
      for (std::size_t i = 0; i < old_phi->incoming_count(); ++i) {
        const ir::BasicBlock* from = old_phi->incoming_block(i);
        if (ctx.skipped->contains(from)) continue;
        new_phi->add_incoming(map_operand(ctx, old_phi->incoming_value(i)),
                              ctx.bmap.at(from));
      }
    }
  }

  void emit_instruction(EmitCtx& ctx, ir::IRBuilder& b, ir::Instruction* inst,
                        const ir::PostDominatorTree& pdom) {
    const SpecFacts& facts = *ctx.plan->facts;
    const Color p = fold(facts.placement(inst));
    const bool mine = p.is_free() || p == ctx.color;

    // Synchronization barrier (§7.3.3) at a visible effect: every chunk that
    // reaches this program point tokens the executing chunk, which collects
    // the tokens before performing the effect.
    auto barrier_it = barrier_tags_.find(inst);
    if (barrier_it != barrier_tags_.end()) {
      const Color vc = fold(facts.placement(inst));
      std::size_t participants = 0;
      for (const Color& other : ctx.plan->chunk_colors) {
        auto skip_it = ctx.plan->skipped_blocks.find(other);
        const bool reaches = skip_it == ctx.plan->skipped_blocks.end() ||
                             !skip_it->second.contains(inst->parent());
        if (reaches) ++participants;
      }
      if (ctx.color == vc) {
        for (std::size_t i = 1; i < participants; ++i) {
          b.call(cloner_->intrinsic(kIntrinsicWaitAck),
                 {result_->module->const_i64(barrier_it->second)}, "");
        }
        // fall through and execute the effect below
      } else {
        b.call(cloner_->intrinsic(kIntrinsicAck),
               {result_->module->const_i64(color_id(vc)),
                result_->module->const_i64(barrier_it->second)},
               "");
        return;  // the effect itself belongs to vc
      }
    }

    switch (inst->opcode()) {
      case ir::Opcode::kRet: {
        const auto* ret = static_cast<const ir::RetInst*>(inst);
        if (ret->has_value() && !ctx.chunk->return_type()->is_void()) {
          b.ret(map_operand(ctx, ret->value()));
        } else {
          b.ret_void();
        }
        return;
      }
      case ir::Opcode::kBr: {
        const auto* br = static_cast<const ir::BrInst*>(inst);
        auto it = ctx.bmap.find(br->target());
        if (it == ctx.bmap.end()) {
          throw RewriteError("branch into a foreign region in " + ctx.chunk->name());
        }
        b.br(it->second);
        return;
      }
      case ir::Opcode::kCondBr: {
        const auto* cb = static_cast<const ir::CondBrInst*>(inst);
        if (mine) {
          b.cond_br(map_operand(ctx, cb->condition()), ctx.bmap.at(cb->then_block()),
                    ctx.bmap.at(cb->else_block()));
        } else {
          // Foreign-colored branch: this chunk has no work in the region;
          // jump straight to the join point.
          ir::BasicBlock* join = pdom.ipdom(inst->parent());
          if (join == nullptr) {
            throw RewriteError("foreign-colored branch without a join point in " +
                               ctx.chunk->name());
          }
          b.br(ctx.bmap.at(join));
        }
        return;
      }
      case ir::Opcode::kCall: {
        const auto* call = static_cast<const ir::CallInst*>(inst);
        auto low_it = ctx.plan->calls.find(call);
        if (low_it != ctx.plan->calls.end()) {
          emit_lowered_call(ctx, b, call, low_it->second);
        } else if (mine) {
          // external / within / ignore call
          std::vector<ir::Value*> args;
          args.reserve(call->args().size());
          for (ir::Value* a : call->args()) args.push_back(map_operand(ctx, a));
          ir::Value* r =
              b.call(cloner_->declaration(call->callee()), std::move(args), inst->name());
          if (!inst->type()->is_void()) ctx.vmap[inst] = r;
          send_relay(ctx, b, inst, r);
        } else if (ir::Value* r = receive_relay(ctx, b, inst); r != nullptr) {
          ctx.vmap[inst] = r;
        }
        return;
      }
      case ir::Opcode::kCallIndirect: {
        const auto* call = static_cast<const ir::CallIndirectInst*>(inst);
        if (!mine) {
          if (ir::Value* r = receive_relay(ctx, b, inst); r != nullptr) ctx.vmap[inst] = r;
          return;
        }
        std::vector<ir::Value*> args;
        for (std::size_t i = 0; i < call->arg_count(); ++i) {
          args.push_back(map_operand(ctx, call->arg(i)));
        }
        ir::Value* r = b.call_indirect(map_operand(ctx, call->function_pointer()),
                                       std::move(args), inst->name());
        if (!inst->type()->is_void()) ctx.vmap[inst] = r;
        send_relay(ctx, b, inst, r);
        return;
      }
      default:
        break;
    }

    if (!mine) {
      // Not this chunk's instruction — but its F result may be relayed here.
      if (ir::Value* r = receive_relay(ctx, b, inst); r != nullptr) ctx.vmap[inst] = r;
      return;
    }

    // Plain instruction: clone with mapped operands.
    switch (inst->opcode()) {
      case ir::Opcode::kAlloca: {
        const auto* a = static_cast<const ir::AllocaInst*>(inst);
        ctx.vmap[inst] = b.alloca_inst(cloner_->type(a->contained_type()), inst->name(),
                                       a->color());
        break;
      }
      case ir::Opcode::kHeapAlloc: {
        const auto* a = static_cast<const ir::HeapAllocInst*>(inst);
        ctx.vmap[inst] =
            b.heap_alloc(cloner_->type(a->contained_type()), inst->name(), a->color());
        break;
      }
      case ir::Opcode::kHeapFree:
        b.heap_free(map_operand(ctx, static_cast<const ir::HeapFreeInst*>(inst)->pointer()));
        break;
      case ir::Opcode::kLoad:
        ctx.vmap[inst] = b.load(
            map_operand(ctx, static_cast<const ir::LoadInst*>(inst)->pointer()), inst->name());
        break;
      case ir::Opcode::kStore: {
        const auto* s = static_cast<const ir::StoreInst*>(inst);
        b.store(map_operand(ctx, s->stored_value()), map_operand(ctx, s->pointer()));
        break;
      }
      case ir::Opcode::kGep: {
        const auto* g = static_cast<const ir::GepInst*>(inst);
        if (g->is_field_access()) {
          ctx.vmap[inst] =
              b.gep_field(map_operand(ctx, g->base()), g->field_index(), inst->name());
        } else {
          ctx.vmap[inst] = b.gep_index(map_operand(ctx, g->base()),
                                       map_operand(ctx, g->index()), inst->name());
        }
        break;
      }
      case ir::Opcode::kBinOp: {
        const auto* op = static_cast<const ir::BinOpInst*>(inst);
        ctx.vmap[inst] = b.binop(op->op(), map_operand(ctx, op->lhs()),
                                 map_operand(ctx, op->rhs()), inst->name());
        break;
      }
      case ir::Opcode::kICmp: {
        const auto* op = static_cast<const ir::ICmpInst*>(inst);
        ctx.vmap[inst] = b.icmp(op->pred(), map_operand(ctx, op->lhs()),
                                map_operand(ctx, op->rhs()), inst->name());
        break;
      }
      case ir::Opcode::kCast: {
        const auto* op = static_cast<const ir::CastInst*>(inst);
        ctx.vmap[inst] = b.cast(op->cast_kind(), cloner_->type(op->type()),
                                map_operand(ctx, op->source()), inst->name());
        break;
      }
      case ir::Opcode::kPhi: {
        auto* phi = b.phi(cloner_->type(inst->type()), inst->name());
        ctx.vmap[inst] = phi;
        ctx.phis.emplace_back(static_cast<const ir::PhiInst*>(inst), phi);
        break;
      }
      default:
        throw RewriteError("unhandled opcode in rewriter");
    }

    if (ctx.plan->relays.contains(inst)) {
      auto vit = ctx.vmap.find(inst);
      if (vit == ctx.vmap.end()) {
        throw RewriteError("relay source has no value in " + ctx.chunk->name());
      }
      send_relay(ctx, b, inst, vit->second);
    }
  }

  /// §7.3.2: the full call protocol from the perspective of chunk ctx.color.
  void emit_lowered_call(EmitCtx& ctx, ir::IRBuilder& b, const ir::CallInst* call,
                         const CallLowering& low) {
    const SpecFacts& facts = *ctx.plan->facts;
    // Which chunks does this call site appear in?
    const Color site_place = fold(facts.placement(call));
    if (site_place.is_concrete() && site_place != ctx.color) return;

    ir::Module& out = *result_->module;
    const std::int64_t tags = call_tags_.at(call);
    const SpecSig& callee = low.callee_sig;
    const bool is_leader = ctx.color == low.leader;
    const bool direct = low.callee_chunks.contains(ctx.color);
    ir::Value* result = nullptr;

    if (is_leader) {
      // 1. Start the missing callee chunks.
      for (const Color& k : low.spawned) {
        const std::int64_t flags = (low.remote_result_provider == k) ? kFlagSendResult : 0;
        b.call(cloner_->intrinsic(kIntrinsicSpawn),
               {out.const_i64(static_cast<std::int64_t>(chunk_id(callee, k))),
                out.const_i64(tags), out.const_i64(color_id(low.leader)),
                out.const_i64(flags)},
               "");
      }
      // 2. Send their arguments (relaxed mode; hardened was rejected at
      //    planning time).
      for (const Color& k : low.spawned) {
        for (std::size_t i = 0; i < callee.args.size(); ++i) {
          if (!param_in_chunk(callee, i, k)) continue;
          ir::Value* payload = to_i64(b, map_operand(ctx, call->args()[i]));
          b.call(cloner_->intrinsic(kIntrinsicCont),
                 {out.const_i64(color_id(k)), out.const_i64(tags + static_cast<std::int64_t>(i)),
                  payload},
                 "");
        }
      }
    }

    // 3. Direct call into the same-color callee chunk.
    if (direct) {
      ir::Function* callee_chunk = result_->chunks[chunk_id(callee, ctx.color)].fn;
      std::vector<ir::Value*> args;
      for (std::size_t i = 0; i < callee.args.size(); ++i) {
        if (param_in_chunk(callee, i, ctx.color)) {
          args.push_back(map_operand(ctx, call->args()[i]));
        }
      }
      ir::Value* r = b.call(callee_chunk, std::move(args), call->name());
      if (!callee_chunk->return_type()->is_void()) result = r;
    }

    if (is_leader) {
      // 4. Receive the F result from a remote provider, if any.
      if (low.remote_result_provider.is_concrete()) {
        ir::Value* v64 = b.call(cloner_->intrinsic(kIntrinsicWait),
                                {out.const_i64(tags + kTagResultToLeader)}, "");
        result = from_i64(b, v64, cloner_->type(call->type()));
      }
      // 5. Join the spawned chunks.
      for (std::size_t i = 0; i < low.spawned.size(); ++i) {
        b.call(cloner_->intrinsic(kIntrinsicWaitAck),
               {out.const_i64(tags + kTagCompletion)}, "");
      }
      // 6. Forward the F result to sibling consumers.
      for (const Color& consumer : low.result_consumers) {
        b.call(cloner_->intrinsic(kIntrinsicCont),
               {out.const_i64(color_id(consumer)),
                out.const_i64(tags + kTagResultToSibling), to_i64(b, result)},
               "");
      }
    } else if (std::find(low.result_consumers.begin(), low.result_consumers.end(),
                         ctx.color) != low.result_consumers.end()) {
      ir::Value* v64 = b.call(cloner_->intrinsic(kIntrinsicWait),
                              {out.const_i64(tags + kTagResultToSibling)}, "");
      result = from_i64(b, v64, cloner_->type(call->type()));
    }

    if (result != nullptr) ctx.vmap[call] = result;
  }

  // -- Trampolines (§7.3.2) ---------------------------------------------------------

  void emit_trampolines() {
    ir::Module& out = *result_->module;
    for (std::uint64_t id : needs_trampoline_) {
      ChunkInfo& info = result_->chunks[id];
      ir::Function* chunk = info.fn;
      const ir::IntType* i64 = out.types().i64();
      ir::Function* tramp = out.create_function(
          out.types().func(out.types().void_type(), {i64, i64, i64}),
          chunk->name() + "$tramp");
      ir::Argument* tags = tramp->add_argument("tags");
      ir::Argument* leader = tramp->add_argument("leader");
      ir::Argument* flags = tramp->add_argument("flags");

      ir::IRBuilder b(out);
      ir::BasicBlock* entry = tramp->create_block("entry");
      b.set_insertion_point(entry);

      // Receive every chunk parameter (tag = original formal index). We need
      // the original formal indices, recoverable from the origin spec plan.
      const SpecPlan* plan = find_plan(info.origin_spec);
      const SpecSig& sig = plan->facts->sig();
      std::vector<ir::Value*> args;
      for (std::size_t i = 0; i < sig.args.size(); ++i) {
        if (!param_in_chunk(sig, i, info.color)) continue;
        ir::Value* tag =
            b.add(tags, out.const_i64(static_cast<std::int64_t>(i)), "");
        ir::Value* v64 = b.call(cloner_->intrinsic(kIntrinsicWait), {tag}, "");
        args.push_back(from_i64(b, v64, chunk->argument(args.size())->type()));
      }
      ir::Value* r = b.call(chunk, std::move(args), "");

      if (!chunk->return_type()->is_void()) {
        // if (flags & kFlagSendResult) cont(leader, tags+100, result)
        ir::Value* bit = b.binop(ir::BinOpKind::kAnd, flags,
                                 out.const_i64(kFlagSendResult), "");
        ir::Value* want = b.icmp(ir::ICmpPred::kNe, bit, out.const_i64(0), "");
        ir::BasicBlock* send = tramp->create_block("send");
        ir::BasicBlock* done = tramp->create_block("done");
        b.cond_br(want, send, done);
        b.set_insertion_point(send);
        ir::Value* rtag = b.add(tags, out.const_i64(kTagResultToLeader), "");
        b.call(cloner_->intrinsic(kIntrinsicCont), {leader, rtag, to_i64(b, r)}, "");
        b.br(done);
        b.set_insertion_point(done);
      }
      ir::Value* acktag = b.add(tags, out.const_i64(kTagCompletion), "");
      b.call(cloner_->intrinsic(kIntrinsicAck), {leader, acktag}, "");
      b.ret_void();

      info.trampoline = tramp;
    }
  }

  [[nodiscard]] const SpecPlan* find_plan(const std::string& mangled) const {
    if (plan_by_name_.empty()) {
      for (const auto& [sig, plan] : planner_.plans()) {
        plan_by_name_.emplace(sig.mangled(), &plan);
      }
    }
    auto it = plan_by_name_.find(mangled);
    if (it == plan_by_name_.end()) throw RewriteError("no plan for " + mangled);
    return it->second;
  }

  // -- Interfaces (§7.3.4) -------------------------------------------------------------

  void create_interface_shells() {
    ir::Module& out = *result_->module;
    for (const SpecSig& entry : analysis_.entry_specs()) {
      // Original signature, original name.
      auto* ft = static_cast<const ir::FuncType*>(cloner_->type(entry.fn->function_type()));
      ir::Function* iface = out.create_function(ft, entry.fn->name());
      for (const auto& arg : entry.fn->arguments()) iface->add_argument(arg->name());
      iface->set_entry_point(true);
      result_->interfaces[entry.fn->name()] = iface;
    }
  }

  void emit_interface_bodies() {
    ir::Module& out = *result_->module;
    for (const SpecSig& entry : analysis_.entry_specs()) {
      const ColorSet chunks = planner_.chunk_colors(entry);
      const SpecFacts* facts = analysis_.facts(entry);
      const Color ret_color = fold(facts->ret_color());
      const std::int64_t tags = next_free_tag_;
      next_free_tag_ += kTagStride;

      ir::Function* iface = result_->interfaces.at(entry.fn->name());

      ir::IRBuilder b(out);
      b.set_insertion_point(iface->create_block("entry"));

      const bool has_u = chunks.contains(Color::untrusted());
      std::vector<Color> spawned;
      for (const Color& c : chunks) {
        if (c != Color::untrusted()) spawned.push_back(c);
      }
      const bool want_result = !entry.fn->return_type()->is_void();
      Color provider = Color::free();
      if (!has_u && want_result && (ret_color.is_free() || ret_color.is_untrusted())) {
        provider = *chunks.begin();
      }

      for (const Color& k : spawned) {
        const std::int64_t flags = (provider == k) ? kFlagSendResult : 0;
        b.call(cloner_->intrinsic(kIntrinsicSpawn),
               {out.const_i64(static_cast<std::int64_t>(chunk_id(entry, k))),
                out.const_i64(tags), out.const_i64(color_id(Color::untrusted())),
                out.const_i64(flags)},
               "");
      }
      for (const Color& k : spawned) {
        for (std::size_t i = 0; i < entry.args.size(); ++i) {
          if (!param_in_chunk(entry, i, k)) continue;
          b.call(cloner_->intrinsic(kIntrinsicCont),
                 {out.const_i64(color_id(k)), out.const_i64(tags + static_cast<std::int64_t>(i)),
                  to_i64(b, iface->argument(i))},
                 "");
        }
      }
      ir::Value* result = nullptr;
      if (has_u) {
        ir::Function* u_chunk = result_->chunks[chunk_id(entry, Color::untrusted())].fn;
        std::vector<ir::Value*> args;
        for (std::size_t i = 0; i < entry.args.size(); ++i) {
          if (param_in_chunk(entry, i, Color::untrusted())) {
            args.push_back(iface->argument(i));
          }
        }
        ir::Value* r = b.call(u_chunk, std::move(args), "");
        if (!u_chunk->return_type()->is_void()) result = r;
      }
      if (provider.is_concrete()) {
        ir::Value* v64 = b.call(cloner_->intrinsic(kIntrinsicWait),
                                {out.const_i64(tags + kTagResultToLeader)}, "");
        result = from_i64(b, v64, iface->return_type());
      }
      for (std::size_t i = 0; i < spawned.size(); ++i) {
        b.call(cloner_->intrinsic(kIntrinsicWaitAck), {out.const_i64(tags + kTagCompletion)},
               "");
      }
      if (want_result && result != nullptr) {
        b.ret(result);
      } else {
        b.ret_void();
      }
    }
  }

  // -- Metrics (Table 4) -----------------------------------------------------------

  void collect_metrics() {
    for (const ChunkInfo& info : result_->chunks) {
      result_->instructions_per_color[info.color] += info.fn->instruction_count();
      if (info.trampoline != nullptr) {
        result_->instructions_per_color[info.color] += info.trampoline->instruction_count();
      }
    }
    for (const auto& [name, fn] : result_->interfaces) {
      (void)name;
      result_->instructions_per_color[Color::untrusted()] += fn->instruction_count();
    }
    for (const auto& g : result_->module->globals()) {
      const Color c = g->color().empty() ? Color::untrusted()
                                         : fold(sectype::color_from_annotation(g->color()));
      result_->globals_by_color[c].push_back(g->name());
    }
  }

  struct ChunkKeyHash {
    std::size_t operator()(const std::pair<std::string, Color>& k) const {
      return std::hash<std::string>()(k.first) ^ (std::hash<Color>()(k.second) << 1);
    }
  };

  PartitionPlanner& planner_;
  sectype::TypeAnalysis& analysis_;
  const ir::Module& in_;
  std::unique_ptr<PartitionResult> result_;
  std::unique_ptr<ModuleCloner> cloner_;
  std::unordered_map<std::pair<std::string, Color>, std::uint64_t, ChunkKeyHash> chunk_index_;
  std::unordered_set<std::uint64_t> needs_trampoline_;
  std::unordered_map<const ir::CallInst*, std::int64_t> call_tags_;
  std::unordered_map<const ir::Instruction*, std::int64_t> barrier_tags_;
  std::unordered_map<const ir::Instruction*, std::int64_t> relay_tags_;
  mutable std::unordered_map<std::string, const SpecPlan*> plan_by_name_;
  std::int64_t next_free_tag_ = 0;
};

}  // namespace

Result<std::unique_ptr<PartitionResult>> Partitioner::run() {
  try {
    Rewriter rewriter(planner_);
    return rewriter.run();
  } catch (const RewriteError& e) {
    return Result<std::unique_ptr<PartitionResult>>::error(e.what());
  }
}

Result<std::unique_ptr<PartitionResult>> partition_module(sectype::TypeAnalysis& analysis) {
  if (analysis.diagnostics().has_errors()) {
    return Result<std::unique_ptr<PartitionResult>>::error(
        "type analysis rejected the module:\n" + analysis.diagnostics().to_string());
  }
  PartitionPlanner planner(analysis);
  if (!planner.plan()) {
    return Result<std::unique_ptr<PartitionResult>>::error(
        "partition planning rejected the module:\n" + planner.diagnostics().to_string());
  }
  Partitioner partitioner(planner);
  return partitioner.run();
}

}  // namespace privagic::partition
