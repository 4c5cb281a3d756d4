// The fused execution tier's dispatch loop (ExecMode::kFused).
//
// run_fused() executes fusion.cpp's superinstruction bytecode with
// direct-threaded dispatch: on GCC/Clang each handler ends by indexing a
// labels-as-values table with the *next* op's opcode and jumping straight to
// its handler (one indirect branch per op, predicted per-handler instead of
// through one shared switch branch). CMake probes for the extension and sets
// PRIVAGIC_COMPUTED_GOTO; without it the same handler bodies compile into a
// portable switch loop — the OPCASE()/NEXT() macros are the only difference
// between the two builds, so both are continuously testable (the CI
// portable-dispatch job builds with the fallback).
//
// Observable behavior is bit-identical to run_switch over unfused code:
//  * instruction accounting: the dispatch preamble charges one instruction,
//    and each superinstruction handler charges its second component exactly
//    where the unfused pair would have (before executing it), so a fault in
//    either component leaves the tree-walker's count;
//  * flush semantics: mailbox ops flush up front, branches flush on the
//    kCountFlushBatch threshold — same sites, same pending values;
//  * error messages and fault points (region checks, bad phi edges, traps,
//    pointer auth, division) are shared with run_switch via exec_common.hpp.
#include <cstring>

#include "interp/bytecode.hpp"
#include "interp/dispatch_stats.hpp"
#include "interp/exec_common.hpp"
#include "interp/machine.hpp"

// CMake defines PRIVAGIC_COMPUTED_GOTO=0/1 after probing the compiler; a
// build that bypasses CMake falls back to the architecture of its compiler.
#ifndef PRIVAGIC_COMPUTED_GOTO
#if defined(__GNUC__) || defined(__clang__)
#define PRIVAGIC_COMPUTED_GOTO 1
#else
#define PRIVAGIC_COMPUTED_GOTO 0
#endif
#endif

namespace privagic::interp::bc {

std::int64_t BytecodeExecutor::run_fused(const DecodedFunction* f,
                                         std::span<const std::int64_t> args) {
  const std::size_t base = push_frame(f, args);
  std::vector<std::uint64_t> frame_allocas;
  return fused_loop(f, base, 0, frame_allocas);
}

std::int64_t BytecodeExecutor::fused_loop(const DecodedFunction* f, std::size_t base,
                                          std::uint32_t start_pc,
                                          std::vector<std::uint64_t>& frame_allocas) {
  // Only a kNative machine pays for hotness attribution in the dispatch
  // preamble; the false instantiation is the unchanged kFused loop.
  return native_ ? fused_loop_impl<true>(f, base, start_pc, frame_allocas)
                 : fused_loop_impl<false>(f, base, start_pc, frame_allocas);
}

template <bool kTrackHot>
std::int64_t BytecodeExecutor::fused_loop_impl(
    const DecodedFunction* f, std::size_t base, std::uint32_t start_pc,
    std::vector<std::uint64_t>& frame_allocas) {
  std::int64_t* frame = arena_.stack.data() + base;

  const DecodedOp* ops = f->ops.data();
  std::uint32_t pc = start_pc;
  std::int64_t result = 0;
  const DecodedOp* o = nullptr;
  // Local copy so the dispatch preamble never reloads the member across the
  // opaque handler calls (tally_ is fixed for the executor's lifetime).
  DispatchTally* const tally = tally_;
  // Per-chunk hotness (kNative): the sampler charges its period hits to this
  // function's score until the function is compiled — after that (including
  // deopt resumes into this loop) there is nothing left to promote. In the
  // kTrackHot=false instantiation this folds to nullptr and costs nothing.
  std::atomic<std::uint64_t>* const hot =
      kTrackHot && f->native_code.load(std::memory_order_relaxed) == nullptr
          ? &f->hot_ticks
          : nullptr;

#if PRIVAGIC_COMPUTED_GOTO
  // Must list every Op in enum order — the static_assert on kNumOps and the
  // fused test that executes each opcode keep this honest.
  static const void* const kJump[kNumOps] = {
      &&L_kTrap, &&L_kAlloca, &&L_kHeapAlloc, &&L_kHeapFree, &&L_kLoad, &&L_kStore,
      &&L_kGepField, &&L_kGepIndex, &&L_kAdd, &&L_kSub, &&L_kMul, &&L_kSDiv,
      &&L_kSRem, &&L_kAnd, &&L_kOr, &&L_kXor, &&L_kShl, &&L_kLShr, &&L_kFAdd,
      &&L_kFSub, &&L_kFMul, &&L_kFDiv, &&L_kEq, &&L_kNe, &&L_kSlt, &&L_kSle,
      &&L_kSgt, &&L_kSge, &&L_kZext, &&L_kTrunc, &&L_kCopy, &&L_kSpawn, &&L_kCont,
      &&L_kWait, &&L_kAck, &&L_kWaitAck, &&L_kCallInternal, &&L_kCallExternal,
      &&L_kCallIndirect, &&L_kBr, &&L_kCondBr, &&L_kRet, &&L_kCmpBr,
      &&L_kGepFieldLoad, &&L_kGepIndexLoad, &&L_kGepFieldStore, &&L_kGepIndexStore,
      &&L_kLoadBin, &&L_kBinStore, &&L_kBinBin, &&L_kBinBr, &&L_kBinRet,
  };
#define OPCASE(name) L_##name:
#define NEXT()                                                    \
  do {                                                            \
    o = &ops[pc];                                                 \
    ++pc;                                                         \
    ++pending_;                                                   \
    if (tally != nullptr) tally->touch(o->op, hot);               \
    goto* kJump[static_cast<std::size_t>(o->op)];                 \
  } while (0)
  NEXT();
#else
  for (;;) {
    o = &ops[pc];
    ++pc;
    ++pending_;
    if (tally != nullptr) tally->touch(o->op, hot);
    switch (o->op) {
#define OPCASE(name) case Op::name:
#define NEXT() break
#endif

      OPCASE(kTrap) {
        if (o->a == 0) --pending_;  // synthetic op, not a real instruction
        throw InterpError(f->traps[static_cast<std::size_t>(o->imm)]);
      }
      NEXT();

      OPCASE(kAlloca) {
        const std::uint64_t addr = m_.memory_->allocate(
            static_cast<std::uint64_t>(o->imm), static_cast<sgx::ColorId>(o->b));
        frame_allocas.push_back(addr);
        frame[o->dest] = static_cast<std::int64_t>(addr);
      }
      NEXT();

      OPCASE(kHeapAlloc) {
        frame[o->dest] = static_cast<std::int64_t>(m_.memory_->allocate(
            static_cast<std::uint64_t>(o->imm), static_cast<sgx::ColorId>(o->b)));
      }
      NEXT();

      OPCASE(kHeapFree) {
        m_.memory_->free(static_cast<std::uint64_t>(frame[o->a]), me_);
      }
      NEXT();

      OPCASE(kLoad) {
        std::int64_t v = mem_load(static_cast<std::uint64_t>(frame[o->a]),
                                  static_cast<std::uint64_t>(o->imm), o->sub);
        if ((o->flags & kAuthPointer) != 0 &&
            m_.pointer_auth_.load(std::memory_order_relaxed) && v != 0) {
          const auto raw = static_cast<std::uint64_t>(v);
          const std::uint64_t addr = raw & ((1ull << 48) - 1);
          if ((raw & ~((1ull << 48) - 1)) !=
              pointer_mac(addr, Machine::kPointerAuthSecret)) {
            throw sgx::AccessViolation("pointer authentication failed on load");
          }
          v = static_cast<std::int64_t>(addr);
        }
        frame[o->dest] = v;
      }
      NEXT();

      OPCASE(kStore) {
        std::int64_t v = frame[o->b];
        if ((o->flags & kAuthPointer) != 0 &&
            m_.pointer_auth_.load(std::memory_order_relaxed) && v != 0) {
          const auto addr = static_cast<std::uint64_t>(v);
          v = static_cast<std::int64_t>(addr |
                                        pointer_mac(addr, Machine::kPointerAuthSecret));
        }
        mem_store(static_cast<std::uint64_t>(frame[o->a]), v,
                  static_cast<std::uint64_t>(o->imm));
      }
      NEXT();

      OPCASE(kGepField) {
        frame[o->dest] = static_cast<std::int64_t>(static_cast<std::uint64_t>(frame[o->a]) +
                                                   static_cast<std::uint64_t>(o->imm));
      }
      NEXT();

      OPCASE(kGepIndex) {
        frame[o->dest] = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(frame[o->a]) +
            static_cast<std::uint64_t>(o->imm) * static_cast<std::uint64_t>(frame[o->b]));
      }
      NEXT();

      OPCASE(kAdd) { frame[o->dest] = wrap(frame[o->a] + frame[o->b], o->sub); }
      NEXT();

      OPCASE(kSub) { frame[o->dest] = wrap(frame[o->a] - frame[o->b], o->sub); }
      NEXT();

      OPCASE(kMul) { frame[o->dest] = wrap(frame[o->a] * frame[o->b], o->sub); }
      NEXT();

      OPCASE(kSDiv) {
        if (frame[o->b] == 0) throw InterpError("division by zero");
        frame[o->dest] = wrap(frame[o->a] / frame[o->b], o->sub);
      }
      NEXT();

      OPCASE(kSRem) {
        if (frame[o->b] == 0) throw InterpError("remainder by zero");
        frame[o->dest] = wrap(frame[o->a] % frame[o->b], o->sub);
      }
      NEXT();

      OPCASE(kAnd) { frame[o->dest] = frame[o->a] & frame[o->b]; }
      NEXT();

      OPCASE(kOr) { frame[o->dest] = frame[o->a] | frame[o->b]; }
      NEXT();

      OPCASE(kXor) { frame[o->dest] = frame[o->a] ^ frame[o->b]; }
      NEXT();

      OPCASE(kShl) {
        frame[o->dest] =
            wrap(static_cast<std::int64_t>(static_cast<std::uint64_t>(frame[o->a])
                                           << (frame[o->b] & 63)),
                 o->sub);
      }
      NEXT();

      OPCASE(kLShr) {
        std::uint64_t ua = static_cast<std::uint64_t>(frame[o->a]);
        if (o->sub != 0) ua &= (1ull << o->sub) - 1;
        frame[o->dest] = static_cast<std::int64_t>(ua >> (frame[o->b] & 63));
      }
      NEXT();

      OPCASE(kFAdd) {
        frame[o->dest] = from_double(as_double(frame[o->a]) + as_double(frame[o->b]));
      }
      NEXT();

      OPCASE(kFSub) {
        frame[o->dest] = from_double(as_double(frame[o->a]) - as_double(frame[o->b]));
      }
      NEXT();

      OPCASE(kFMul) {
        frame[o->dest] = from_double(as_double(frame[o->a]) * as_double(frame[o->b]));
      }
      NEXT();

      OPCASE(kFDiv) {
        frame[o->dest] = from_double(as_double(frame[o->a]) / as_double(frame[o->b]));
      }
      NEXT();

      OPCASE(kEq) { frame[o->dest] = frame[o->a] == frame[o->b] ? 1 : 0; }
      NEXT();

      OPCASE(kNe) { frame[o->dest] = frame[o->a] != frame[o->b] ? 1 : 0; }
      NEXT();

      OPCASE(kSlt) { frame[o->dest] = frame[o->a] < frame[o->b] ? 1 : 0; }
      NEXT();

      OPCASE(kSle) { frame[o->dest] = frame[o->a] <= frame[o->b] ? 1 : 0; }
      NEXT();

      OPCASE(kSgt) { frame[o->dest] = frame[o->a] > frame[o->b] ? 1 : 0; }
      NEXT();

      OPCASE(kSge) { frame[o->dest] = frame[o->a] >= frame[o->b] ? 1 : 0; }
      NEXT();

      OPCASE(kZext) {
        frame[o->dest] = static_cast<std::int64_t>(static_cast<std::uint64_t>(frame[o->a]) &
                                                   ((1ull << o->sub) - 1));
      }
      NEXT();

      OPCASE(kTrunc) {
        frame[o->dest] = sign_extend(static_cast<std::uint64_t>(frame[o->a]), o->sub);
      }
      NEXT();

      OPCASE(kCopy) { frame[o->dest] = frame[o->a]; }
      NEXT();

      // Mailbox ops flush the batched counter up front — see run_switch for
      // the rationale (quiescent-point agreement with the tree-walker).
      OPCASE(kSpawn) {
        charge_pending();
        const std::uint32_t* slots = f->arg_pool.data() + o->args_first;
        const std::int64_t chunk = frame[slots[0]];
        const std::int64_t color =
            (o->flags & kSpawnResolved) != 0
                ? o->imm
                : m_.program_.color_id(
                      m_.program_.chunks.at(static_cast<std::size_t>(chunk)).color);
        rt_.spawn(color, static_cast<std::uint64_t>(chunk), frame[slots[1]],
                  frame[slots[2]], frame[slots[3]]);
        // A same-color spawn runs the chunk inline on this thread; its
        // executor shares the arena, which may have reallocated.
        frame = arena_.stack.data() + base;
        if ((o->flags & kHasResult) != 0) frame[o->dest] = 0;
      }
      NEXT();

      OPCASE(kCont) {
        charge_pending();
        const std::uint32_t* slots = f->arg_pool.data() + o->args_first;
        rt_.cont(frame[slots[0]], frame[slots[1]], frame[slots[2]]);
        if ((o->flags & kHasResult) != 0) frame[o->dest] = 0;
      }
      NEXT();

      OPCASE(kWait) {
        charge_pending();
        const std::int64_t r =
            rt_.wait(static_cast<std::size_t>(me_), frame[f->arg_pool[o->args_first]]);
        if ((o->flags & kHasResult) != 0) frame[o->dest] = r;
      }
      NEXT();

      OPCASE(kAck) {
        charge_pending();
        const std::uint32_t* slots = f->arg_pool.data() + o->args_first;
        rt_.ack(frame[slots[0]], frame[slots[1]]);
        if ((o->flags & kHasResult) != 0) frame[o->dest] = 0;
      }
      NEXT();

      OPCASE(kWaitAck) {
        charge_pending();
        rt_.wait_ack(static_cast<std::size_t>(me_), frame[f->arg_pool[o->args_first]]);
        if ((o->flags & kHasResult) != 0) frame[o->dest] = 0;
      }
      NEXT();

      OPCASE(kCallInternal) {
        const std::int64_t r = call_function(f, *o, frame);
        frame = arena_.stack.data() + base;  // nested frames may have grown the arena
        if ((o->flags & kHasResult) != 0) frame[o->dest] = r;
      }
      NEXT();

      OPCASE(kCallExternal) {
        const std::uint32_t* slots = f->arg_pool.data() + o->args_first;
        std::int64_t buf[8];
        std::vector<std::int64_t> heap;
        std::int64_t* call_args = buf;
        if (o->nargs > 8) {
          heap.resize(o->nargs);
          call_args = heap.data();
        }
        for (std::uint16_t i = 0; i < o->nargs; ++i) call_args[i] = frame[slots[i]];
        const std::int64_t r =
            m_.call_external(rt_, static_cast<const ir::Function*>(o->target),
                             std::span<const std::int64_t>(call_args, o->nargs), me_);
        // The host callback may have re-entered the machine on this thread.
        frame = arena_.stack.data() + base;
        if ((o->flags & kHasResult) != 0) frame[o->dest] = r;
      }
      NEXT();

      OPCASE(kCallIndirect) {
        const std::int64_t r = call_indirect(f, *o, frame);
        frame = arena_.stack.data() + base;
        if ((o->flags & kHasResult) != 0) frame[o->dest] = r;
      }
      NEXT();

      OPCASE(kBr) {
        if ((o->flags & kBadEdge0) != 0) throw InterpError(f->traps[o->phi0]);
        apply_phi_copies(f, o->phi0, o->nphi0, frame);
        pc = o->t0;
        if (pending_ >= kCountFlushBatch) flush_counter();
      }
      NEXT();

      OPCASE(kCondBr) {
        if ((frame[o->a] & 1) != 0) {
          if ((o->flags & kBadEdge0) != 0) throw InterpError(f->traps[o->phi0]);
          apply_phi_copies(f, o->phi0, o->nphi0, frame);
          pc = o->t0;
        } else {
          if ((o->flags & kBadEdge1) != 0) throw InterpError(f->traps[o->phi1]);
          apply_phi_copies(f, o->phi1, o->nphi1, frame);
          pc = o->t1;
        }
        if (pending_ >= kCountFlushBatch) flush_counter();
      }
      NEXT();

      OPCASE(kRet) {
        result = (o->flags & kHasResult) != 0 ? frame[o->a] : 0;
        // Stack allocations die on normal return only; an unwinding frame
        // leaks them exactly like the tree-walker.
        for (const std::uint64_t addr : frame_allocas) {
          m_.memory_->free(addr, m_.memory_->color_of(addr));
        }
        arena_.sp = base;
        return result;
      }

      // -- superinstructions ------------------------------------------------
      // The preamble charged the first component; each handler charges the
      // second exactly where the unfused pair would (before executing it),
      // so faults leave the tree-walker's instruction count.

      OPCASE(kCmpBr) {
        const bool taken =
            eval_cmp(static_cast<Op>(o->sub2), frame[o->a], frame[o->b]);
        ++pending_;  // the branch component
        if (taken) {
          if ((o->flags & kBadEdge0) != 0) throw InterpError(f->traps[o->phi0]);
          apply_phi_copies(f, o->phi0, o->nphi0, frame);
          pc = o->t0;
        } else {
          if ((o->flags & kBadEdge1) != 0) throw InterpError(f->traps[o->phi1]);
          apply_phi_copies(f, o->phi1, o->nphi1, frame);
          pc = o->t1;
        }
        if (pending_ >= kCountFlushBatch) flush_counter();
      }
      NEXT();

      OPCASE(kGepFieldLoad) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(frame[o->a]) + static_cast<std::uint64_t>(o->imm);
        ++pending_;  // the load component
        frame[o->dest] = mem_load(addr, o->sub2, o->sub);
      }
      NEXT();

      OPCASE(kGepIndexLoad) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(frame[o->a]) +
            static_cast<std::uint64_t>(o->imm) * static_cast<std::uint64_t>(frame[o->b]);
        ++pending_;  // the load component
        frame[o->dest] = mem_load(addr, o->sub2, o->sub);
      }
      NEXT();

      OPCASE(kGepFieldStore) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(frame[o->a]) + static_cast<std::uint64_t>(o->imm);
        ++pending_;  // the store component
        mem_store(addr, frame[o->b], o->sub2);
      }
      NEXT();

      OPCASE(kGepIndexStore) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(frame[o->a]) +
            static_cast<std::uint64_t>(o->imm) * static_cast<std::uint64_t>(frame[o->b]);
        ++pending_;  // the store component
        mem_store(addr, frame[o->dest], o->sub2);
      }
      NEXT();

      OPCASE(kLoadBin) {
        const std::int64_t t = mem_load(static_cast<std::uint64_t>(frame[o->a]),
                                        static_cast<std::uint64_t>(o->imm), o->sub);
        ++pending_;  // the binop component
        const std::int64_t other = frame[o->b];
        frame[o->dest] = (o->flags & kFusedSwap) != 0
                             ? eval_bin(static_cast<Op>(o->sub2), other, t,
                                        static_cast<unsigned>(o->aux))
                             : eval_bin(static_cast<Op>(o->sub2), t, other,
                                        static_cast<unsigned>(o->aux));
      }
      NEXT();

      OPCASE(kBinStore) {
        const std::int64_t t =
            eval_bin(static_cast<Op>(o->aux), frame[o->a], frame[o->b], o->sub);
        ++pending_;  // the store component
        mem_store(static_cast<std::uint64_t>(frame[o->dest]), t, o->sub2);
      }
      NEXT();

      OPCASE(kBinBin) {
        const std::int64_t t =
            eval_bin(static_cast<Op>(o->sub2), frame[o->a], frame[o->b], o->sub);
        ++pending_;  // the second binop component
        const std::int64_t other = frame[static_cast<std::size_t>(o->imm)];
        const Op kind2 = static_cast<Op>(o->aux & 0xFF);
        const auto bits2 = static_cast<unsigned>(o->aux >> 8);
        frame[o->dest] = (o->flags & kFusedSwap) != 0 ? eval_bin(kind2, other, t, bits2)
                                                      : eval_bin(kind2, t, other, bits2);
      }
      NEXT();

      OPCASE(kBinBr) {
        // The value stays materialized: the phi copies (and any later block)
        // read it from the frame.
        frame[o->dest] =
            eval_bin(static_cast<Op>(o->sub2), frame[o->a], frame[o->b], o->sub);
        ++pending_;  // the branch component (fusion excludes bad edges)
        apply_phi_copies(f, o->phi0, o->nphi0, frame);
        pc = o->t0;
        if (pending_ >= kCountFlushBatch) flush_counter();
      }
      NEXT();

      OPCASE(kBinRet) {
        result = eval_bin(static_cast<Op>(o->sub2), frame[o->a], frame[o->b], o->sub);
        ++pending_;  // the return component
        for (const std::uint64_t addr : frame_allocas) {
          m_.memory_->free(addr, m_.memory_->color_of(addr));
        }
        arena_.sp = base;
        return result;
      }

#if !PRIVAGIC_COMPUTED_GOTO
    }
  }
#endif
#undef OPCASE
#undef NEXT
}

}  // namespace privagic::interp::bc
