// The C++ halves of the native tier (jit.hpp): run_native — the shell that
// enters compiled code and handles its three exit kinds — and the
// NativeHelpers thunks compiled fragments call back into for every op that
// touches simulated memory or the runtime.
//
// The thunks run the executor's own code (mem_load / mem_store / the fused
// handler bodies), so SimMemory bounds, color and EPC checks, pointer auth,
// trace hooks and the message protocol behave identically to run_fused. No
// exception ever crosses an emitted frame: guarded() captures it into the
// NativeCtx (status 2), the native code returns by plain ret, and run_native
// rethrows — the unwind then runs the same path as a throwing run_fused.
#include <exception>
#include <type_traits>

#include "interp/exec_common.hpp"
#include "interp/jit.hpp"
#include "interp/machine.hpp"
#include "obs/hooks.hpp"

namespace privagic::interp::bc {

namespace {

/// Runs @p body, capturing any exception into the NativeCtx fault slot.
/// Returns a zero value on fault (the emitted code checks ctx->status before
/// using the result).
template <typename Fn>
auto guarded(NativeCtx* ctx, Fn&& body) {
  using R = std::invoke_result_t<Fn&>;
  try {
    return body();
  } catch (...) {
    *static_cast<std::exception_ptr*>(ctx->fault) = std::current_exception();
    ctx->status = 2;
    if constexpr (!std::is_void_v<R>) return R{};
  }
}

}  // namespace

std::int64_t NativeHelpers::load(NativeCtx* ctx, std::uint64_t addr,
                                 std::uint64_t size, std::uint64_t sx_bits) {
  return guarded(ctx, [&] {
    return ctx->exec->mem_load(addr, size, static_cast<unsigned>(sx_bits));
  });
}

void NativeHelpers::store(NativeCtx* ctx, std::uint64_t addr, std::int64_t value,
                          std::uint64_t size) {
  guarded(ctx, [&] { ctx->exec->mem_store(addr, value, size); });
}

void NativeHelpers::phi(NativeCtx* ctx, std::uint64_t first, std::uint64_t count) {
  // Cannot fault and touches neither the counter nor the arena.
  apply_phi_copies(ctx->f, static_cast<std::uint32_t>(first),
                   static_cast<std::uint16_t>(count), ctx->frame);
}

void NativeHelpers::flush(NativeCtx* ctx) {
  BytecodeExecutor* ex = ctx->exec;
  ex->pending_ = ctx->pending;
  guarded(ctx, [&] { ex->flush_counter(); });
  ctx->pending = ex->pending_;
}

void NativeHelpers::big_op(NativeCtx* ctx, std::uint64_t pc) {
  BytecodeExecutor* ex = ctx->exec;
  const DecodedFunction* f = ctx->f;
  const DecodedOp* o = &f->ops[pc];
  // Hand the batched count to the executor: the handler bodies below flush
  // and accumulate through pending_ exactly as the fused loop's do (and a
  // nested call — which may itself enter native code — picks it up there).
  ex->pending_ = ctx->pending;
  guarded(ctx, [&] {
    Machine& m = ex->m_;
    std::int64_t* frame = ex->arena_.stack.data() + ctx->base;
    switch (o->op) {
      case Op::kAlloca: {
        const std::uint64_t addr = m.memory_->allocate(
            static_cast<std::uint64_t>(o->imm), static_cast<sgx::ColorId>(o->b));
        ctx->allocas->push_back(addr);
        frame[o->dest] = static_cast<std::int64_t>(addr);
        break;
      }
      case Op::kHeapAlloc:
        frame[o->dest] = static_cast<std::int64_t>(m.memory_->allocate(
            static_cast<std::uint64_t>(o->imm), static_cast<sgx::ColorId>(o->b)));
        break;
      case Op::kHeapFree:
        m.memory_->free(static_cast<std::uint64_t>(frame[o->a]), ex->me_);
        break;
      // Mailbox ops flush the batched counter up front — the same
      // quiescent-point agreement run_switch and run_fused keep.
      case Op::kSpawn: {
        ex->charge_pending();
        const std::uint32_t* slots = f->arg_pool.data() + o->args_first;
        const std::int64_t chunk = frame[slots[0]];
        const std::int64_t color =
            (o->flags & kSpawnResolved) != 0
                ? o->imm
                : m.program_.color_id(
                      m.program_.chunks.at(static_cast<std::size_t>(chunk)).color);
        ex->rt_.spawn(color, static_cast<std::uint64_t>(chunk), frame[slots[1]],
                      frame[slots[2]], frame[slots[3]]);
        // A same-color spawn runs the chunk inline on this thread; its
        // executor shares the arena, which may have reallocated.
        frame = ex->arena_.stack.data() + ctx->base;
        if ((o->flags & kHasResult) != 0) frame[o->dest] = 0;
        break;
      }
      case Op::kCont: {
        ex->charge_pending();
        const std::uint32_t* slots = f->arg_pool.data() + o->args_first;
        ex->rt_.cont(frame[slots[0]], frame[slots[1]], frame[slots[2]]);
        if ((o->flags & kHasResult) != 0) frame[o->dest] = 0;
        break;
      }
      case Op::kWait: {
        ex->charge_pending();
        const std::int64_t r = ex->rt_.wait(static_cast<std::size_t>(ex->me_),
                                            frame[f->arg_pool[o->args_first]]);
        if ((o->flags & kHasResult) != 0) frame[o->dest] = r;
        break;
      }
      case Op::kAck: {
        ex->charge_pending();
        const std::uint32_t* slots = f->arg_pool.data() + o->args_first;
        ex->rt_.ack(frame[slots[0]], frame[slots[1]]);
        if ((o->flags & kHasResult) != 0) frame[o->dest] = 0;
        break;
      }
      case Op::kWaitAck: {
        ex->charge_pending();
        ex->rt_.wait_ack(static_cast<std::size_t>(ex->me_),
                         frame[f->arg_pool[o->args_first]]);
        if ((o->flags & kHasResult) != 0) frame[o->dest] = 0;
        break;
      }
      case Op::kCallInternal: {
        const std::int64_t r = ex->call_function(f, *o, frame);
        frame = ex->arena_.stack.data() + ctx->base;  // nested frames grow the arena
        if ((o->flags & kHasResult) != 0) frame[o->dest] = r;
        break;
      }
      case Op::kCallExternal: {
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
            m.call_external(ex->rt_, static_cast<const ir::Function*>(o->target),
                            std::span<const std::int64_t>(call_args, o->nargs),
                            ex->me_);
        // The host callback may have re-entered the machine on this thread.
        frame = ex->arena_.stack.data() + ctx->base;
        if ((o->flags & kHasResult) != 0) frame[o->dest] = r;
        break;
      }
      case Op::kCallIndirect: {
        const std::int64_t r = ex->call_indirect(f, *o, frame);
        frame = ex->arena_.stack.data() + ctx->base;
        if ((o->flags & kHasResult) != 0) frame[o->dest] = r;
        break;
      }
      default:
        // The emitter routes only the ops above here.
        throw InterpError("native big_op on unexpected opcode");
    }
  });
  ctx->pending = ex->pending_;
  ctx->frame = ex->arena_.stack.data() + ctx->base;
}

std::int64_t BytecodeExecutor::run_native(const DecodedFunction* f, const NativeCode* nc,
                                          std::span<const std::int64_t> args) {
  const std::size_t base = push_frame(f, args);
  std::vector<std::uint64_t> frame_allocas;
  std::exception_ptr fault;
  NativeCtx ctx;
  ctx.exec = this;
  ctx.f = f;
  ctx.frame = arena_.stack.data() + base;
  ctx.pending = pending_;
  ctx.base = base;
  ctx.allocas = &frame_allocas;
  ctx.fault = &fault;
  const std::int64_t result = nc->entry(&ctx);
  // The native frame is gone (plain ret) on every exit kind; pick the batched
  // count back up so normal flushes — and the dtor's unwind flush — see
  // exactly what run_fused would have.
  pending_ = ctx.pending;
  if (ctx.status == 2) std::rethrow_exception(fault);
  if (ctx.status == 1) {
    // Deopt: resume the fused interpreter mid-call on the same frame, with
    // the same pending count and live allocas. The bailing op was not counted
    // natively; the loop preamble charges it on resume.
    m_.jit_->note_deopt();
    obs::on_jit_deopt();
    return fused_loop(f, base, ctx.deopt_pc, frame_allocas);
  }
  // Normal return: stack allocations die with the frame, like run_fused's
  // kRet handler (an unwinding frame leaks them exactly like the tree-walker).
  for (const std::uint64_t addr : frame_allocas) {
    m_.memory_->free(addr, m_.memory_->color_of(addr));
  }
  arena_.sp = base;
  return result;
}

}  // namespace privagic::interp::bc
