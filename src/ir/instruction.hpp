// PIR instructions.
//
// The instruction set is the subset of LLVM that Privagic's analysis and
// partitioner consume: memory (alloca/heap_alloc/load/store/gep), arithmetic
// and comparison, control flow (br/cond_br/phi/ret), calls (direct, indirect,
// and the runtime intrinsics the partitioner emits), and casts. An
// Instruction IS its output register (SSA), so `Instruction : Value`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/value.hpp"

namespace privagic::ir {

class BasicBlock;
class Function;

enum class Opcode : std::uint8_t {
  kAlloca,
  kHeapAlloc,  // typed heap allocation (models a malloc site, §7.2)
  kHeapFree,
  kLoad,
  kStore,
  kGep,      // pointer to a struct field or array element
  kBinOp,
  kICmp,
  kCast,
  kPhi,
  kBr,
  kCondBr,
  kCall,          // direct call, callee known at compile time
  kCallIndirect,  // call through a function pointer (§6.3)
  kRet,
};

enum class BinOpKind : std::uint8_t {
  kAdd, kSub, kMul, kSDiv, kSRem, kAnd, kOr, kXor, kShl, kLShr,
  kFAdd, kFSub, kFMul, kFDiv,
};

enum class ICmpPred : std::uint8_t { kEq, kNe, kSlt, kSle, kSgt, kSge };

enum class CastKind : std::uint8_t { kBitcast, kZext, kSext, kTrunc, kPtrToInt, kIntToPtr };

/// Base instruction. Operands are non-owning Value*.
class Instruction : public Value {
 public:
  [[nodiscard]] Opcode opcode() const { return opcode_; }
  [[nodiscard]] const std::vector<Value*>& operands() const { return operands_; }
  [[nodiscard]] Value* operand(std::size_t i) const { return operands_[i]; }
  [[nodiscard]] std::size_t operand_count() const { return operands_.size(); }

  using Value::set_name;

  /// Replaces operand @p i (used by mem2reg renaming and the partitioner).
  void set_operand(std::size_t i, Value* v) { operands_[i] = v; }

  /// Changes the result type in place. For the struct-splitting pass only
  /// (§7.2), which retypes allocation sites and field accesses wholesale.
  void mutate_type(const Type* t) { set_type(t); }

  [[nodiscard]] BasicBlock* parent() const { return parent_; }
  void set_parent(BasicBlock* bb) { parent_ = bb; }

  [[nodiscard]] bool is_terminator() const {
    return opcode_ == Opcode::kBr || opcode_ == Opcode::kCondBr || opcode_ == Opcode::kRet;
  }

  /// True if removing this instruction can change observable behaviour even
  /// when its result is unused (stores, calls, control flow, frees).
  [[nodiscard]] bool has_side_effects() const {
    switch (opcode_) {
      case Opcode::kStore:
      case Opcode::kCall:
      case Opcode::kCallIndirect:
      case Opcode::kHeapFree:
      case Opcode::kBr:
      case Opcode::kCondBr:
      case Opcode::kRet:
        return true;
      default:
        return false;
    }
  }

 protected:
  Instruction(Opcode op, const Type* type, std::string name, std::vector<Value*> operands)
      : Value(ValueKind::kInstruction, type, std::move(name)),
        opcode_(op),
        operands_(std::move(operands)) {}

  void append_operand(Value* v) { operands_.push_back(v); }
  void remove_operand(std::size_t i) {
    operands_.erase(operands_.begin() + static_cast<std::ptrdiff_t>(i));
  }

 private:
  Opcode opcode_;
  std::vector<Value*> operands_;
  BasicBlock* parent_ = nullptr;
};

/// `%p = alloca T [color(c)]` — stack slot; result type is ptr<T>.
class AllocaInst final : public Instruction {
 public:
  AllocaInst(const PtrType* result, const Type* contained, std::string name)
      : Instruction(Opcode::kAlloca, result, std::move(name), {}), contained_(contained) {}
  [[nodiscard]] const Type* contained_type() const { return contained_; }
  [[nodiscard]] const std::string& color() const { return color_; }
  void set_color(std::string c) { color_ = std::move(c); }

 private:
  const Type* contained_;
  std::string color_;
};

/// `%p = heap_alloc T [color(c)]` — a typed malloc site (§7.2 rewrites these).
class HeapAllocInst final : public Instruction {
 public:
  HeapAllocInst(const PtrType* result, const Type* contained, std::string name)
      : Instruction(Opcode::kHeapAlloc, result, std::move(name), {}), contained_(contained) {}
  [[nodiscard]] const Type* contained_type() const { return contained_; }
  [[nodiscard]] const std::string& color() const { return color_; }
  void set_color(std::string c) { color_ = std::move(c); }

 private:
  const Type* contained_;
  std::string color_;
};

/// `heap_free %p`
class HeapFreeInst final : public Instruction {
 public:
  HeapFreeInst(const VoidType* void_type, Value* ptr, std::string name)
      : Instruction(Opcode::kHeapFree, void_type, std::move(name), {ptr}) {}
  [[nodiscard]] Value* pointer() const { return operand(0); }
};

/// `%r = load T, ptr %p`
class LoadInst final : public Instruction {
 public:
  LoadInst(const Type* result, Value* ptr, std::string name)
      : Instruction(Opcode::kLoad, result, std::move(name), {ptr}) {}
  [[nodiscard]] Value* pointer() const { return operand(0); }
};

/// `store T %v, ptr %p`
class StoreInst final : public Instruction {
 public:
  StoreInst(const VoidType* void_type, Value* value, Value* ptr, std::string name)
      : Instruction(Opcode::kStore, void_type, std::move(name), {value, ptr}) {}
  [[nodiscard]] Value* stored_value() const { return operand(0); }
  [[nodiscard]] Value* pointer() const { return operand(1); }
};

/// `%f = gep %p, field <i>` (struct field) or `%e = gep %p, index %i` (array).
/// Result is a pointer to the field/element.
class GepInst final : public Instruction {
 public:
  /// Struct-field form.
  GepInst(const PtrType* result, Value* base, int field_index, std::string name)
      : Instruction(Opcode::kGep, result, std::move(name), {base}), field_index_(field_index) {}
  /// Array-index form.
  GepInst(const PtrType* result, Value* base, Value* index, std::string name)
      : Instruction(Opcode::kGep, result, std::move(name), {base, index}), field_index_(-1) {}

  [[nodiscard]] Value* base() const { return operand(0); }
  [[nodiscard]] bool is_field_access() const { return field_index_ >= 0; }
  [[nodiscard]] int field_index() const { return field_index_; }
  [[nodiscard]] Value* index() const { return is_field_access() ? nullptr : operand(1); }

  /// The struct type accessed, for field form (nullptr otherwise).
  [[nodiscard]] const StructType* struct_type() const {
    if (!is_field_access()) return nullptr;
    const auto* pt = static_cast<const PtrType*>(base()->type());
    return static_cast<const StructType*>(pt->pointee());
  }

 private:
  int field_index_;
};

/// `%r = add T %a, %b` and friends.
class BinOpInst final : public Instruction {
 public:
  BinOpInst(BinOpKind op, const Type* type, Value* lhs, Value* rhs, std::string name)
      : Instruction(Opcode::kBinOp, type, std::move(name), {lhs, rhs}), op_(op) {}
  [[nodiscard]] BinOpKind op() const { return op_; }
  [[nodiscard]] Value* lhs() const { return operand(0); }
  [[nodiscard]] Value* rhs() const { return operand(1); }

 private:
  BinOpKind op_;
};

/// `%r = icmp <pred> T %a, %b` — result i1.
class ICmpInst final : public Instruction {
 public:
  ICmpInst(ICmpPred pred, const IntType* i1, Value* lhs, Value* rhs, std::string name)
      : Instruction(Opcode::kICmp, i1, std::move(name), {lhs, rhs}), pred_(pred) {}
  [[nodiscard]] ICmpPred pred() const { return pred_; }
  [[nodiscard]] Value* lhs() const { return operand(0); }
  [[nodiscard]] Value* rhs() const { return operand(1); }

 private:
  ICmpPred pred_;
};

/// `%r = cast <kind> %v to T`
class CastInst final : public Instruction {
 public:
  CastInst(CastKind kind, const Type* to, Value* v, std::string name)
      : Instruction(Opcode::kCast, to, std::move(name), {v}), cast_kind_(kind) {}
  [[nodiscard]] CastKind cast_kind() const { return cast_kind_; }
  [[nodiscard]] Value* source() const { return operand(0); }

 private:
  CastKind cast_kind_;
};

/// `%r = phi T [%v1, %bb1], [%v2, %bb2], ...`
class PhiInst final : public Instruction {
 public:
  PhiInst(const Type* type, std::string name)
      : Instruction(Opcode::kPhi, type, std::move(name), {}) {}

  void add_incoming(Value* v, BasicBlock* from) {
    append_operand(v);
    blocks_.push_back(from);
  }
  [[nodiscard]] std::size_t incoming_count() const { return blocks_.size(); }
  [[nodiscard]] Value* incoming_value(std::size_t i) const { return operand(i); }
  [[nodiscard]] BasicBlock* incoming_block(std::size_t i) const { return blocks_[i]; }
  void set_incoming_value(std::size_t i, Value* v) { set_operand(i, v); }
  void remove_incoming(std::size_t i) {
    blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(i));
    remove_operand(i);
  }

 private:
  std::vector<BasicBlock*> blocks_;
};

/// `br %bb`
class BrInst final : public Instruction {
 public:
  BrInst(const VoidType* void_type, BasicBlock* target, std::string name)
      : Instruction(Opcode::kBr, void_type, std::move(name), {}), target_(target) {}
  [[nodiscard]] BasicBlock* target() const { return target_; }
  void set_target(BasicBlock* bb) { target_ = bb; }

 private:
  BasicBlock* target_;
};

/// `cond_br i1 %c, %then, %else`
class CondBrInst final : public Instruction {
 public:
  CondBrInst(const VoidType* void_type, Value* cond, BasicBlock* then_bb, BasicBlock* else_bb,
             std::string name)
      : Instruction(Opcode::kCondBr, void_type, std::move(name), {cond}),
        then_bb_(then_bb),
        else_bb_(else_bb) {}
  [[nodiscard]] Value* condition() const { return operand(0); }
  [[nodiscard]] BasicBlock* then_block() const { return then_bb_; }
  [[nodiscard]] BasicBlock* else_block() const { return else_bb_; }
  void set_then_block(BasicBlock* bb) { then_bb_ = bb; }
  void set_else_block(BasicBlock* bb) { else_bb_ = bb; }

 private:
  BasicBlock* then_bb_;
  BasicBlock* else_bb_;
};

/// `%r = call T @f(args...)` — direct call.
class CallInst final : public Instruction {
 public:
  CallInst(const Type* result, Function* callee, std::vector<Value*> args, std::string name)
      : Instruction(Opcode::kCall, result, std::move(name), std::move(args)), callee_(callee) {}
  [[nodiscard]] Function* callee() const { return callee_; }
  void set_callee(Function* f) { callee_ = f; }
  [[nodiscard]] const std::vector<Value*>& args() const { return operands(); }

 private:
  Function* callee_;
};

/// `%r = call_indirect T %fp(args...)` — operand 0 is the function pointer.
class CallIndirectInst final : public Instruction {
 public:
  CallIndirectInst(const Type* result, Value* fn_ptr, std::vector<Value*> args, std::string name)
      : Instruction(Opcode::kCallIndirect, result, std::move(name),
                    prepend(fn_ptr, std::move(args))) {}
  [[nodiscard]] Value* function_pointer() const { return operand(0); }
  [[nodiscard]] std::size_t arg_count() const { return operand_count() - 1; }
  [[nodiscard]] Value* arg(std::size_t i) const { return operand(i + 1); }

 private:
  static std::vector<Value*> prepend(Value* head, std::vector<Value*> tail) {
    std::vector<Value*> out;
    out.reserve(tail.size() + 1);
    out.push_back(head);
    for (auto* v : tail) out.push_back(v);
    return out;
  }
};

/// `ret T %v` or `ret void`
class RetInst final : public Instruction {
 public:
  RetInst(const VoidType* void_type, Value* value, std::string name)
      : Instruction(Opcode::kRet, void_type, std::move(name),
                    value != nullptr ? std::vector<Value*>{value} : std::vector<Value*>{}) {}
  [[nodiscard]] bool has_value() const { return operand_count() == 1; }
  [[nodiscard]] Value* value() const { return has_value() ? operand(0) : nullptr; }
};

}  // namespace privagic::ir
