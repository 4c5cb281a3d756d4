#include "ir/printer.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <unordered_map>

namespace privagic::ir {

namespace {

/// Assigns stable printable names: named values keep their name; unnamed
/// instructions get %tN in emission order.
class NameMap {
 public:
  explicit NameMap(const Function& fn) {
    for (const auto& bb : fn.blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (!inst->type()->is_void() && inst->name().empty()) {
          generated_[inst.get()] = "t" + std::to_string(next_++);
        }
      }
    }
  }

  [[nodiscard]] std::string name_of(const Value* v) const {
    if (!v->name().empty()) return v->name();
    auto it = generated_.find(v);
    return it != generated_.end() ? it->second : "<unnamed>";
  }

 private:
  std::unordered_map<const Value*, std::string> generated_;
  int next_ = 0;
};

std::string_view binop_name(BinOpKind op) {
  switch (op) {
    case BinOpKind::kAdd: return "add";
    case BinOpKind::kSub: return "sub";
    case BinOpKind::kMul: return "mul";
    case BinOpKind::kSDiv: return "sdiv";
    case BinOpKind::kSRem: return "srem";
    case BinOpKind::kAnd: return "and";
    case BinOpKind::kOr: return "or";
    case BinOpKind::kXor: return "xor";
    case BinOpKind::kShl: return "shl";
    case BinOpKind::kLShr: return "lshr";
    case BinOpKind::kFAdd: return "fadd";
    case BinOpKind::kFSub: return "fsub";
    case BinOpKind::kFMul: return "fmul";
    case BinOpKind::kFDiv: return "fdiv";
  }
  return "?";
}

std::string_view icmp_name(ICmpPred pred) {
  switch (pred) {
    case ICmpPred::kEq: return "eq";
    case ICmpPred::kNe: return "ne";
    case ICmpPred::kSlt: return "slt";
    case ICmpPred::kSle: return "sle";
    case ICmpPred::kSgt: return "sgt";
    case ICmpPred::kSge: return "sge";
  }
  return "?";
}

std::string_view cast_name(CastKind kind) {
  switch (kind) {
    case CastKind::kBitcast: return "bitcast";
    case CastKind::kZext: return "zext";
    case CastKind::kSext: return "sext";
    case CastKind::kTrunc: return "trunc";
    case CastKind::kPtrToInt: return "ptrtoint";
    case CastKind::kIntToPtr: return "inttoptr";
  }
  return "?";
}

/// An f64 the parser reads back bit-equal: the shortest decimal that
/// round-trips (`0.1`, `-0`, `5e-324`), or for NaN and ±inf — which decimal
/// cannot spell — the IEEE-754 bit pattern in hex (`0x7FF0000000000000`).
std::string f64_literal(double d) {
  char buf[32];
  if (std::isfinite(d)) {
    const auto res = std::to_chars(buf, buf + sizeof buf, d);
    return std::string(buf, res.ptr);
  }
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  std::snprintf(buf, sizeof buf, "0x%016llX", static_cast<unsigned long long>(bits));
  return buf;
}

/// Prints an operand with its type: `i32 %x`, `i32 42`, `ptr<i8> @g`, `null`.
std::string operand_str(const Value* v, const NameMap& names) {
  switch (v->value_kind()) {
    case ValueKind::kConstInt:
      return v->type()->to_string() + " " +
             std::to_string(static_cast<const ConstInt*>(v)->value());
    case ValueKind::kConstFloat:
      return "f64 " + f64_literal(static_cast<const ConstFloat*>(v)->value());
    case ValueKind::kConstNull:
      return v->type()->to_string() + " null";
    case ValueKind::kGlobal:
    case ValueKind::kFunction:
      return v->type()->to_string() + " @" + v->name();
    case ValueKind::kArgument:
    case ValueKind::kInstruction:
      return v->type()->to_string() + " %" + names.name_of(v);
  }
  return "<bad operand>";
}

void print_instruction(std::ostringstream& os, const Instruction& inst, const NameMap& names) {
  os << "  ";
  if (!inst.type()->is_void()) {
    os << "%" << names.name_of(&inst) << " = ";
  }
  switch (inst.opcode()) {
    case Opcode::kAlloca: {
      const auto& a = static_cast<const AllocaInst&>(inst);
      os << "alloca " << a.contained_type()->to_string();
      if (!a.color().empty()) os << " color(" << a.color() << ")";
      break;
    }
    case Opcode::kHeapAlloc: {
      const auto& a = static_cast<const HeapAllocInst&>(inst);
      os << "heap_alloc " << a.contained_type()->to_string();
      if (!a.color().empty()) os << " color(" << a.color() << ")";
      break;
    }
    case Opcode::kHeapFree:
      os << "heap_free " << operand_str(inst.operand(0), names);
      break;
    case Opcode::kLoad:
      os << "load " << operand_str(inst.operand(0), names);
      break;
    case Opcode::kStore:
      os << "store " << operand_str(inst.operand(0), names) << ", "
         << operand_str(inst.operand(1), names);
      break;
    case Opcode::kGep: {
      const auto& g = static_cast<const GepInst&>(inst);
      os << "gep " << operand_str(g.base(), names) << ", ";
      if (g.is_field_access()) {
        os << "field " << g.field_index();
      } else {
        os << "index " << operand_str(g.index(), names);
      }
      break;
    }
    case Opcode::kBinOp: {
      const auto& b = static_cast<const BinOpInst&>(inst);
      os << binop_name(b.op()) << " " << operand_str(b.lhs(), names) << ", "
         << operand_str(b.rhs(), names);
      break;
    }
    case Opcode::kICmp: {
      const auto& c = static_cast<const ICmpInst&>(inst);
      os << "icmp " << icmp_name(c.pred()) << " " << operand_str(c.lhs(), names) << ", "
         << operand_str(c.rhs(), names);
      break;
    }
    case Opcode::kCast: {
      const auto& c = static_cast<const CastInst&>(inst);
      os << "cast " << cast_name(c.cast_kind()) << " " << operand_str(c.source(), names) << " to "
         << c.type()->to_string();
      break;
    }
    case Opcode::kPhi: {
      const auto& p = static_cast<const PhiInst&>(inst);
      os << "phi " << p.type()->to_string();
      for (std::size_t i = 0; i < p.incoming_count(); ++i) {
        os << (i == 0 ? " " : ", ") << "[ " << operand_str(p.incoming_value(i), names) << ", %"
           << p.incoming_block(i)->name() << " ]";
      }
      break;
    }
    case Opcode::kBr:
      os << "br %" << static_cast<const BrInst&>(inst).target()->name();
      break;
    case Opcode::kCondBr: {
      const auto& cb = static_cast<const CondBrInst&>(inst);
      os << "cond_br " << operand_str(cb.condition(), names) << ", %"
         << cb.then_block()->name() << ", %" << cb.else_block()->name();
      break;
    }
    case Opcode::kCall: {
      const auto& c = static_cast<const CallInst&>(inst);
      os << "call " << c.callee()->return_type()->to_string() << " @" << c.callee()->name()
         << "(";
      for (std::size_t i = 0; i < c.args().size(); ++i) {
        if (i > 0) os << ", ";
        os << operand_str(c.args()[i], names);
      }
      os << ")";
      break;
    }
    case Opcode::kCallIndirect: {
      const auto& c = static_cast<const CallIndirectInst&>(inst);
      os << "call_indirect " << c.type()->to_string() << " "
         << operand_str(c.function_pointer(), names) << "(";
      for (std::size_t i = 0; i < c.arg_count(); ++i) {
        if (i > 0) os << ", ";
        os << operand_str(c.arg(i), names);
      }
      os << ")";
      break;
    }
    case Opcode::kRet: {
      const auto& r = static_cast<const RetInst&>(inst);
      if (r.has_value()) {
        os << "ret " << operand_str(r.value(), names);
      } else {
        os << "ret void";
      }
      break;
    }
  }
  os << "\n";
}

void print_function_impl(std::ostringstream& os, const Function& fn) {
  NameMap names(fn);
  os << (fn.is_declaration() ? "declare " : "define ") << fn.return_type()->to_string() << " @"
     << fn.name() << "(";
  for (std::size_t i = 0; i < fn.arg_count(); ++i) {
    const Argument* arg = fn.argument(i);
    if (i > 0) os << ", ";
    os << arg->type()->to_string();
    if (!arg->name().empty()) os << " %" << arg->name();
    if (!arg->color().empty()) os << " color(" << arg->color() << ")";
  }
  os << ")";
  if (fn.is_entry_point()) os << " entry";
  if (fn.is_within()) os << " within";
  if (fn.is_ignore()) os << " ignore";
  if (fn.is_declaration()) {
    os << "\n";
    return;
  }
  os << " {\n";
  for (const auto& bb : fn.blocks()) {
    os << bb->name() << ":\n";
    for (const auto& inst : bb->instructions()) {
      print_instruction(os, *inst, names);
    }
  }
  os << "}\n";
}

}  // namespace

std::string print_function(const Function& fn) {
  std::ostringstream os;
  print_function_impl(os, fn);
  return os.str();
}

std::string print_instruction(const Instruction& inst) {
  const Function* fn = inst.parent() != nullptr ? inst.parent()->parent() : nullptr;
  std::ostringstream os;
  if (fn != nullptr) {
    print_instruction(os, inst, NameMap(*fn));
  } else {
    // Detached instruction (mid-construction): number nothing.
    static const Function kNone(nullptr, nullptr, "");
    print_instruction(os, inst, NameMap(kNone));
  }
  std::string s = os.str();
  // Strip the leading two-space indent and trailing newline of the
  // function-body form.
  if (s.size() >= 2 && s[0] == ' ' && s[1] == ' ') s.erase(0, 2);
  while (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

std::string print_module(const Module& module) {
  std::ostringstream os;
  os << "module \"" << module.name() << "\"\n\n";
  for (const auto* st : module.types().structs()) {
    os << "struct %" << st->name() << " { ";
    const auto& fields = st->fields();
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) os << ", ";
      os << fields[i].type->to_string() << " " << fields[i].name;
      if (!fields[i].color.empty()) os << " color(" << fields[i].color << ")";
    }
    os << " }\n";
  }
  if (!module.types().structs().empty()) os << "\n";
  for (const auto& g : module.globals()) {
    os << "global " << g->contained_type()->to_string() << " @" << g->name();
    if (g->int_init() != 0) os << " = " << g->int_init();
    if (!g->color().empty()) os << " color(" << g->color() << ")";
    os << "\n";
  }
  if (!module.globals().empty()) os << "\n";
  for (const auto& fn : module.functions()) {
    print_function_impl(os, *fn);
    os << "\n";
  }
  return os.str();
}

}  // namespace privagic::ir
