// PIR values.
//
// PIR follows LLVM's value model (§2.2 of the paper): a register is assigned
// once (SSA), an instruction and its output register are one and the same
// object, and operands are plain Value pointers. Ownership runs strictly
// downward (Module → Function → BasicBlock → Instruction); every Value* used
// as an operand is non-owning.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "ir/type.hpp"

namespace privagic::ir {

class Function;

enum class ValueKind : std::uint8_t {
  kConstInt,
  kConstFloat,
  kConstNull,
  kArgument,
  kGlobal,
  kFunction,
  kInstruction,
};

/// Base of everything that can appear as an instruction operand.
class Value {
 public:
  virtual ~Value() = default;
  Value(const Value&) = delete;
  Value& operator=(const Value&) = delete;

  [[nodiscard]] ValueKind value_kind() const { return value_kind_; }
  [[nodiscard]] const Type* type() const { return type_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] bool is_constant() const {
    return value_kind_ == ValueKind::kConstInt || value_kind_ == ValueKind::kConstFloat ||
           value_kind_ == ValueKind::kConstNull;
  }

 protected:
  Value(ValueKind kind, const Type* type, std::string name)
      : value_kind_(kind), type_(type), name_(std::move(name)) {}

  void set_type(const Type* type) { type_ = type; }
  /// Public on Instruction only (the parser names results after building
  /// them): functions and globals keep their creation name, which the
  /// Module indexes them by.
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  ValueKind value_kind_;
  const Type* type_;
  std::string name_;
};

/// Integer literal (also used for i1 booleans).
class ConstInt final : public Value {
 public:
  ConstInt(const IntType* type, std::int64_t value)
      : Value(ValueKind::kConstInt, type, std::to_string(value)), value_(value) {}
  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  std::int64_t value_;
};

/// Floating-point literal.
class ConstFloat final : public Value {
 public:
  ConstFloat(const FloatType* type, double value)
      : Value(ValueKind::kConstFloat, type, std::to_string(value)), value_(value) {}
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_;
};

/// The null pointer of a given pointer type.
class ConstNull final : public Value {
 public:
  explicit ConstNull(const PtrType* type) : Value(ValueKind::kConstNull, type, "null") {}
};

/// A formal parameter. Carries an optional explicit color (the paper lets
/// developers color arguments as well as fields and globals).
class Argument final : public Value {
 public:
  Argument(const Type* type, std::string name, unsigned index)
      : Value(ValueKind::kArgument, type, std::move(name)), index_(index) {}

  [[nodiscard]] unsigned index() const { return index_; }
  [[nodiscard]] const std::string& color() const { return color_; }
  void set_color(std::string color) { color_ = std::move(color); }
  [[nodiscard]] Function* parent() const { return parent_; }
  void set_parent(Function* f) { parent_ = f; }

 private:
  unsigned index_ = 0;
  std::string color_;  // "" = uncolored
  Function* parent_ = nullptr;
};

/// A module-level variable. Its value-level type is ptr<contained>, exactly
/// as in LLVM. Carries the explicit color annotation of Figure 1 / §7.1.
class GlobalVariable final : public Value {
 public:
  GlobalVariable(const PtrType* ptr_type, const Type* contained, std::string name,
                 std::int64_t int_init = 0)
      : Value(ValueKind::kGlobal, ptr_type, std::move(name)),
        contained_(contained),
        int_init_(int_init) {}

  /// The type of the variable itself (type() is the pointer to it).
  [[nodiscard]] const Type* contained_type() const { return contained_; }
  [[nodiscard]] std::int64_t int_init() const { return int_init_; }

  [[nodiscard]] const std::string& color() const { return color_; }
  void set_color(std::string color) { color_ = std::move(color); }

 private:
  const Type* contained_;
  std::int64_t int_init_ = 0;
  std::string color_;  // "" = uncolored (→ U in hardened mode, S in relaxed)
};

}  // namespace privagic::ir
