// A PIR module: the "whole-program LLVM bitcode file" Privagic takes as
// input (§5, Figure 5). Owns the type context, globals, functions, and the
// constant pool.
//
// Every lookup the parser and the partitioner make per operand or callee is
// a hash probe: functions and globals are indexed by name, and the constant
// pool is interned by (type, value). Names are fixed at creation (only
// instructions can be renamed), so the name indices never go stale; erase_*
// keeps them in step. When the API creates two symbols with one name, the
// lookup returns the earliest still present, as a scan in creation order
// would.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/function.hpp"
#include "ir/type.hpp"
#include "ir/value.hpp"

namespace privagic::ir {

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] TypeContext& types() { return types_; }
  [[nodiscard]] const TypeContext& types() const { return types_; }

  // -- Globals -----------------------------------------------------------------
  /// Creates a global. A non-empty @p color places the variable in that
  /// enclave; the global's address then has type ptr<T color(c)>, so the
  /// color travels with every pointer derived from it.
  GlobalVariable* create_global(const Type* contained, std::string global_name,
                                std::int64_t int_init = 0, std::string color = "") {
    auto g = std::make_unique<GlobalVariable>(types_.ptr(contained, color), contained,
                                              std::move(global_name), int_init);
    g->set_color(std::move(color));
    global_index_.try_emplace(g->name(), g.get());
    globals_.push_back(std::move(g));
    return globals_.back().get();
  }
  [[nodiscard]] const std::vector<std::unique_ptr<GlobalVariable>>& globals() const {
    return globals_;
  }
  [[nodiscard]] GlobalVariable* global_by_name(std::string_view gname) const {
    return lookup(global_index_, gname);
  }

  /// Removes the global named @p gname (it must be unused).
  void erase_global(std::string_view gname) { erase_named(globals_, global_index_, gname); }

  // -- Functions ---------------------------------------------------------------
  /// Creates a function (with a body to be filled in) or a declaration (leave
  /// the body empty).
  Function* create_function(const FuncType* fn_type, std::string fn_name) {
    auto f = std::make_unique<Function>(types_.ptr(fn_type), fn_type, std::move(fn_name));
    f->set_parent(this);
    function_index_.try_emplace(f->name(), f.get());
    functions_.push_back(std::move(f));
    return functions_.back().get();
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Function>>& functions() const {
    return functions_;
  }
  [[nodiscard]] Function* function_by_name(std::string_view fname) const {
    return lookup(function_index_, fname);
  }

  /// Removes the function named @p fname (it must be unused).
  void erase_function(std::string_view fname) {
    erase_named(functions_, function_index_, fname);
  }

  // -- Constant pool -------------------------------------------------------------
  ConstInt* const_int(const IntType* type, std::int64_t value) {
    ConstInt*& slot = int_pool_[{type, value}];
    if (slot == nullptr) slot = own(std::make_unique<ConstInt>(type, value));
    return slot;
  }
  ConstInt* const_i32(std::int64_t value) { return const_int(types_.i32(), value); }
  ConstInt* const_i64(std::int64_t value) { return const_int(types_.i64(), value); }
  ConstInt* const_bool(bool value) { return const_int(types_.i1(), value ? 1 : 0); }

  /// Interned by bit pattern, so -0.0 and 0.0 stay two constants and a NaN
  /// is reused like any other value (== would merge the first and never
  /// match the second).
  ConstFloat* const_f64(double value) {
    ConstFloat*& slot = f64_pool_[std::bit_cast<std::uint64_t>(value)];
    if (slot == nullptr) slot = own(std::make_unique<ConstFloat>(types_.f64(), value));
    return slot;
  }

  ConstNull* const_null(const PtrType* type) {
    ConstNull*& slot = null_pool_[type];
    if (slot == nullptr) slot = own(std::make_unique<ConstNull>(type));
    return slot;
  }

  /// Total instruction count over all function bodies (the "lines of LLVM
  /// code" metric of Table 4).
  [[nodiscard]] std::size_t instruction_count() const {
    std::size_t n = 0;
    for (const auto& f : functions_) n += f->instruction_count();
    return n;
  }

 private:
  /// Heterogeneous string hashing, so a string_view probe builds no string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  template <typename T>
  using NameIndex = std::unordered_map<std::string, T*, NameHash, std::equal_to<>>;

  struct IntKeyHash {
    std::size_t operator()(const std::pair<const IntType*, std::int64_t>& k) const {
      return std::hash<const void*>{}(k.first) ^
             (std::hash<std::int64_t>{}(k.second) * 0x9E3779B97F4A7C15ull);
    }
  };

  template <typename T>
  static T* lookup(const NameIndex<T>& index, std::string_view name) {
    auto it = index.find(name);
    return it != index.end() ? it->second : nullptr;
  }

  /// Erases the earliest symbol named @p name, then points the index at the
  /// next one with that name, if the API created a duplicate. (@p name may
  /// be the victim's own name, so the rescan compares against the key.)
  template <typename T>
  static void erase_named(std::vector<std::unique_ptr<T>>& symbols, NameIndex<T>& index,
                          std::string_view name) {
    auto it = index.find(name);
    if (it == index.end()) return;
    const T* victim = it->second;
    std::erase_if(symbols, [&](const std::unique_ptr<T>& s) { return s.get() == victim; });
    it->second = nullptr;
    for (const auto& s : symbols) {
      if (s->name() == it->first) {
        it->second = s.get();
        break;
      }
    }
    if (it->second == nullptr) index.erase(it);
  }

  template <typename T>
  T* own(std::unique_ptr<T> c) {
    T* raw = c.get();
    constants_.push_back(std::move(c));
    return raw;
  }

  std::string name_;
  TypeContext types_;
  std::vector<std::unique_ptr<GlobalVariable>> globals_;
  std::vector<std::unique_ptr<Function>> functions_;
  NameIndex<GlobalVariable> global_index_;
  NameIndex<Function> function_index_;
  std::vector<std::unique_ptr<Value>> constants_;
  std::unordered_map<std::pair<const IntType*, std::int64_t>, ConstInt*, IntKeyHash> int_pool_;
  std::unordered_map<std::uint64_t, ConstFloat*> f64_pool_;
  std::unordered_map<const PtrType*, ConstNull*> null_pool_;
};

}  // namespace privagic::ir
