// Unit tests for the PIR substrate: types, builder, printer/parser
// round-trips, CFG/dominators, verifier, mem2reg, and cleanup passes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "ir/builder.hpp"
#include "ir/callgraph.hpp"
#include "ir/cfg.hpp"
#include "ir/dominators.hpp"
#include "ir/mem2reg.hpp"
#include "ir/module.hpp"
#include "ir/parser.hpp"
#include "ir/passes.hpp"
#include "ir/printer.hpp"
#include "ir/use_def.hpp"
#include "ir/verifier.hpp"

namespace privagic::ir {
namespace {

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

TEST(TypeTest, IntTypesAreUniqued) {
  TypeContext ctx;
  EXPECT_EQ(ctx.i32(), ctx.int_type(32));
  EXPECT_NE(ctx.i32(), ctx.i64());
  EXPECT_EQ(ctx.i32()->size_bytes(), 4u);
  EXPECT_EQ(ctx.i1()->size_bytes(), 1u);
}

TEST(TypeTest, PointerTypesAreUniquedByPointee) {
  TypeContext ctx;
  EXPECT_EQ(ctx.ptr(ctx.i32()), ctx.ptr(ctx.i32()));
  EXPECT_NE(ctx.ptr(ctx.i32()), ctx.ptr(ctx.i64()));
  EXPECT_EQ(ctx.ptr(ctx.i32())->size_bytes(), 8u);
}

TEST(TypeTest, ArrayTypeSizeAndPrinting) {
  TypeContext ctx;
  const ArrayType* arr = ctx.array(ctx.i8(), 256);
  EXPECT_EQ(arr->size_bytes(), 256u);
  EXPECT_EQ(arr->to_string(), "[256 x i8]");
  EXPECT_EQ(arr, ctx.array(ctx.i8(), 256));
}

TEST(TypeTest, StructColorsAndOffsets) {
  TypeContext ctx;
  StructType* account = ctx.create_struct(
      "account", {{"name", ctx.array(ctx.i8(), 256), "blue"}, {"balance", ctx.f64(), "red"}});
  ASSERT_NE(account, nullptr);
  EXPECT_TRUE(account->is_multi_color());
  EXPECT_TRUE(account->has_colored_field());
  EXPECT_EQ(account->field_index("balance"), 1);
  EXPECT_EQ(account->field_offset(1), 256u);
  EXPECT_EQ(account->size_bytes(), 264u);
  // Duplicate name is rejected.
  EXPECT_EQ(ctx.create_struct("account", {}), nullptr);
}

TEST(TypeTest, SingleColorStructIsNotMultiColor) {
  TypeContext ctx;
  StructType* node = ctx.create_struct(
      "node", {{"key", ctx.i64(), "blue"}, {"value", ctx.i64(), "blue"}, {"next", ctx.i64(), ""}});
  ASSERT_NE(node, nullptr);
  EXPECT_FALSE(node->is_multi_color());
  EXPECT_TRUE(node->has_colored_field());
}

TEST(TypeTest, FunctionTypePrinting) {
  TypeContext ctx;
  const FuncType* ft = ctx.func(ctx.i32(), {ctx.i32(), ctx.f64()});
  EXPECT_EQ(ft->to_string(), "i32 (i32, f64)");
  EXPECT_EQ(ctx.ptr(ft)->to_string(), "ptr<i32 (i32, f64)>");
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Builds: int test(int a) { int x = a + 42; y = a + 42; return f(&x); }
/// — the running example of Figure 2 in the paper.
std::unique_ptr<Module> build_figure2() {
  auto module = std::make_unique<Module>("fig2");
  TypeContext& types = module->types();
  GlobalVariable* y = module->create_global(types.i32(), "y");
  (void)y;

  Function* f = module->create_function(types.func(types.i32(), {types.ptr(types.i32())}), "f");
  f->add_argument("p");

  Function* test = module->create_function(types.func(types.i32(), {types.i32()}), "test");
  Argument* a = test->add_argument("a");
  BasicBlock* entry = test->create_block("entry");

  IRBuilder b(*module);
  b.set_insertion_point(entry);
  AllocaInst* x = b.alloca_inst(types.i32(), "x");
  BinOpInst* sum = b.add(a, module->const_i32(42), "sum");
  b.store(sum, x);
  b.store(sum, module->global_by_name("y"));
  CallInst* call = b.call(f, {x}, "r");
  b.ret(call);
  return module;
}

TEST(BuilderTest, Figure2Builds) {
  auto module = build_figure2();
  EXPECT_TRUE(verify_module(*module).empty());
  Function* test = module->function_by_name("test");
  ASSERT_NE(test, nullptr);
  EXPECT_EQ(test->instruction_count(), 6u);
}

TEST(BuilderTest, TypeMismatchesThrow) {
  Module module("m");
  TypeContext& types = module.types();
  Function* f = module.create_function(types.func(types.void_type(), {}), "f");
  BasicBlock* bb = f->create_block("entry");
  IRBuilder b(module);
  b.set_insertion_point(bb);
  AllocaInst* slot = b.alloca_inst(types.i32(), "slot");
  EXPECT_THROW(b.store(module.const_i64(1), slot), std::invalid_argument);
  EXPECT_THROW(b.add(module.const_i32(1), module.const_i64(1), "bad"), std::invalid_argument);
  EXPECT_THROW(b.load(module.const_i32(3), "bad"), std::invalid_argument);
  EXPECT_THROW(b.cond_br(module.const_i32(1), bb, bb), std::invalid_argument);
}

TEST(BuilderTest, GepFieldByNameAndIndex) {
  Module module("m");
  TypeContext& types = module.types();
  StructType* pair = types.create_struct("pair", {{"k", types.i64(), ""}, {"v", types.f64(), ""}});
  Function* f = module.create_function(types.func(types.void_type(), {types.ptr(pair)}), "f");
  Argument* p = f->add_argument("p");
  IRBuilder b(module);
  b.set_insertion_point(f->create_block("entry"));
  GepInst* k = b.gep_field(p, "k", "kp");
  GepInst* v = b.gep_field(p, 1, "vp");
  EXPECT_EQ(k->field_index(), 0);
  EXPECT_EQ(v->field_index(), 1);
  EXPECT_EQ(k->type()->to_string(), "ptr<i64>");
  EXPECT_EQ(v->type()->to_string(), "ptr<f64>");
  EXPECT_EQ(k->struct_type(), pair);
  EXPECT_THROW(b.gep_field(p, "missing", "x"), std::invalid_argument);
  b.ret_void();
}

// ---------------------------------------------------------------------------
// Printer / parser round-trip
// ---------------------------------------------------------------------------

TEST(ParserTest, RoundTripFigure2) {
  auto module = build_figure2();
  const std::string text = print_module(*module);
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok()) << parsed.message() << "\n" << text;
  EXPECT_TRUE(verify_module(*parsed.value()).empty());
  // Printing again yields identical text (canonical form).
  EXPECT_EQ(print_module(*parsed.value()), text);
}

TEST(ParserTest, ParsesColorsAttributesAndStructs) {
  const char* text = R"(
module "bank"
struct %account { [256 x i8] name color(blue), f64 balance color(red) }
global i32 @counter = 7 color(blue)
declare ptr<i8> @encrypt(ptr<i8>, i64) ignore
declare ptr<i8> @memcpy(ptr<i8>, ptr<i8>, i64) within
define i32 @get(i32 %k color(blue)) entry {
entry:
  %two = add i32 %k, i32 2
  ret i32 %two
}
)";
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  const Module& m = *parsed.value();
  const StructType* account = m.types().struct_by_name("account");
  ASSERT_NE(account, nullptr);
  EXPECT_EQ(account->fields()[0].color, "blue");
  EXPECT_EQ(account->fields()[1].color, "red");
  EXPECT_EQ(m.global_by_name("counter")->color(), "blue");
  EXPECT_EQ(m.global_by_name("counter")->int_init(), 7);
  EXPECT_TRUE(m.function_by_name("encrypt")->is_ignore());
  EXPECT_TRUE(m.function_by_name("memcpy")->is_within());
  Function* get = m.function_by_name("get");
  ASSERT_NE(get, nullptr);
  EXPECT_TRUE(get->is_entry_point());
  EXPECT_EQ(get->argument(0)->color(), "blue");
}

TEST(ParserTest, ParsesControlFlowWithForwardReferences) {
  const char* text = R"(
module "loop"
define i32 @sum(i32 %n) {
entry:
  br %head
head:
  %i = phi i32 [ i32 0, %entry ], [ %inext, %body ]
  %acc = phi i32 [ i32 0, %entry ], [ %accnext, %body ]
  %cond = icmp slt i32 %i, i32 %n
  cond_br i1 %cond, %body, %exit
body:
  %accnext = add i32 %acc, i32 %i
  %inext = add i32 %i, i32 1
  br %head
exit:
  ret i32 %acc
}
)";
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_TRUE(verify_module(*parsed.value()).empty());
}

TEST(ParserTest, RejectsUseBeforeDef) {
  const char* text = R"(
module "bad"
define i32 @f() {
entry:
  %a = add i32 %b, i32 1
  %b = add i32 1, i32 1
  ret i32 %a
}
)";
  auto parsed = parse_module(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.message().find("undefined value"), std::string::npos);
}

TEST(ParserTest, RejectsUnknownStructAndDuplicates) {
  EXPECT_FALSE(parse_module("module \"m\" global %nope @g").ok());
  EXPECT_FALSE(parse_module("module \"m\" global i32 @g global i32 @g").ok());
  EXPECT_FALSE(parse_module("module \"m\" declare void @f() declare void @f()").ok());
}

TEST(ParserTest, ReportsLineNumbers) {
  auto parsed = parse_module("module \"m\"\n\nbogus i32 @f\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.message().find("line 3"), std::string::npos);
}

TEST(ParserTest, FunctionPointerOperands) {
  const char* text = R"(
module "fp"
declare i32 @callee(i32)
define i32 @caller() {
entry:
  %r = call_indirect i32 ptr<i32 (i32)> @callee(i32 5)
  ret i32 %r
}
)";
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_TRUE(verify_module(*parsed.value()).empty());
}

TEST(ParserTest, RoundTripsEveryOpcode) {
  // One program exercising every instruction kind, every cast, float
  // literals, arrays, structs, heap allocation, and indirect calls.
  const char* text = R"(
module "kitchen_sink"
struct %pair { i64 k, f64 v color(blue) }
global i64 @counter = -3
global [8 x i32] @table
declare f64 @sqrt(f64) within
define i64 @callee(i64 %x) {
entry:
  ret i64 %x
}
define f64 @all_ops(i64 %a, f64 %f, i1 %c) entry {
entry:
  %slot = alloca i64 color(blue)
  store i64 %a, ptr<i64 color(blue)> %slot
  %ld = load ptr<i64 color(blue)> %slot
  %p = heap_alloc %pair
  %kp = gep ptr<%pair> %p, field 0
  store i64 %ld, ptr<i64> %kp
  %idx = and i64 %a, i64 7
  %i32idx = cast trunc i64 %idx to i32
  %ep = gep ptr<[8 x i32]> @table, index %idx
  store i32 %i32idx, ptr<i32> %ep
  %sum = add i64 %a, i64 1
  %dif = sub i64 %sum, i64 2
  %prd = mul i64 %dif, i64 3
  %quo = sdiv i64 %prd, i64 2
  %rem = srem i64 %quo, i64 5
  %con = and i64 %rem, %sum
  %dis = or i64 %con, i64 1
  %exc = xor i64 %dis, i64 255
  %shl = shl i64 %exc, i64 2
  %shr = lshr i64 %shl, i64 1
  %fa = fadd f64 %f, f64 1.5
  %fs = fsub f64 %fa, f64 0.25
  %fm = fmul f64 %fs, f64 2
  %fd = fdiv f64 %fm, f64 4
  %wide = cast zext i1 %c to i64
  %sx = cast sext i1 %c to i1
  %bits = cast bitcast f64 %fd to i64
  %back = cast bitcast i64 %bits to f64
  %pi = cast ptrtoint ptr<%pair> %p to i64
  %pp = cast inttoptr i64 %pi to ptr<%pair>
  heap_free %pp
  %cal = call i64 @callee(i64 %shr)
  %ind = call_indirect i64 ptr<i64 (i64)> @callee(i64 %cal)
  %cmp = icmp sge i64 %ind, i64 0
  cond_br i1 %cmp, %pos, %join
pos:
  br %join
join:
  %sel = phi f64 [ %back, %pos ], [ f64 0.5, %entry ]
  %rt = call f64 @sqrt(f64 %sel)
  ret f64 %rt
}
)";
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_TRUE(verify_module(*parsed.value()).empty());
  const std::string canon = print_module(*parsed.value());
  auto reparsed = parse_module(canon);
  ASSERT_TRUE(reparsed.ok()) << reparsed.message() << "\n" << canon;
  EXPECT_EQ(print_module(*reparsed.value()), canon);
}

// ---------------------------------------------------------------------------
// CFG / dominators
// ---------------------------------------------------------------------------

/// Builds a diamond: entry -> (then | else) -> join -> ret.
std::unique_ptr<Module> build_diamond() {
  const char* text = R"(
module "diamond"
define i32 @f(i1 %c) {
entry:
  cond_br i1 %c, %then, %else
then:
  br %join
else:
  br %join
join:
  %x = phi i32 [ i32 1, %then ], [ i32 2, %else ]
  ret i32 %x
}
)";
  auto parsed = parse_module(text);
  EXPECT_TRUE(parsed.ok()) << parsed.message();
  return std::move(parsed).value();
}

TEST(CfgTest, DiamondStructure) {
  auto module = build_diamond();
  Function* f = module->function_by_name("f");
  const Cfg cfg(*f);
  EXPECT_EQ(cfg.reverse_postorder().size(), 4u);
  EXPECT_EQ(cfg.reverse_postorder().front(), f->entry_block());
  BasicBlock* join = f->block_by_name("join");
  EXPECT_EQ(cfg.predecessors(join).size(), 2u);
}

TEST(DominatorTest, DiamondIdoms) {
  auto module = build_diamond();
  Function* f = module->function_by_name("f");
  DominatorTree dom(*f);
  BasicBlock* entry = f->entry_block();
  BasicBlock* then_bb = f->block_by_name("then");
  BasicBlock* join = f->block_by_name("join");
  EXPECT_EQ(dom.idom(entry), nullptr);
  EXPECT_EQ(dom.idom(then_bb), entry);
  EXPECT_EQ(dom.idom(join), entry);
  EXPECT_TRUE(dom.dominates(entry, join));
  EXPECT_FALSE(dom.dominates(then_bb, join));
  // then's frontier is {join}.
  ASSERT_EQ(dom.frontier(then_bb).size(), 1u);
  EXPECT_EQ(dom.frontier(then_bb)[0], join);
}

TEST(PostDominatorTest, DiamondJoinPoint) {
  auto module = build_diamond();
  Function* f = module->function_by_name("f");
  PostDominatorTree pdom(*f);
  BasicBlock* entry = f->entry_block();
  BasicBlock* join = f->block_by_name("join");
  EXPECT_EQ(pdom.ipdom(entry), join);
  // The region controlled by the branch is exactly {then, else}: the paper's
  // Rule 4 colors these, not the join (§6.1.1).
  auto region = pdom.controlled_region(entry);
  EXPECT_EQ(region.size(), 2u);
  for (BasicBlock* bb : region) {
    EXPECT_TRUE(bb == f->block_by_name("then") || bb == f->block_by_name("else"));
  }
}

TEST(PostDominatorTest, LoopRegion) {
  const char* text = R"(
module "loop"
define void @f(i1 %c) {
entry:
  br %head
head:
  cond_br i1 %c, %body, %exit
body:
  br %head
exit:
  ret void
}
)";
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  Function* f = parsed.value()->function_by_name("f");
  PostDominatorTree pdom(*f);
  BasicBlock* head = f->block_by_name("head");
  EXPECT_EQ(pdom.ipdom(head), f->block_by_name("exit"));
  auto region = pdom.controlled_region(head);
  // Controlled region of the loop branch: just the body.
  ASSERT_EQ(region.size(), 1u);
  EXPECT_EQ(region[0], f->block_by_name("body"));
}

// ---------------------------------------------------------------------------
// Verifier
// ---------------------------------------------------------------------------

TEST(VerifierTest, CatchesMissingTerminator) {
  Module module("m");
  Function* f = module.create_function(module.types().func(module.types().void_type(), {}), "f");
  f->create_block("entry");
  auto errors = verify_module(module);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("no terminator"), std::string::npos);
}

TEST(VerifierTest, CatchesNonDominatingUse) {
  // %v is defined in `then` but used in `join`, which `then` does not
  // dominate.
  Module module("m");
  TypeContext& types = module.types();
  Function* f = module.create_function(types.func(types.i32(), {types.i1()}), "f");
  Argument* c = f->add_argument("c");
  BasicBlock* entry = f->create_block("entry");
  BasicBlock* then_bb = f->create_block("then");
  BasicBlock* else_bb = f->create_block("else");
  BasicBlock* join = f->create_block("join");
  IRBuilder b(module);
  b.set_insertion_point(entry);
  b.cond_br(c, then_bb, else_bb);
  b.set_insertion_point(then_bb);
  BinOpInst* v = b.add(module.const_i32(1), module.const_i32(2), "v");
  b.br(join);
  b.set_insertion_point(else_bb);
  b.br(join);
  b.set_insertion_point(join);
  b.ret(v);
  auto errors = verify_module(module);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("does not dominate"), std::string::npos);
}

TEST(VerifierTest, CatchesPhiIncomingMismatch) {
  auto module = build_diamond();
  Function* f = module->function_by_name("f");
  BasicBlock* join = f->block_by_name("join");
  join->phis()[0]->remove_incoming(1);
  auto errors = verify_module(*module);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("incomings"), std::string::npos);
}

TEST(VerifierTest, CatchesRetTypeMismatch) {
  // Function returns i32 but the ret hands back an i64.
  Module module("m");
  TypeContext& types = module.types();
  Function* f = module.create_function(types.func(types.i32(), {}), "f");
  BasicBlock* entry = f->create_block("entry");
  IRBuilder b(module);
  b.set_insertion_point(entry);
  b.ret(module.const_i64(7));
  auto errors = verify_module(module);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("returns i64 but function returns i32"), std::string::npos);
}

TEST(VerifierTest, CatchesRetVoidFromValueFunction) {
  Module module("m");
  TypeContext& types = module.types();
  Function* f = module.create_function(types.func(types.i32(), {}), "f");
  BasicBlock* entry = f->create_block("entry");
  IRBuilder b(module);
  b.set_insertion_point(entry);
  b.ret_void();
  auto errors = verify_module(module);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("ret void"), std::string::npos);
}

TEST(VerifierTest, CatchesRetValueFromVoidFunction) {
  Module module("m");
  TypeContext& types = module.types();
  Function* f = module.create_function(types.func(types.void_type(), {}), "f");
  BasicBlock* entry = f->create_block("entry");
  IRBuilder b(module);
  b.set_insertion_point(entry);
  b.ret(module.const_i32(1));
  auto errors = verify_module(module);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("function returns void"), std::string::npos);
}

TEST(VerifierTest, CatchesPhiIncomingTypeMismatch) {
  // A diamond whose phi is typed i32 but one incoming value is i64.
  Module module("m");
  TypeContext& types = module.types();
  Function* f = module.create_function(types.func(types.i32(), {types.i1()}), "f");
  Argument* c = f->add_argument("c");
  BasicBlock* entry = f->create_block("entry");
  BasicBlock* then_bb = f->create_block("then");
  BasicBlock* else_bb = f->create_block("else");
  BasicBlock* join = f->create_block("join");
  IRBuilder b(module);
  b.set_insertion_point(entry);
  b.cond_br(c, then_bb, else_bb);
  b.set_insertion_point(then_bb);
  b.br(join);
  b.set_insertion_point(else_bb);
  b.br(join);
  b.set_insertion_point(join);
  PhiInst* phi = b.phi(types.i32(), "p");
  phi->add_incoming(module.const_i32(1), then_bb);
  phi->add_incoming(module.const_i64(2), else_bb);
  b.ret(phi);
  auto errors = verify_module(module);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("incoming 1 has type i64, phi has type i32"), std::string::npos);
}

TEST(VerifierTest, AcceptsMatchingRetAndPhiTypes) {
  // Positive control for the two new checks: a well-typed diamond passes.
  Module module("m");
  TypeContext& types = module.types();
  Function* f = module.create_function(types.func(types.i32(), {types.i1()}), "f");
  Argument* c = f->add_argument("c");
  BasicBlock* entry = f->create_block("entry");
  BasicBlock* then_bb = f->create_block("then");
  BasicBlock* else_bb = f->create_block("else");
  BasicBlock* join = f->create_block("join");
  IRBuilder b(module);
  b.set_insertion_point(entry);
  b.cond_br(c, then_bb, else_bb);
  b.set_insertion_point(then_bb);
  b.br(join);
  b.set_insertion_point(else_bb);
  b.br(join);
  b.set_insertion_point(join);
  PhiInst* phi = b.phi(types.i32(), "p");
  phi->add_incoming(module.const_i32(1), then_bb);
  phi->add_incoming(module.const_i32(2), else_bb);
  b.ret(phi);
  EXPECT_TRUE(verify_module(module).empty());
}

// ---------------------------------------------------------------------------
// mem2reg
// ---------------------------------------------------------------------------

TEST(Mem2RegTest, PromotesDiamondSlotWithPhi) {
  const char* text = R"(
module "m"
define i32 @f(i1 %c) {
entry:
  %slot = alloca i32
  cond_br i1 %c, %then, %else
then:
  store i32 1, ptr<i32> %slot
  br %join
else:
  store i32 2, ptr<i32> %slot
  br %join
join:
  %v = load ptr<i32> %slot
  ret i32 %v
}
)";
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  Module& m = *parsed.value();
  Function* f = m.function_by_name("f");
  EXPECT_EQ(promote_memory_to_registers(m, *f), 1u);
  EXPECT_TRUE(verify_module(m).empty()) << print_function(*f);
  // No loads/stores/allocas remain; a phi materialized at the join.
  for (const auto& bb : f->blocks()) {
    for (const auto& inst : bb->instructions()) {
      EXPECT_NE(inst->opcode(), Opcode::kAlloca);
      EXPECT_NE(inst->opcode(), Opcode::kLoad);
      EXPECT_NE(inst->opcode(), Opcode::kStore);
    }
  }
  ASSERT_EQ(f->block_by_name("join")->phis().size(), 1u);
}

TEST(Mem2RegTest, DoesNotPromoteEscapingSlot) {
  auto module = build_figure2();  // x's address is passed to f(&x)
  Function* test = module->function_by_name("test");
  EXPECT_EQ(promote_memory_to_registers(*module, *test), 0u);
  // The alloca is still there.
  bool found_alloca = false;
  for (const auto& bb : test->blocks()) {
    for (const auto& inst : bb->instructions()) {
      found_alloca |= inst->opcode() == Opcode::kAlloca;
    }
  }
  EXPECT_TRUE(found_alloca);
}

TEST(Mem2RegTest, DoesNotPromoteColoredSlot) {
  const char* text = R"(
module "m"
define i32 @f() {
entry:
  %slot = alloca i32 color(blue)
  store i32 5, ptr<i32 color(blue)> %slot
  %v = load ptr<i32 color(blue)> %slot
  ret i32 %v
}
)";
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  Module& m = *parsed.value();
  EXPECT_EQ(promote_memory_to_registers(m), 0u);
}

TEST(Mem2RegTest, LoadBeforeStoreYieldsZero) {
  const char* text = R"(
module "m"
define i32 @f() {
entry:
  %slot = alloca i32
  %v = load ptr<i32> %slot
  ret i32 %v
}
)";
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok());
  Module& m = *parsed.value();
  Function* f = m.function_by_name("f");
  EXPECT_EQ(promote_memory_to_registers(m, *f), 1u);
  // ret now returns the constant 0.
  const Instruction* term = f->entry_block()->terminator();
  ASSERT_EQ(term->opcode(), Opcode::kRet);
  const auto* ret = static_cast<const RetInst*>(term);
  ASSERT_EQ(ret->value()->value_kind(), ValueKind::kConstInt);
  EXPECT_EQ(static_cast<const ConstInt*>(ret->value())->value(), 0);
}

TEST(Mem2RegTest, LoopCounterGetsPhi) {
  const char* text = R"(
module "m"
define i32 @sum(i32 %n) {
entry:
  %i = alloca i32
  %acc = alloca i32
  store i32 0, ptr<i32> %i
  store i32 0, ptr<i32> %acc
  br %head
head:
  %iv = load ptr<i32> %i
  %cond = icmp slt i32 %iv, i32 %n
  cond_br i1 %cond, %body, %exit
body:
  %av = load ptr<i32> %acc
  %a2 = add i32 %av, i32 %iv
  store i32 %a2, ptr<i32> %acc
  %i2 = add i32 %iv, i32 1
  store i32 %i2, ptr<i32> %i
  br %head
exit:
  %r = load ptr<i32> %acc
  ret i32 %r
}
)";
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok());
  Module& m = *parsed.value();
  Function* f = m.function_by_name("sum");
  EXPECT_EQ(promote_memory_to_registers(m, *f), 2u);
  EXPECT_TRUE(verify_module(m).empty()) << print_function(*f);
  EXPECT_EQ(f->block_by_name("head")->phis().size(), 2u);
}

// ---------------------------------------------------------------------------
// Cleanup passes
// ---------------------------------------------------------------------------

TEST(PassesTest, DceRemovesUnusedChains) {
  const char* text = R"(
module "m"
define i32 @f(i32 %a) {
entry:
  %d1 = add i32 %a, i32 1
  %d2 = add i32 %d1, i32 2
  %live = mul i32 %a, i32 3
  ret i32 %live
}
)";
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok());
  Function* f = parsed.value()->function_by_name("f");
  EXPECT_EQ(eliminate_dead_code(*f), 2u);
  EXPECT_EQ(f->instruction_count(), 2u);
}

TEST(PassesTest, DceKeepsSideEffects) {
  auto module = build_figure2();
  Function* test = module->function_by_name("test");
  EXPECT_EQ(eliminate_dead_code(*test), 0u);
}

TEST(PassesTest, RemovesUnreachableBlocks) {
  const char* text = R"(
module "m"
define i32 @f() {
entry:
  br %exit
orphan:
  br %exit
exit:
  ret i32 0
}
)";
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok());
  Function* f = parsed.value()->function_by_name("f");
  EXPECT_EQ(remove_unreachable_blocks(*f), 1u);
  EXPECT_EQ(f->blocks().size(), 2u);
  EXPECT_TRUE(verify_function(*f).empty());
}

// ---------------------------------------------------------------------------
// Use-def / call graph
// ---------------------------------------------------------------------------

TEST(UseDefTest, UsersMapIsComplete) {
  auto module = build_figure2();
  Function* test = module->function_by_name("test");
  const UsersMap users = compute_users(*test);
  const Argument* a = test->argument(0);
  ASSERT_TRUE(users.contains(a));
  EXPECT_EQ(users.at(a).size(), 1u);  // the add
}

TEST(CallGraphTest, ReachabilityFollowsDirectCalls) {
  const char* text = R"(
module "m"
declare void @ext()
define void @leaf() {
entry:
  ret void
}
define void @mid() {
entry:
  call void @leaf()
  call void @ext()
  ret void
}
define void @top() {
entry:
  call void @mid()
  ret void
}
define void @island() {
entry:
  ret void
}
)";
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok());
  const Module& m = *parsed.value();
  CallGraph cg(m);
  Function* top = m.function_by_name("top");
  auto reachable = cg.reachable_from({top});
  EXPECT_EQ(reachable.size(), 4u);  // top, mid, leaf, ext
  EXPECT_FALSE(reachable.contains(m.function_by_name("island")));
  EXPECT_EQ(cg.callers(m.function_by_name("leaf")).size(), 1u);
}

// ---------------------------------------------------------------------------
// Module name indices and constant pools
// ---------------------------------------------------------------------------

TEST(ModuleIndexTest, LookupsFollowErase) {
  Module m("m");
  const FuncType* void_fn = m.types().func(m.types().void_type(), {});
  Function* f = m.create_function(void_fn, "f");
  Function* g = m.create_function(void_fn, "g");
  GlobalVariable* x = m.create_global(m.types().i64(), "x");
  GlobalVariable* y = m.create_global(m.types().i64(), "y");
  EXPECT_EQ(m.function_by_name("f"), f);
  EXPECT_EQ(m.global_by_name("y"), y);

  m.erase_function("f");
  EXPECT_EQ(m.function_by_name("f"), nullptr);
  EXPECT_EQ(m.function_by_name("g"), g);
  m.erase_global(x->name());  // the name may be the erased global's own
  EXPECT_EQ(m.global_by_name("x"), nullptr);
  EXPECT_EQ(m.global_by_name("y"), y);
  m.erase_function("absent");  // a no-op
  EXPECT_EQ(m.functions().size(), 1u);
  EXPECT_EQ(m.globals().size(), 1u);

  // A name freed by erase can be created again.
  Function* f2 = m.create_function(void_fn, "f");
  EXPECT_EQ(m.function_by_name("f"), f2);
}

TEST(ModuleIndexTest, DuplicateNamesResolveToTheEarliestSurvivor) {
  Module m("m");
  const FuncType* void_fn = m.types().func(m.types().void_type(), {});
  Function* first = m.create_function(void_fn, "dup");
  Function* second = m.create_function(void_fn, "dup");
  Function* third = m.create_function(void_fn, "dup");
  EXPECT_EQ(m.function_by_name("dup"), first);
  m.erase_function("dup");
  EXPECT_EQ(m.function_by_name("dup"), second);
  m.erase_function("dup");
  EXPECT_EQ(m.function_by_name("dup"), third);
  m.erase_function("dup");
  EXPECT_EQ(m.function_by_name("dup"), nullptr);
  EXPECT_TRUE(m.functions().empty());

  GlobalVariable* g1 = m.create_global(m.types().i32(), "g");
  GlobalVariable* g2 = m.create_global(m.types().i64(), "g");
  EXPECT_EQ(m.global_by_name("g"), g1);
  m.erase_global(g1->name());
  EXPECT_EQ(m.global_by_name("g"), g2);
}

TEST(ModuleIndexTest, ParserRejectsDuplicateSymbols) {
  EXPECT_FALSE(parse_module(R"(module "m"
define void @f() {
entry:
  ret void
}
define void @f() {
entry:
  ret void
})").ok());
  EXPECT_FALSE(parse_module("module \"m\" declare void @f() define void @f() {\nentry:\n  ret void\n}")
                   .ok());
  EXPECT_FALSE(parse_module("module \"m\" global i64 @g global i32 @g color(blue)").ok());
}

TEST(ConstPoolTest, IntsAreInternedPerWidthAndValue) {
  Module m("m");
  ConstInt* a = m.const_i32(7);
  EXPECT_EQ(m.const_i32(7), a);
  EXPECT_EQ(m.const_int(m.types().i32(), 7), a);
  ConstInt* b = m.const_i64(7);
  EXPECT_NE(b, a);
  EXPECT_EQ(b->type(), m.types().i64());
  EXPECT_NE(m.const_i32(-7), a);
  EXPECT_EQ(m.const_bool(true), m.const_int(m.types().i1(), 1));
  EXPECT_NE(m.const_bool(true), m.const_int(m.types().i8(), 1));
}

TEST(ConstPoolTest, NullsAreInternedPerPointerType) {
  Module m("m");
  const PtrType* p32 = m.types().ptr(m.types().i32());
  const PtrType* p64 = m.types().ptr(m.types().i64());
  EXPECT_EQ(m.const_null(p32), m.const_null(p32));
  EXPECT_NE(m.const_null(p32), m.const_null(p64));
  EXPECT_EQ(m.const_null(p64)->type(), p64);
}

TEST(ConstPoolTest, FloatsAreInternedByBitPattern) {
  Module m("m");
  ConstFloat* pos = m.const_f64(0.0);
  ConstFloat* neg = m.const_f64(-0.0);
  EXPECT_NE(pos, neg);  // == would merge them
  EXPECT_TRUE(std::signbit(neg->value()));
  EXPECT_EQ(m.const_f64(-0.0), neg);
  EXPECT_EQ(m.const_f64(0.0), pos);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  ConstFloat* n = m.const_f64(nan);
  EXPECT_EQ(m.const_f64(nan), n);  // == would never match a NaN
  EXPECT_TRUE(std::isnan(n->value()));
}

TEST(ConstPoolTest, NegativeZeroOperandSurvivesPrintAndReparse) {
  // Once +0.0 is pooled, a -0.0 operand must not resolve to it.
  const char* text = R"(
module "m"
define f64 @f(f64 %a) {
entry:
  %p = fadd f64 %a, f64 0.0
  %q = fdiv f64 %p, f64 -0.0
  ret f64 %q
}
)";
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  const Function* f = parsed.value()->function_by_name("f");
  const auto& insts = f->entry_block()->instructions();
  const auto* fadd = insts[0].get();
  const auto* fdiv = insts[1].get();
  const auto* zero = static_cast<const ConstFloat*>(fadd->operand(1));
  const auto* neg_zero = static_cast<const ConstFloat*>(fdiv->operand(1));
  EXPECT_NE(zero, neg_zero);
  EXPECT_FALSE(std::signbit(zero->value()));
  EXPECT_TRUE(std::signbit(neg_zero->value()));

  const std::string printed = print_module(*parsed.value());
  EXPECT_NE(printed.find("fdiv f64 %p, f64 -0"), std::string::npos) << printed;
  auto reparsed = parse_module(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.message();
  EXPECT_EQ(print_module(*reparsed.value()), printed);
}

}  // namespace
}  // namespace privagic::ir
