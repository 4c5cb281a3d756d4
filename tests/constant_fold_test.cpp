// Tests for constant folding + constant-branch simplification.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "interp/machine.hpp"
#include "ir/constant_fold.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "partition/partitioner.hpp"

namespace privagic::ir {
namespace {

std::unique_ptr<Module> parse_or_die(const char* text) {
  auto parsed = parse_module(text);
  EXPECT_TRUE(parsed.ok()) << parsed.message();
  return std::move(parsed).value();
}

TEST(ConstantFoldTest, FoldsArithmeticChains) {
  auto m = parse_or_die(R"(
module "m"
define i64 @f() {
entry:
  %a = add i64 2, i64 3
  %b = mul i64 %a, i64 4
  %c = sub i64 %b, i64 1
  %d = lshr i64 %c, i64 1
  ret i64 %d
}
)");
  Function* f = m->function_by_name("f");
  EXPECT_GT(fold_constants(*m, *f), 0u);
  EXPECT_TRUE(verify_function(*f).empty());
  // Everything folds into `ret i64 9` ((2+3)*4-1)>>1.
  EXPECT_EQ(f->instruction_count(), 1u);
  const auto* ret = static_cast<const RetInst*>(f->entry_block()->terminator());
  EXPECT_EQ(static_cast<const ConstInt*>(ret->value())->value(), 9);
}

TEST(ConstantFoldTest, FoldsFloatsAndBitcasts) {
  auto m = parse_or_die(R"(
module "m"
define i64 @f() {
entry:
  %a = fadd f64 1.5, f64 2.5
  %b = fmul f64 %a, f64 2
  %bits = cast bitcast f64 %b to i64
  ret i64 %bits
}
)");
  Function* f = m->function_by_name("f");
  fold_constants(*m, *f);
  EXPECT_EQ(f->instruction_count(), 1u);
  const auto* ret = static_cast<const RetInst*>(f->entry_block()->terminator());
  double d;
  const std::int64_t v = static_cast<const ConstInt*>(ret->value())->value();
  std::memcpy(&d, &v, 8);
  EXPECT_DOUBLE_EQ(d, 8.0);
}

TEST(ConstantFoldTest, SimplifiesConstantBranches) {
  auto m = parse_or_die(R"(
module "m"
global i64 @effect
define i64 @f() {
entry:
  %c = icmp slt i64 1, i64 2
  cond_br i1 %c, %yes, %no
yes:
  br %join
no:
  store i64 1, ptr<i64> @effect
  br %join
join:
  %r = phi i64 [ i64 10, %yes ], [ i64 20, %no ]
  ret i64 %r
}
)");
  Function* f = m->function_by_name("f");
  EXPECT_GT(fold_constants(*m, *f), 0u);
  EXPECT_TRUE(verify_function(*f).empty()) << print_function(*f);
  // The dead `no` arm (with its store) is gone.
  EXPECT_EQ(f->block_by_name("no"), nullptr);
}

TEST(ConstantFoldTest, DivisionByZeroIsLeftToTheRuntime) {
  auto m = parse_or_die(R"(
module "m"
define i64 @f() {
entry:
  %a = sdiv i64 5, i64 0
  ret i64 %a
}
)");
  Function* f = m->function_by_name("f");
  EXPECT_EQ(fold_constants(*m, *f), 0u);  // the trap is preserved
  EXPECT_EQ(f->instruction_count(), 2u);
}

TEST(ConstantFoldTest, WrapsToTypeWidth) {
  auto m = parse_or_die(R"(
module "m"
define i8 @f() {
entry:
  %a = add i8 100, i8 100
  ret i8 %a
}
)");
  Function* f = m->function_by_name("f");
  fold_constants(*m, *f);
  const auto* ret = static_cast<const RetInst*>(f->entry_block()->terminator());
  EXPECT_EQ(static_cast<const ConstInt*>(ret->value())->value(), -56);  // 200 wrapped to i8
}

TEST(ConstantFoldTest, LeavesNonConstantCodeAlone) {
  auto m = parse_or_die(R"(
module "m"
define i64 @f(i64 %x) {
entry:
  %a = add i64 %x, i64 1
  ret i64 %a
}
)");
  Function* f = m->function_by_name("f");
  EXPECT_EQ(fold_constants(*m, *f), 0u);
}

TEST(ConstantFoldTest, NegativeZeroDivisorKeepsItsSignOnEveryTier) {
  // The +0.0 addend is pooled first; the -0.0 divisor must stay its own
  // constant through parse and partition, or 1.0 / -0.0 turns into +inf.
  const char* text = R"(
module "negzero"
global f64 @one
define i64 @main() entry {
entry:
  store f64 1.0, ptr<f64> @one
  %a = load ptr<f64> @one
  %p = fadd f64 %a, f64 0.0
  %q = fdiv f64 %p, f64 -0.0
  %bits = cast bitcast f64 %q to i64
  ret i64 %bits
}
)";
  const double neg_inf = -std::numeric_limits<double>::infinity();
  std::int64_t want;
  std::memcpy(&want, &neg_inf, 8);
  for (const interp::ExecMode mode : {interp::ExecMode::kTreeWalk, interp::ExecMode::kDecoded,
                                      interp::ExecMode::kFused, interp::ExecMode::kNative}) {
    auto m = parse_or_die(text);
    const auto& insts = m->function_by_name("main")->entry_block()->instructions();
    EXPECT_NE(insts[2]->operand(1), insts[3]->operand(1));  // 0.0 vs -0.0
    sectype::TypeAnalysis analysis(*m, sectype::Mode::kHardened);
    ASSERT_TRUE(analysis.run()) << analysis.diagnostics().to_string();
    auto program = partition::partition_module(analysis);
    ASSERT_TRUE(program.ok()) << program.message();
    interp::Machine machine(*program.value(), 0, mode);
    if (mode == interp::ExecMode::kNative) machine.set_jit_threshold(0);
    auto r = machine.call("main", {});
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.value(), want) << "tier " << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace privagic::ir
