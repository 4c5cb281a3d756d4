#include "ir/parser.hpp"

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/builder.hpp"

namespace privagic::ir {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class Tok : std::uint8_t {
  kEof,
  kIdent,    // bare identifier / keyword
  kLocal,    // %name
  kGlobal,   // @name
  kInt,      // integer literal (possibly negative)
  kFloat,    // float literal
  kHexFloat, // 0x + up to 16 hex digits: an f64's IEEE-754 bit pattern
  kString,   // "..."
  kPunct,    // single punctuation char in text[0]
};

struct Token {
  Tok kind = Tok::kEof;
  std::string text;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) { advance(); }

  [[nodiscard]] const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

  [[nodiscard]] int line() const { return current_.line; }

 private:
  void advance() {
    skip_ws_and_comments();
    current_.line = line_;
    if (pos_ >= src_.size()) {
      current_ = {Tok::kEof, "", line_};
      return;
    }
    const char c = src_[pos_];
    if (c == '%' || c == '@') {
      ++pos_;
      current_ = {c == '%' ? Tok::kLocal : Tok::kGlobal, take_ident(), line_};
      return;
    }
    if (c == '"') {
      ++pos_;
      std::string s;
      while (pos_ < src_.size() && src_[pos_] != '"') s.push_back(src_[pos_++]);
      if (pos_ < src_.size()) ++pos_;  // closing quote
      current_ = {Tok::kString, std::move(s), line_};
      return;
    }
    if (c == '0' && pos_ + 1 < src_.size() && (src_[pos_ + 1] == 'x' || src_[pos_ + 1] == 'X')) {
      std::string hex = "0x";
      pos_ += 2;
      while (pos_ < src_.size() && std::isxdigit(static_cast<unsigned char>(src_[pos_])) != 0) {
        hex.push_back(src_[pos_++]);
      }
      current_ = {Tok::kHexFloat, std::move(hex), line_};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '-' && pos_ + 1 < src_.size() &&
         std::isdigit(static_cast<unsigned char>(src_[pos_ + 1])) != 0)) {
      std::string num;
      num.push_back(src_[pos_++]);
      bool is_float = false;
      while (pos_ < src_.size()) {
        const char d = src_[pos_];
        if (std::isdigit(static_cast<unsigned char>(d)) != 0) {
          num.push_back(d);
          ++pos_;
        } else if ((d == '.' || d == 'e' || d == 'E' || d == '+' || d == '-') &&
                   (d != '-' || (num.back() == 'e' || num.back() == 'E')) &&
                   (d != '+' || (num.back() == 'e' || num.back() == 'E'))) {
          is_float = true;
          num.push_back(d);
          ++pos_;
        } else {
          break;
        }
      }
      current_ = {is_float ? Tok::kFloat : Tok::kInt, std::move(num), line_};
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      current_ = {Tok::kIdent, take_ident(), line_};
      return;
    }
    ++pos_;
    current_ = {Tok::kPunct, std::string(1, c), line_};
  }

  std::string take_ident() {
    std::string s;
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '.' || c == '$') {
        s.push_back(c);
        ++pos_;
      } else {
        break;
      }
    }
    return s;
  }

  void skip_ws_and_comments() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == ';') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  Token current_;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Thrown internally; converted to a Result error at the API boundary.
class ParseError : public std::runtime_error {
 public:
  ParseError(int line, const std::string& what)
      : std::runtime_error("line " + std::to_string(line) + ": " + what) {}
};

class Parser {
 public:
  explicit Parser(std::string_view src) : lex_(src) {}

  std::unique_ptr<Module> parse() {
    expect_ident("module");
    const Token name = expect(Tok::kString, "module name string");
    module_ = std::make_unique<Module>(name.text);
    while (lex_.peek().kind != Tok::kEof) {
      const Token t = expect(Tok::kIdent, "top-level item");
      if (t.text == "struct") {
        parse_struct();
      } else if (t.text == "global") {
        parse_global();
      } else if (t.text == "declare") {
        parse_function(/*has_body=*/false);
      } else if (t.text == "define") {
        parse_function(/*has_body=*/true);
      } else {
        fail("unexpected top-level item '" + t.text + "'");
      }
    }
    // Function bodies are parsed in a second phase so that direct calls may
    // reference functions defined later in the file.
    for (auto& [fn, body_lexer] : pending_bodies_) {
      lex_ = body_lexer;
      parse_body(fn);
    }
    pending_bodies_.clear();
    return std::move(module_);
  }

 private:
  [[noreturn]] void fail(const std::string& what) const { throw ParseError(lex_.line(), what); }

  /// The f64 constant a literal token spells under a float annotation:
  /// decimal (`2`, `-0`, `1.5e-3`) or, for values decimal cannot spell (NaN,
  /// ±inf), the IEEE-754 bit pattern in hex — the printer's two forms.
  ConstFloat* f64_literal(const Token& t) {
    if (t.kind != Tok::kHexFloat) return module_->const_f64(std::strtod(t.text.c_str(), nullptr));
    if (t.text.size() < 3 || t.text.size() > 18) {
      throw ParseError(t.line, "bad f64 bit pattern '" + t.text + "'");
    }
    const std::uint64_t bits = std::strtoull(t.text.c_str() + 2, nullptr, 16);
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return module_->const_f64(d);
  }

  Token expect(Tok kind, const char* what) {
    if (lex_.peek().kind != kind) {
      fail(std::string("expected ") + what + ", got '" + lex_.peek().text + "'");
    }
    return lex_.take();
  }

  void expect_ident(std::string_view word) {
    const Token t = expect(Tok::kIdent, "keyword");
    if (t.text != word) fail("expected '" + std::string(word) + "', got '" + t.text + "'");
  }

  void expect_punct(char c) {
    const Token t = expect(Tok::kPunct, "punctuation");
    if (t.text[0] != c) fail(std::string("expected '") + c + "', got '" + t.text + "'");
  }

  bool accept_punct(char c) {
    if (lex_.peek().kind == Tok::kPunct && lex_.peek().text[0] == c) {
      lex_.take();
      return true;
    }
    return false;
  }

  bool accept_ident(std::string_view word) {
    if (lex_.peek().kind == Tok::kIdent && lex_.peek().text == word) {
      lex_.take();
      return true;
    }
    return false;
  }

  /// color? := 'color' '(' ID ')'
  std::string parse_optional_color() {
    if (!accept_ident("color")) return "";
    expect_punct('(');
    const Token c = expect(Tok::kIdent, "color name");
    expect_punct(')');
    return c.text;
  }

  const Type* parse_type() {
    TypeContext& types = module_->types();
    if (accept_punct('[')) {
      const Token n = expect(Tok::kInt, "array length");
      expect_ident("x");
      const Type* elem = parse_type();
      expect_punct(']');
      return types.array(elem, std::strtoull(n.text.c_str(), nullptr, 10));
    }
    if (lex_.peek().kind == Tok::kLocal) {
      const Token st = lex_.take();
      const StructType* s = types.struct_by_name(st.text);
      if (s == nullptr) fail("unknown struct type %" + st.text);
      return s;
    }
    const Token t = expect(Tok::kIdent, "type");
    if (t.text == "void") return types.void_type();
    if (t.text == "f64") return types.f64();
    if (t.text == "ptr") {
      expect_punct('<');
      const Type* pointee = parse_type();
      // A '(' after the pointee means a function type: ptr<i32 (i32, f64)>.
      if (accept_punct('(')) {
        std::vector<const Type*> params;
        if (!accept_punct(')')) {
          do {
            params.push_back(parse_type());
          } while (accept_punct(','));
          expect_punct(')');
        }
        pointee = types.func(pointee, std::move(params));
      }
      const std::string qual = parse_optional_color();
      expect_punct('>');
      return types.ptr(pointee, qual);
    }
    if (t.text.size() >= 2 && t.text[0] == 'i') {
      const unsigned bits = static_cast<unsigned>(std::strtoul(t.text.c_str() + 1, nullptr, 10));
      if (bits == 0 || bits > 64) fail("bad integer type " + t.text);
      return types.int_type(bits);
    }
    fail("unknown type '" + t.text + "'");
  }

  void parse_struct() {
    const Token name = expect(Tok::kLocal, "struct name");
    expect_punct('{');
    std::vector<StructField> fields;
    if (!accept_punct('}')) {
      do {
        StructField f;
        f.type = parse_type();
        f.name = expect(Tok::kIdent, "field name").text;
        f.color = parse_optional_color();
        fields.push_back(std::move(f));
      } while (accept_punct(','));
      expect_punct('}');
    }
    if (module_->types().create_struct(name.text, std::move(fields)) == nullptr) {
      fail("duplicate struct %" + name.text);
    }
  }

  void parse_global() {
    const Type* type = parse_type();
    const Token name = expect(Tok::kGlobal, "global name");
    std::int64_t init = 0;
    if (accept_punct('=')) {
      const Token v = expect(Tok::kInt, "global initializer");
      init = std::strtoll(v.text.c_str(), nullptr, 10);
    }
    if (module_->global_by_name(name.text) != nullptr) fail("duplicate global @" + name.text);
    module_->create_global(type, name.text, init, parse_optional_color());
  }

  struct ParamDecl {
    const Type* type = nullptr;
    std::string name;
    std::string color;
  };

  void parse_function(bool has_body) {
    const Type* ret = parse_type();
    const Token name = expect(Tok::kGlobal, "function name");
    expect_punct('(');
    std::vector<ParamDecl> params;
    if (!accept_punct(')')) {
      do {
        ParamDecl p;
        p.type = parse_type();
        if (lex_.peek().kind == Tok::kLocal) p.name = lex_.take().text;
        p.color = parse_optional_color();
        params.push_back(std::move(p));
      } while (accept_punct(','));
      expect_punct(')');
    }

    std::vector<const Type*> param_types;
    param_types.reserve(params.size());
    for (const auto& p : params) param_types.push_back(p.type);
    const FuncType* fn_type = module_->types().func(ret, std::move(param_types));

    if (module_->function_by_name(name.text) != nullptr) {
      fail("duplicate function @" + name.text);
    }
    Function* fn = module_->create_function(fn_type, name.text);
    for (std::size_t i = 0; i < params.size(); ++i) {
      Argument* arg =
          fn->add_argument(params[i].name.empty() ? "a" + std::to_string(i) : params[i].name);
      arg->set_color(params[i].color);
    }

    // Attributes.
    while (true) {
      if (accept_ident("entry")) {
        fn->set_entry_point(true);
      } else if (accept_ident("within")) {
        fn->set_within(true);
      } else if (accept_ident("ignore")) {
        fn->set_ignore(true);
      } else {
        break;
      }
    }

    if (!has_body) return;
    expect_punct('{');
    // Defer the body: remember the lexer state and skip to the closing '}'
    // (instruction syntax contains no braces, so the first '}' ends the
    // body).
    pending_bodies_.emplace_back(fn, lex_);
    while (lex_.peek().kind != Tok::kEof &&
           !(lex_.peek().kind == Tok::kPunct && lex_.peek().text[0] == '}')) {
      lex_.take();
    }
    expect_punct('}');
  }

  // -- Function bodies ---------------------------------------------------------

  struct PhiFixup {
    PhiInst* phi = nullptr;
    std::size_t incoming_index = 0;
    std::string value_name;
    const Type* type = nullptr;
    int line = 0;
  };

  void parse_body(Function* fn) {
    locals_.clear();
    phi_fixups_.clear();
    label_order_.clear();
    for (const auto& arg : fn->arguments()) locals_[arg->name()] = arg.get();

    IRBuilder builder(*module_);

    // Blocks are created on first mention (label or branch target), so
    // forward branch references work. Track label order to keep entry first.
    BasicBlock* current = nullptr;

    while (!accept_punct('}')) {
      // A label?  `ident ':'`
      if (lex_.peek().kind == Tok::kIdent) {
        // Could be a label or an opcode; disambiguate by the following ':'.
        // Opcodes are never followed by ':', labels always are. We need
        // one-token lookahead, so take the ident then check.
        const Token t = lex_.take();
        if (accept_punct(':')) {
          BasicBlock* bb = get_or_create_block(fn, t.text);
          label_order_.push_back(bb);
          current = bb;
          builder.set_insertion_point(current);
          continue;
        }
        if (current == nullptr) fail("instruction before first block label");
        parse_instruction(builder, fn, t, /*result_name=*/"");
        continue;
      }
      // `%name = op ...`
      if (lex_.peek().kind == Tok::kLocal) {
        const Token res = lex_.take();
        expect_punct('=');
        const Token op = expect(Tok::kIdent, "opcode");
        if (current == nullptr) fail("instruction before first block label");
        parse_instruction(builder, fn, op, res.text);
        continue;
      }
      fail("expected instruction, label, or '}'");
    }

    resolve_phi_fixups();
    // Forward branch targets create blocks before their labels appear;
    // restore textual label order so printing is canonical and the first
    // label is the entry block.
    fn->reorder_blocks(label_order_);
    label_order_.clear();
  }

  BasicBlock* get_or_create_block(Function* fn, const std::string& name) {
    if (BasicBlock* bb = fn->block_by_name(name); bb != nullptr) return bb;
    return fn->create_block(name);
  }

  /// operand := [type] %id | type (@id | INT | FLOAT | 'null')
  /// A leading %id is always a value reference (operand types are
  /// first-class, so a struct type can never open an operand), which lets
  /// the type annotation be omitted for locals.
  Value* parse_operand() {
    if (lex_.peek().kind == Tok::kLocal) {
      const Token t = lex_.take();
      auto it = locals_.find(t.text);
      if (it == locals_.end()) {
        throw ParseError(t.line, "use of undefined value %" + t.text +
                                     " (only phi incomings may forward-reference)");
      }
      return it->second;
    }
    const Type* type = parse_type();
    const Token t = lex_.take();
    switch (t.kind) {
      case Tok::kLocal: {
        auto it = locals_.find(t.text);
        if (it == locals_.end()) {
          throw ParseError(t.line, "use of undefined value %" + t.text +
                                       " (only phi incomings may forward-reference)");
        }
        if (it->second->type() != type) {
          throw ParseError(t.line, "operand %" + t.text + " has type " +
                                       it->second->type()->to_string() + ", annotated as " +
                                       type->to_string());
        }
        return it->second;
      }
      case Tok::kGlobal: {
        if (GlobalVariable* g = module_->global_by_name(t.text); g != nullptr) return g;
        if (Function* f = module_->function_by_name(t.text); f != nullptr) return f;
        throw ParseError(t.line, "unknown global @" + t.text);
      }
      case Tok::kInt: {
        if (type->is_float()) return f64_literal(t);  // `f64 2`: integer spelling
        const auto* it = dynamic_cast<const IntType*>(type);
        if (it == nullptr) throw ParseError(t.line, "integer literal with non-integer type");
        return module_->const_int(it, std::strtoll(t.text.c_str(), nullptr, 10));
      }
      case Tok::kFloat:
      case Tok::kHexFloat: {
        if (!type->is_float()) throw ParseError(t.line, "float literal with non-float type");
        return f64_literal(t);
      }
      case Tok::kIdent: {
        if (t.text == "null") {
          const auto* pt = dynamic_cast<const PtrType*>(type);
          if (pt == nullptr) throw ParseError(t.line, "'null' with non-pointer type");
          return module_->const_null(pt);
        }
        break;
      }
      default:
        break;
    }
    throw ParseError(t.line, "bad operand '" + t.text + "'");
  }

  void define_local(const std::string& name, Instruction* v, int line) {
    if (name.empty()) return;
    if (!locals_.emplace(name, v).second) {
      throw ParseError(line, "redefinition of %" + name);
    }
    v->set_name(name);
  }

  void parse_instruction(IRBuilder& b, Function* fn, const Token& op, std::string result_name) {
    const int line = op.line;
    const std::string& o = op.text;

    static const std::unordered_map<std::string, BinOpKind> kBinOps = {
        {"add", BinOpKind::kAdd},   {"sub", BinOpKind::kSub},   {"mul", BinOpKind::kMul},
        {"sdiv", BinOpKind::kSDiv}, {"srem", BinOpKind::kSRem}, {"and", BinOpKind::kAnd},
        {"or", BinOpKind::kOr},     {"xor", BinOpKind::kXor},   {"shl", BinOpKind::kShl},
        {"lshr", BinOpKind::kLShr}, {"fadd", BinOpKind::kFAdd}, {"fsub", BinOpKind::kFSub},
        {"fmul", BinOpKind::kFMul}, {"fdiv", BinOpKind::kFDiv}};

    try {
      if (o == "alloca" || o == "heap_alloc") {
        const Type* contained = parse_type();
        const std::string color = parse_optional_color();
        Instruction* inst = (o == "alloca")
                                ? static_cast<Instruction*>(b.alloca_inst(contained, "", color))
                                : static_cast<Instruction*>(b.heap_alloc(contained, "", color));
        define_local(result_name, inst, line);
      } else if (o == "heap_free") {
        b.heap_free(parse_operand());
      } else if (o == "load") {
        define_local(result_name, b.load(parse_operand(), ""), line);
      } else if (o == "store") {
        Value* v = parse_operand();
        expect_punct(',');
        Value* p = parse_operand();
        b.store(v, p);
      } else if (o == "gep") {
        Value* base = parse_operand();
        expect_punct(',');
        if (accept_ident("field")) {
          const Token idx = expect(Tok::kInt, "field index");
          define_local(result_name,
                       b.gep_field(base, static_cast<int>(std::strtol(idx.text.c_str(), nullptr, 10)), ""),
                       line);
        } else {
          expect_ident("index");
          define_local(result_name, b.gep_index(base, parse_operand(), ""), line);
        }
      } else if (auto it = kBinOps.find(o); it != kBinOps.end()) {
        Value* lhs = parse_operand();
        expect_punct(',');
        Value* rhs = parse_operand();
        define_local(result_name, b.binop(it->second, lhs, rhs, ""), line);
      } else if (o == "icmp") {
        static const std::unordered_map<std::string, ICmpPred> kPreds = {
            {"eq", ICmpPred::kEq},   {"ne", ICmpPred::kNe},   {"slt", ICmpPred::kSlt},
            {"sle", ICmpPred::kSle}, {"sgt", ICmpPred::kSgt}, {"sge", ICmpPred::kSge}};
        const Token pred = expect(Tok::kIdent, "icmp predicate");
        auto pit = kPreds.find(pred.text);
        if (pit == kPreds.end()) fail("bad icmp predicate '" + pred.text + "'");
        Value* lhs = parse_operand();
        expect_punct(',');
        Value* rhs = parse_operand();
        define_local(result_name, b.icmp(pit->second, lhs, rhs, ""), line);
      } else if (o == "cast") {
        static const std::unordered_map<std::string, CastKind> kCasts = {
            {"bitcast", CastKind::kBitcast},   {"zext", CastKind::kZext},
            {"sext", CastKind::kSext},         {"trunc", CastKind::kTrunc},
            {"ptrtoint", CastKind::kPtrToInt}, {"inttoptr", CastKind::kIntToPtr}};
        const Token kind = expect(Tok::kIdent, "cast kind");
        auto cit = kCasts.find(kind.text);
        if (cit == kCasts.end()) fail("bad cast kind '" + kind.text + "'");
        Value* v = parse_operand();
        expect_ident("to");
        const Type* to = parse_type();
        define_local(result_name, b.cast(cit->second, to, v, ""), line);
      } else if (o == "phi") {
        const Type* type = parse_type();
        PhiInst* phi = b.phi(type, "");
        define_local(result_name, phi, line);
        do {
          expect_punct('[');
          parse_phi_incoming(phi, type);
          expect_punct(']');
        } while (accept_punct(','));
      } else if (o == "br") {
        const Token target = expect(Tok::kLocal, "branch target");
        b.br(get_or_create_block(fn, target.text));
      } else if (o == "cond_br") {
        Value* cond = parse_operand();
        expect_punct(',');
        const Token then_t = expect(Tok::kLocal, "then target");
        expect_punct(',');
        const Token else_t = expect(Tok::kLocal, "else target");
        b.cond_br(cond, get_or_create_block(fn, then_t.text),
                  get_or_create_block(fn, else_t.text));
      } else if (o == "call") {
        const Type* ret = parse_type();
        const Token callee_t = expect(Tok::kGlobal, "callee");
        Function* callee = module_->function_by_name(callee_t.text);
        if (callee == nullptr) fail("call to unknown function @" + callee_t.text);
        if (callee->return_type() != ret) fail("call return type mismatch for @" + callee_t.text);
        define_local(result_name, b.call(callee, parse_call_args(), ""), line);
      } else if (o == "call_indirect") {
        parse_type();  // annotated return type; checked against the fn ptr below
        Value* fp = parse_operand();
        define_local(result_name, b.call_indirect(fp, parse_call_args(), ""), line);
      } else if (o == "ret") {
        if (accept_ident("void")) {
          b.ret_void();
        } else {
          b.ret(parse_operand());
        }
      } else {
        fail("unknown opcode '" + o + "'");
      }
    } catch (const std::invalid_argument& e) {
      throw ParseError(line, e.what());
    }
  }

  std::vector<Value*> parse_call_args() {
    expect_punct('(');
    std::vector<Value*> args;
    if (!accept_punct(')')) {
      do {
        args.push_back(parse_operand());
      } while (accept_punct(','));
      expect_punct(')');
    }
    return args;
  }

  void parse_phi_incoming(PhiInst* phi, const Type* type) {
    // `[type] (%id | literal), %block` — the value type is optional (it is
    // the phi's type); %id may be a forward reference. A leading %id is
    // always a value, never a struct type (phis hold first-class values).
    if (lex_.peek().kind == Tok::kIdent || (lex_.peek().kind == Tok::kPunct &&
                                            lex_.peek().text[0] == '[')) {
      if (lex_.peek().text != "null") {
        const Type* vtype = parse_type();
        if (vtype != type) fail("phi incoming type mismatch");
      }
    }
    const Token vt = lex_.take();
    Value* value = nullptr;
    std::string pending_name;
    if (vt.kind == Tok::kLocal) {
      auto it = locals_.find(vt.text);
      if (it != locals_.end()) {
        value = it->second;
      } else {
        pending_name = vt.text;  // forward reference, fixed up later
      }
    } else if (vt.kind == Tok::kInt && !type->is_float()) {
      value = module_->const_int(static_cast<const IntType*>(type),
                                 std::strtoll(vt.text.c_str(), nullptr, 10));
    } else if (vt.kind == Tok::kInt || vt.kind == Tok::kFloat || vt.kind == Tok::kHexFloat) {
      if (!type->is_float()) fail("float literal with non-float type");
      value = f64_literal(vt);
    } else if (vt.kind == Tok::kIdent && vt.text == "null") {
      value = module_->const_null(static_cast<const PtrType*>(type));
    } else if (vt.kind == Tok::kGlobal) {
      value = module_->global_by_name(vt.text);
      if (value == nullptr) value = module_->function_by_name(vt.text);
      if (value == nullptr) fail("unknown global @" + vt.text);
    } else {
      fail("bad phi incoming value");
    }
    expect_punct(',');
    const Token bb_t = expect(Tok::kLocal, "phi incoming block");
    BasicBlock* bb = get_or_create_block(phi->parent()->parent(), bb_t.text);
    if (value != nullptr) {
      phi->add_incoming(value, bb);
    } else {
      phi->add_incoming(nullptr, bb);
      phi_fixups_.push_back({phi, phi->incoming_count() - 1, pending_name, type, vt.line});
    }
  }

  void resolve_phi_fixups() {
    for (const auto& fix : phi_fixups_) {
      auto it = locals_.find(fix.value_name);
      if (it == locals_.end()) {
        throw ParseError(fix.line, "phi references undefined value %" + fix.value_name);
      }
      if (it->second->type() != fix.type) {
        throw ParseError(fix.line, "phi incoming %" + fix.value_name + " type mismatch");
      }
      fix.phi->set_incoming_value(fix.incoming_index, it->second);
    }
    phi_fixups_.clear();
  }

  Lexer lex_;
  std::unique_ptr<Module> module_;
  std::unordered_map<std::string, Value*> locals_;
  std::vector<PhiFixup> phi_fixups_;
  std::vector<BasicBlock*> label_order_;
  std::vector<std::pair<Function*, Lexer>> pending_bodies_;
};

}  // namespace

Result<std::unique_ptr<Module>> parse_module(std::string_view text) {
  try {
    Parser parser(text);
    return parser.parse();
  } catch (const ParseError& e) {
    return Result<std::unique_ptr<Module>>::error(e.what());
  }
}

}  // namespace privagic::ir
