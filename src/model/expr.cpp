#include "model/expr.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "model/dchare.hpp"

namespace cpy {

namespace {

enum class Tok {
  End,
  Number,
  String,
  Ident,
  Dot,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Comma,
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or,
  Not,
};

struct Token {
  Tok kind = Tok::End;
  std::string text;
  double num = 0.0;
  bool is_int = false;
  std::size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& s) : s_(s) {}

  Token next() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
    Token t;
    t.pos = i_;
    if (i_ >= s_.size()) return t;
    const char c = s_[i_];
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i_ + 1 < s_.size() &&
         std::isdigit(static_cast<unsigned char>(s_[i_ + 1])))) {
      return lex_number();
    }
    if (c == '\'' || c == '"') return lex_string(c);
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return lex_ident();
    }
    ++i_;
    switch (c) {
      case '.': t.kind = Tok::Dot; return t;
      case '(': t.kind = Tok::LParen; return t;
      case ')': t.kind = Tok::RParen; return t;
      case '[': t.kind = Tok::LBracket; return t;
      case ']': t.kind = Tok::RBracket; return t;
      case ',': t.kind = Tok::Comma; return t;
      case '+': t.kind = Tok::Plus; return t;
      case '-': t.kind = Tok::Minus; return t;
      case '*': t.kind = Tok::Star; return t;
      case '/': t.kind = Tok::Slash; return t;
      case '%': t.kind = Tok::Percent; return t;
      case '=':
        if (take('=')) {
          t.kind = Tok::Eq;
          return t;
        }
        fail(t.pos, "'=' is not a condition operator (use '==')");
      case '!':
        if (take('=')) {
          t.kind = Tok::Ne;
          return t;
        }
        fail(t.pos, "unexpected '!'");
      case '<':
        t.kind = take('=') ? Tok::Le : Tok::Lt;
        return t;
      case '>':
        t.kind = take('=') ? Tok::Ge : Tok::Gt;
        return t;
      default: fail(t.pos, std::string("unexpected character '") + c + "'");
    }
  }

  [[noreturn]] static void fail(std::size_t pos, const std::string& what) {
    throw std::runtime_error("condition syntax error at position " +
                             std::to_string(pos) + ": " + what);
  }

 private:
  bool take(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  Token lex_number() {
    Token t;
    t.pos = i_;
    const std::size_t start = i_;
    bool is_int = true;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            ((s_[i_] == '+' || s_[i_] == '-') && i_ > start &&
             (s_[i_ - 1] == 'e' || s_[i_ - 1] == 'E')))) {
      if (!std::isdigit(static_cast<unsigned char>(s_[i_]))) is_int = false;
      ++i_;
    }
    t.kind = Tok::Number;
    t.text = s_.substr(start, i_ - start);
    t.num = std::strtod(t.text.c_str(), nullptr);
    t.is_int = is_int;
    return t;
  }

  Token lex_string(char quote) {
    Token t;
    t.pos = i_;
    ++i_;  // opening quote
    const std::size_t start = i_;
    while (i_ < s_.size() && s_[i_] != quote) ++i_;
    if (i_ >= s_.size()) fail(t.pos, "unterminated string literal");
    t.kind = Tok::String;
    t.text = s_.substr(start, i_ - start);
    ++i_;  // closing quote
    return t;
  }

  Token lex_ident() {
    Token t;
    t.pos = i_;
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '_')) {
      ++i_;
    }
    t.text = s_.substr(start, i_ - start);
    if (t.text == "and") t.kind = Tok::And;
    else if (t.text == "or") t.kind = Tok::Or;
    else if (t.text == "not") t.kind = Tok::Not;
    else t.kind = Tok::Ident;
    return t;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

enum class Op {
  Const,
  Name,
  SelfAttr,  // folded self.<name>: one attribute lookup by key and name
  Attr,
  Index,
  Call,
  And,
  Or,
  Not,
  Neg,
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  CmpChain,  // a OP b OP c ... (Python chained comparison)
};

}  // namespace

struct Expr::Node {
  Op op = Op::Const;
  Value lit;
  std::string name;  // Name / SelfAttr / Attr member / Call function
  cx::AttrKey key = 0;  // SelfAttr: cx::attr_key(name)
  std::shared_ptr<const Node> a, b;
  std::vector<std::shared_ptr<const Node>> args;  // Call args / chain operands
  std::vector<Op> cmps;  // CmpChain comparators (args.size() - 1 of them)
};

namespace {

using NodePtr = std::shared_ptr<const Expr::Node>;
using Node = Expr::Node;

NodePtr mk(Op op) {
  auto n = std::make_shared<Node>();
  n->op = op;
  return n;
}

class Parser {
 public:
  explicit Parser(const std::string& s) : lex_(s) { advance(); }

  NodePtr parse() {
    NodePtr e = or_expr();
    if (cur_.kind != Tok::End) {
      Lexer::fail(cur_.pos, "trailing input");
    }
    return e;
  }

 private:
  void advance() { cur_ = lex_.next(); }

  bool accept(Tok k) {
    if (cur_.kind == k) {
      advance();
      return true;
    }
    return false;
  }

  void expect(Tok k, const char* what) {
    if (!accept(k)) Lexer::fail(cur_.pos, std::string("expected ") + what);
  }

  NodePtr or_expr() {
    NodePtr a = and_expr();
    while (cur_.kind == Tok::Or) {
      advance();
      auto n = std::make_shared<Node>();
      n->op = Op::Or;
      n->a = a;
      n->b = and_expr();
      a = n;
    }
    return a;
  }

  NodePtr and_expr() {
    NodePtr a = not_expr();
    while (cur_.kind == Tok::And) {
      advance();
      auto n = std::make_shared<Node>();
      n->op = Op::And;
      n->a = a;
      n->b = not_expr();
      a = n;
    }
    return a;
  }

  NodePtr not_expr() {
    if (accept(Tok::Not)) {
      auto n = std::make_shared<Node>();
      n->op = Op::Not;
      n->a = not_expr();
      return n;
    }
    return comparison();
  }

  static bool cmp_tok(Tok k, Op& op) {
    switch (k) {
      case Tok::Eq: op = Op::Eq; return true;
      case Tok::Ne: op = Op::Ne; return true;
      case Tok::Lt: op = Op::Lt; return true;
      case Tok::Le: op = Op::Le; return true;
      case Tok::Gt: op = Op::Gt; return true;
      case Tok::Ge: op = Op::Ge; return true;
      default: return false;
    }
  }

  NodePtr comparison() {
    NodePtr a = arith();
    Op op;
    if (!cmp_tok(cur_.kind, op)) return a;
    advance();
    NodePtr b = arith();
    Op op2;
    if (!cmp_tok(cur_.kind, op2)) {
      auto n = std::make_shared<Node>();
      n->op = op;
      n->a = a;
      n->b = b;
      return n;
    }
    // Python chained comparison: `a < b <= c` means `a < b and b <= c`,
    // with each operand evaluated exactly once, left to right.
    auto n = std::make_shared<Node>();
    n->op = Op::CmpChain;
    n->args.push_back(a);
    n->args.push_back(b);
    n->cmps.push_back(op);
    while (cmp_tok(cur_.kind, op2)) {
      advance();
      n->cmps.push_back(op2);
      n->args.push_back(arith());
    }
    return n;
  }

  NodePtr arith() {
    NodePtr a = term();
    for (;;) {
      Op op;
      if (cur_.kind == Tok::Plus) op = Op::Add;
      else if (cur_.kind == Tok::Minus) op = Op::Sub;
      else return a;
      advance();
      auto n = std::make_shared<Node>();
      n->op = op;
      n->a = a;
      n->b = term();
      a = n;
    }
  }

  NodePtr term() {
    NodePtr a = unary();
    for (;;) {
      Op op;
      if (cur_.kind == Tok::Star) op = Op::Mul;
      else if (cur_.kind == Tok::Slash) op = Op::Div;
      else if (cur_.kind == Tok::Percent) op = Op::Mod;
      else return a;
      advance();
      auto n = std::make_shared<Node>();
      n->op = op;
      n->a = a;
      n->b = unary();
      a = n;
    }
  }

  NodePtr unary() {
    if (accept(Tok::Minus)) {
      auto n = std::make_shared<Node>();
      n->op = Op::Neg;
      n->a = unary();
      return n;
    }
    return postfix();
  }

  NodePtr postfix() {
    NodePtr a = primary();
    for (;;) {
      if (accept(Tok::Dot)) {
        if (cur_.kind != Tok::Ident) {
          Lexer::fail(cur_.pos, "attribute name after '.'");
        }
        auto n = std::make_shared<Node>();
        if (a->op == Op::Name && a->name == "self") {
          // Fold `self.x` into one node, keyed once here: one probe of
          // the chare's attribute index at eval time, and the unit of
          // dependency extraction.
          n->op = Op::SelfAttr;
          n->name = cur_.text;
          n->key = cx::attr_key(n->name);
        } else {
          n->op = Op::Attr;
          n->name = cur_.text;
          n->a = a;
        }
        advance();
        a = n;
      } else if (accept(Tok::LBracket)) {
        auto n = std::make_shared<Node>();
        n->op = Op::Index;
        n->a = a;
        n->b = or_expr();
        expect(Tok::RBracket, "']'");
        a = n;
      } else if (cur_.kind == Tok::LParen && a->op == Op::Name) {
        advance();
        auto n = std::make_shared<Node>();
        n->op = Op::Call;
        n->name = a->name;
        if (cur_.kind != Tok::RParen) {
          n->args.push_back(or_expr());
          while (accept(Tok::Comma)) n->args.push_back(or_expr());
        }
        expect(Tok::RParen, "')'");
        a = n;
      } else {
        return a;
      }
    }
  }

  NodePtr primary() {
    if (cur_.kind == Tok::Number) {
      auto n = mk(Op::Const);
      auto m = std::const_pointer_cast<Node>(n);
      m->lit = cur_.is_int
                   ? Value(static_cast<std::int64_t>(cur_.num))
                   : Value(cur_.num);
      advance();
      return n;
    }
    if (cur_.kind == Tok::String) {
      auto n = mk(Op::Const);
      std::const_pointer_cast<Node>(n)->lit = Value(cur_.text);
      advance();
      return n;
    }
    if (cur_.kind == Tok::Ident) {
      auto n = std::make_shared<Node>();
      if (cur_.text == "True") {
        n->op = Op::Const;
        n->lit = Value(true);
      } else if (cur_.text == "False") {
        n->op = Op::Const;
        n->lit = Value(false);
      } else if (cur_.text == "None") {
        n->op = Op::Const;
        n->lit = Value::none();
      } else {
        n->op = Op::Name;
        n->name = cur_.text;
      }
      advance();
      return n;
    }
    if (accept(Tok::LParen)) {
      NodePtr e = or_expr();
      expect(Tok::RParen, "')'");
      return e;
    }
    Lexer::fail(cur_.pos, "expected an expression");
  }

  Lexer lex_;
  Token cur_;
};

// ---------------------------------------------------------------------------
// Evaluation

bool both_int(const Value& a, const Value& b) {
  return (a.kind() == Kind::Int || a.kind() == Kind::Bool) &&
         (b.kind() == Kind::Int || b.kind() == Kind::Bool);
}

Value arith_op(Op op, const Value& a, const Value& b) {
  if (op == Op::Add && a.kind() == Kind::Str && b.kind() == Kind::Str) {
    return Value(a.as_str() + b.as_str());
  }
  if (op == Op::Div) {
    return Value(a.as_real() / b.as_real());  // Python 3 true division
  }
  if (both_int(a, b)) {
    const std::int64_t x = a.as_int();
    const std::int64_t y = b.as_int();
    switch (op) {
      case Op::Add: return Value(x + y);
      case Op::Sub: return Value(x - y);
      case Op::Mul: return Value(x * y);
      case Op::Mod: {
        if (y == 0) throw std::runtime_error("ZeroDivisionError");
        std::int64_t m = x % y;  // Python-style: result has sign of divisor
        if (m != 0 && ((m < 0) != (y < 0))) m += y;
        return Value(m);
      }
      default: break;
    }
  }
  const double x = a.as_real();
  const double y = b.as_real();
  switch (op) {
    case Op::Add: return Value(x + y);
    case Op::Sub: return Value(x - y);
    case Op::Mul: return Value(x * y);
    case Op::Mod: return Value(x - y * std::floor(x / y));
    default: break;
  }
  throw std::logic_error("expr: bad arithmetic op");
}

bool cmp_holds(Op op, const Value& a, const Value& b) {
  switch (op) {
    case Op::Eq: return a.equals(b);
    case Op::Ne: return !a.equals(b);
    case Op::Lt: return a.compare(b) < 0;
    case Op::Le: return a.compare(b) <= 0;
    case Op::Gt: return a.compare(b) > 0;
    case Op::Ge: return a.compare(b) >= 0;
    default: throw std::logic_error("expr: bad comparison op");
  }
}

Value resolve_name(const EvalCtx& ctx, const std::string& name) {
  if (ctx.self != nullptr && name == "self") return *ctx.self;
  if (ctx.params != nullptr && ctx.args != nullptr) {
    const auto& ps = *ctx.params;
    for (std::size_t i = 0; i < ps.size() && i < ctx.args->size(); ++i) {
      if (ps[i] == name) return (*ctx.args)[i];
    }
  }
  if (ctx.fallback != nullptr) return (*ctx.fallback)(name);
  throw std::runtime_error("NameError: name '" + name +
                           "' is not defined in this condition");
}

Value self_attr(const EvalCtx& ctx, const Node& n) {
  if (ctx.chare != nullptr) {
    // Hot path: one probe of the chare's attribute index.
    if (const Value* v = ctx.chare->find_attr(n.key, n.name)) return *v;
    return ctx.chare->attrs().item(Value(n.name));  // canonical KeyError
  }
  return resolve_name(ctx, "self").item(Value(n.name));
}

Value eval_node(const Node& n, const EvalCtx& ctx) {
  switch (n.op) {
    case Op::Const: return n.lit;
    case Op::Name: return resolve_name(ctx, n.name);
    case Op::SelfAttr: return self_attr(ctx, n);
    case Op::Attr: {
      const Value base = eval_node(*n.a, ctx);
      return base.item(Value(n.name));
    }
    case Op::Index: {
      const Value base = eval_node(*n.a, ctx);
      return base.item(eval_node(*n.b, ctx));
    }
    case Op::Call: {
      std::vector<Value> args;
      args.reserve(n.args.size());
      for (const auto& a : n.args) args.push_back(eval_node(*a, ctx));
      if (n.name == "len" && args.size() == 1) {
        return Value(static_cast<std::int64_t>(args[0].length()));
      }
      if (n.name == "abs" && args.size() == 1) {
        if (args[0].kind() == Kind::Int) {
          return Value(std::abs(args[0].as_int()));
        }
        return Value(std::fabs(args[0].as_real()));
      }
      if (n.name == "min" && args.size() == 2) {
        return args[0].compare(args[1]) <= 0 ? args[0] : args[1];
      }
      if (n.name == "max" && args.size() == 2) {
        return args[0].compare(args[1]) >= 0 ? args[0] : args[1];
      }
      throw std::runtime_error("NameError: unknown function '" + n.name +
                               "' (or wrong arity)");
    }
    case Op::And: {
      const Value a = eval_node(*n.a, ctx);
      if (!a.truthy()) return a;  // short circuit, Python semantics
      return eval_node(*n.b, ctx);
    }
    case Op::Or: {
      const Value a = eval_node(*n.a, ctx);
      if (a.truthy()) return a;
      return eval_node(*n.b, ctx);
    }
    case Op::Not: return Value(!eval_node(*n.a, ctx).truthy());
    case Op::Neg: {
      const Value a = eval_node(*n.a, ctx);
      if (a.kind() == Kind::Int) return Value(-a.as_int());
      return Value(-a.as_real());
    }
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::Mod:
      return arith_op(n.op, eval_node(*n.a, ctx), eval_node(*n.b, ctx));
    case Op::Eq:
    case Op::Ne:
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
      return Value(
          cmp_holds(n.op, eval_node(*n.a, ctx), eval_node(*n.b, ctx)));
    case Op::CmpChain: {
      // Python chained comparison: operands evaluated once, left to
      // right; stop at the first failing link (later operands are not
      // evaluated at all).
      Value left = eval_node(*n.args[0], ctx);
      for (std::size_t i = 0; i < n.cmps.size(); ++i) {
        Value right = eval_node(*n.args[i + 1], ctx);
        if (!cmp_holds(n.cmps[i], left, right)) return Value(false);
        left = std::move(right);
      }
      return Value(true);
    }
  }
  throw std::logic_error("expr: bad node");
}

/// Collect the `self.<attr>` reads of an AST; `opaque` is set when the
/// reads cannot be bounded (bare `self` outside an attribute fold, e.g.
/// `self['x']` or `len(self)`).
void collect_deps(const Node& n, cx::WhenDeps& deps, bool& opaque) {
  if (n.op == Op::SelfAttr) {
    deps.add(n.key);
  } else if (n.op == Op::Name && n.name == "self") {
    opaque = true;
  }
  if (n.a) collect_deps(*n.a, deps, opaque);
  if (n.b) collect_deps(*n.b, deps, opaque);
  for (const auto& a : n.args) collect_deps(*a, deps, opaque);
}

}  // namespace

Expr Expr::compile(const std::string& source) {
  Parser p(source);
  Expr e;
  e.root_ = p.parse();
  e.src_ = source;
  cx::WhenDeps d;
  bool opaque = false;
  collect_deps(*e.root_, d, opaque);
  d.known = !opaque;
  e.deps_ = std::make_shared<const cx::WhenDeps>(std::move(d));
  return e;
}

namespace {

struct CompileCache {
  std::mutex mutex;
  // Node-based map: Expr addresses stay stable across inserts, so
  // compile_cached can hand out references.
  std::unordered_map<std::string, Expr> exprs;

  static CompileCache& instance() {
    static auto* c = new CompileCache();  // leaked: callers keep refs
    return *c;
  }
};

}  // namespace

const Expr& Expr::compile_cached(const std::string& source) {
  auto& c = CompileCache::instance();
  std::lock_guard<std::mutex> lock(c.mutex);
  const auto it = c.exprs.find(source);
  if (it != c.exprs.end()) return it->second;
  return c.exprs.emplace(source, compile(source)).first->second;
}

std::size_t Expr::compile_cache_size() {
  auto& c = CompileCache::instance();
  std::lock_guard<std::mutex> lock(c.mutex);
  return c.exprs.size();
}

Value Expr::eval(const EvalCtx& ctx) const {
  if (!root_) throw std::logic_error("evaluating an empty Expr");
  return eval_node(*root_, ctx);
}

Value Expr::eval(const NameResolver& names) const {
  EvalCtx ctx;
  ctx.fallback = &names;
  return eval(ctx);
}

NameResolver make_resolver(const Value& self_attrs,
                           const std::vector<std::string>& param_names,
                           const Args& args) {
  return [&self_attrs, &param_names, &args](const std::string& name) {
    if (name == "self") return self_attrs;
    for (std::size_t i = 0; i < param_names.size() && i < args.size(); ++i) {
      if (param_names[i] == name) return args[i];
    }
    throw std::runtime_error("NameError: name '" + name +
                             "' is not defined in this condition");
  };
}

}  // namespace cpy
