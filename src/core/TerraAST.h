//===- TerraAST.h - Terra abstract syntax -----------------------*- C++ -*-===//
//
// The Terra AST. One node set serves both stages of the paper's pipeline:
//
//  * Unspecialized trees come out of the parser. They may contain Escape
//    nodes (holding host-language expressions) in expression, statement,
//    declaration-name, field-name, and type positions, and Var nodes that
//    hold only a name.
//
//  * Specialized trees are produced eagerly by the Specializer when a
//    `terra` definition or quotation is evaluated (paper Fig. 2). They
//    contain no Escape nodes; every Var refers to a TerraSymbol (fresh —
//    hygiene), every type annotation is resolved to a Type*, and host values
//    spliced by escapes appear as literals, function references, global
//    references, or grafted quotation subtrees.
//
// The typechecker then annotates specialized trees in place (filling
// TerraExpr::Ty and inserting implicit Cast nodes); backends consume the
// typed tree directly.
//
// Nodes are arena-allocated by a TerraContext and must stay trivially
// destructible: strings are interned (const std::string*), and child lists
// are arena arrays, never std::vector.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_TERRAAST_H
#define TERRACPP_CORE_TERRAAST_H

#include "support/Arena.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/StringInterner.h"

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace terracpp {

class Type;
class FunctionType;
class StructType;
class TypeContext;
class TerraFunction;
class TerraGlobal;

namespace lua {
struct Expr;
struct Closure;
} // namespace lua

namespace analysis {
struct FactTable;
} // namespace analysis

/// A unique Terra variable. Created fresh during specialization (hygiene) or
/// explicitly by the host `symbol()` builtin (deliberate hygiene violation,
/// paper §6.1).
struct TerraSymbol {
  const std::string *Name; ///< Display name; not unique.
  uint64_t Id;             ///< Unique within a TerraContext.
  Type *DeclaredType;      ///< Null until known (param/let annotation).
};

/// A resolved-or-pending type annotation. Type annotations are host
/// expressions evaluated during specialization (paper rule LTDEFN).
struct TypeRef {
  const lua::Expr *HostExpr = nullptr;
  Type *Resolved = nullptr;

  static TypeRef fromType(Type *T) {
    TypeRef R;
    R.Resolved = T;
    return R;
  }
  static TypeRef fromExpr(const lua::Expr *E) {
    TypeRef R;
    R.HostExpr = E;
    return R;
  }
  bool isPresent() const { return HostExpr || Resolved; }
};

//===----------------------------------------------------------------------===//
// Node hierarchy
//===----------------------------------------------------------------------===//

class TerraNode {
public:
  enum NodeKind {
    // Expressions.
    NK_Lit,
    NK_Var,
    NK_Escape,
    NK_Select,
    NK_Apply,
    NK_MethodCall,
    NK_BinOp,
    NK_UnOp,
    NK_Index,
    NK_Constructor,
    NK_Cast,
    NK_FuncLit,
    NK_GlobalRef,
    NK_Intrinsic,
    NK_ExprLast = NK_Intrinsic,
    // Statements.
    NK_Block,
    NK_VarDecl,
    NK_Assign,
    NK_If,
    NK_While,
    NK_ForNum,
    NK_Return,
    NK_Break,
    NK_ExprStmt,
    NK_EscapeStmt,
  };

  NodeKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }
  void setLoc(SourceLoc L) { Loc = L; }

protected:
  TerraNode(NodeKind Kind) : Kind(Kind) {}

  NodeKind Kind;
  SourceLoc Loc;
};

class TerraExpr : public TerraNode {
public:
  /// Static type; null until typechecking.
  Type *Ty = nullptr;
  /// True when this expression denotes a mutable location (set by the
  /// typechecker).
  bool IsLValue = false;

  static bool classof(const TerraNode *N) { return N->kind() <= NK_ExprLast; }

protected:
  TerraExpr(NodeKind Kind) : TerraNode(Kind) {}
};

class TerraStmt : public TerraNode {
public:
  static bool classof(const TerraNode *N) { return N->kind() > NK_ExprLast; }

protected:
  TerraStmt(NodeKind Kind) : TerraNode(Kind) {}
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Literal constants, including pointer constants baked in by the FFI when a
/// cdata value is spliced into Terra code.
class LitExpr : public TerraExpr {
public:
  enum LitKind { LK_Int, LK_Float, LK_Bool, LK_String, LK_Pointer };

  LitKind LK;
  int64_t IntVal = 0;
  double FloatVal = 0;
  bool BoolVal = false;
  const std::string *StrVal = nullptr;
  void *PtrVal = nullptr;
  /// Literal's natural type (e.g. int32 for plain integer literals, float
  /// for a 1.5f suffix); pointer literals carry their full pointer type.
  Type *LitTy = nullptr;

  LitExpr() : TerraExpr(NK_Lit), LK(LK_Int) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_Lit; }
};

/// A variable reference. Pre-specialization: Name only. Post: Sym.
class VarExpr : public TerraExpr {
public:
  const std::string *Name = nullptr;
  TerraSymbol *Sym = nullptr;

  VarExpr() : TerraExpr(NK_Var) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_Var; }
};

/// `[e]` in expression position (pre-specialization only).
class EscapeExpr : public TerraExpr {
public:
  const lua::Expr *Host = nullptr;

  EscapeExpr() : TerraExpr(NK_Escape) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_Escape; }
};

/// `base.field` or `base.[e]` (computed field name, resolved to a string at
/// specialization).
class SelectExpr : public TerraExpr {
public:
  TerraExpr *Base = nullptr;
  const std::string *Field = nullptr;
  const lua::Expr *FieldEscape = nullptr;
  /// Filled by the typechecker: index into the struct layout.
  int FieldIndex = -1;

  SelectExpr() : TerraExpr(NK_Select) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_Select; }
};

/// Function application `f(args)`.
class ApplyExpr : public TerraExpr {
public:
  TerraExpr *Callee = nullptr;
  TerraExpr **Args = nullptr;
  unsigned NumArgs = 0;

  ApplyExpr() : TerraExpr(NK_Apply) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_Apply; }
};

/// `obj:method(args)` — desugared by the typechecker into
/// `T.methods.method(&obj, args)` (paper §4.1).
class MethodCallExpr : public TerraExpr {
public:
  TerraExpr *Obj = nullptr;
  const std::string *Method = nullptr;
  const lua::Expr *MethodEscape = nullptr;
  TerraExpr **Args = nullptr;
  unsigned NumArgs = 0;

  MethodCallExpr() : TerraExpr(NK_MethodCall) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_MethodCall; }
};

enum class BinOpKind {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Shl, ///< Integral only; amount >= bit width traps on the checked tiers.
  Shr, ///< Arithmetic for signed operands, logical for unsigned.
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  And, ///< Short-circuit on scalars.
  Or,
};

class BinOpExpr : public TerraExpr {
public:
  BinOpKind Op;
  TerraExpr *LHS = nullptr;
  TerraExpr *RHS = nullptr;

  BinOpExpr() : TerraExpr(NK_BinOp), Op(BinOpKind::Add) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_BinOp; }
};

enum class UnOpKind {
  Neg,
  Not,
  Deref,  ///< `@p`
  AddrOf, ///< `&lvalue`
};

class UnOpExpr : public TerraExpr {
public:
  UnOpKind Op;
  TerraExpr *Operand = nullptr;

  UnOpExpr() : TerraExpr(NK_UnOp), Op(UnOpKind::Neg) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_UnOp; }
};

/// `base[idx]` — pointer indexing, array element, or vector element.
class IndexExpr : public TerraExpr {
public:
  TerraExpr *Base = nullptr;
  TerraExpr *Idx = nullptr;

  IndexExpr() : TerraExpr(NK_Index) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_Index; }
};

/// `T { a, b }` and `T { field = a }` struct construction.
class ConstructorExpr : public TerraExpr {
public:
  /// Pre-specialization: the expression before the braces (must specialize
  /// to a type value). Post-specialization: null, with TyRef resolved.
  TerraExpr *TypeCallee = nullptr;
  TypeRef TyRef;
  TerraExpr **Inits = nullptr;
  const std::string **FieldNames = nullptr; ///< Entries may be null.
  unsigned NumInits = 0;

  ConstructorExpr() : TerraExpr(NK_Constructor) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_Constructor; }
};

/// Explicit cast `[T](e)` / `T(e)`, or an implicit conversion inserted by
/// the typechecker (possibly via a __cast metamethod).
class CastExpr : public TerraExpr {
public:
  TypeRef TyRef;
  TerraExpr *Operand = nullptr;
  bool Implicit = false;

  CastExpr() : TerraExpr(NK_Cast) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_Cast; }
};

/// A direct reference to a Terra function spliced in from the host
/// environment.
class FuncLitExpr : public TerraExpr {
public:
  TerraFunction *Fn = nullptr;

  FuncLitExpr() : TerraExpr(NK_FuncLit) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_FuncLit; }
};

/// A reference to a Terra global variable.
class GlobalRefExpr : public TerraExpr {
public:
  TerraGlobal *Global = nullptr;

  GlobalRefExpr() : TerraExpr(NK_GlobalRef) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_GlobalRef; }
};

enum class IntrinsicKind {
  Prefetch, ///< prefetch(addr, rw, locality, cachetype) — paper Fig. 5.
  Sizeof,   ///< sizeof(T)
  Min,      ///< Elementwise minimum (scalars and vectors).
  Max,      ///< Elementwise maximum.
};

class IntrinsicExpr : public TerraExpr {
public:
  IntrinsicKind IK;
  TypeRef TyRef; ///< For Sizeof.
  TerraExpr **Args = nullptr;
  unsigned NumArgs = 0;

  IntrinsicExpr() : TerraExpr(NK_Intrinsic), IK(IntrinsicKind::Sizeof) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_Intrinsic; }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class BlockStmt : public TerraStmt {
public:
  TerraStmt **Stmts = nullptr;
  unsigned NumStmts = 0;

  BlockStmt() : TerraStmt(NK_Block) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_Block; }
};

/// One declared name in a `var` statement. The name may be an escape
/// evaluating to a symbol (`var [sym] = ...`, paper Fig. 5).
struct VarDeclName {
  const std::string *Name = nullptr;
  const lua::Expr *NameEscape = nullptr;
  TerraSymbol *Sym = nullptr; ///< Set by specialization.
  TypeRef Ty;                 ///< Optional annotation.
};

class VarDeclStmt : public TerraStmt {
public:
  VarDeclName *Names = nullptr;
  unsigned NumNames = 0;
  TerraExpr **Inits = nullptr; ///< Zero or NumNames initializers.
  unsigned NumInits = 0;

  VarDeclStmt() : TerraStmt(NK_VarDecl) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_VarDecl; }
};

class AssignStmt : public TerraStmt {
public:
  TerraExpr **LHS = nullptr;
  unsigned NumLHS = 0;
  TerraExpr **RHS = nullptr;
  unsigned NumRHS = 0;

  AssignStmt() : TerraStmt(NK_Assign) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_Assign; }
};

/// if/elseif.../else chain; Conds and Blocks are parallel arrays.
class IfStmt : public TerraStmt {
public:
  TerraExpr **Conds = nullptr;
  BlockStmt **Blocks = nullptr;
  unsigned NumClauses = 0;
  BlockStmt *ElseBlock = nullptr;

  IfStmt() : TerraStmt(NK_If) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_If; }
};

class WhileStmt : public TerraStmt {
public:
  TerraExpr *Cond = nullptr;
  BlockStmt *Body = nullptr;

  WhileStmt() : TerraStmt(NK_While) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_While; }
};

/// Terra numeric for: `for i = lo, limit [, step] do ... end`. Unlike the
/// host language, the limit is exclusive (as in Terra).
class ForNumStmt : public TerraStmt {
public:
  VarDeclName Var;
  TerraExpr *Lo = nullptr;
  TerraExpr *Hi = nullptr;
  TerraExpr *Step = nullptr; ///< Null means 1.
  BlockStmt *Body = nullptr;

  ForNumStmt() : TerraStmt(NK_ForNum) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_ForNum; }
};

class ReturnStmt : public TerraStmt {
public:
  TerraExpr *Val = nullptr; ///< Null for `return` from a void function.

  ReturnStmt() : TerraStmt(NK_Return) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_Return; }
};

class BreakStmt : public TerraStmt {
public:
  BreakStmt() : TerraStmt(NK_Break) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_Break; }
};

class ExprStmt : public TerraStmt {
public:
  TerraExpr *E = nullptr;

  ExprStmt() : TerraStmt(NK_ExprStmt) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_ExprStmt; }
};

/// `[e]` in statement position: splices a statement quote or a host list of
/// quotes (paper Fig. 5, `[loadc]`).
class EscapeStmt : public TerraStmt {
public:
  const lua::Expr *Host = nullptr;

  EscapeStmt() : TerraStmt(NK_EscapeStmt) {}

  static bool classof(const TerraNode *N) { return N->kind() == NK_EscapeStmt; }
};

//===----------------------------------------------------------------------===//
// Functions and globals
//===----------------------------------------------------------------------===//

/// Signature of the uniform entry thunk every compiled function exposes for
/// FFI calls: Args[i] points at the i-th argument value; Ret points at the
/// result slot (ignored for void).
using EntryThunk = std::function<void(void **Args, void *Ret)>;

namespace bytecode {
struct Function;
} // namespace bytecode

/// Per-function tiered-execution profile (TerraTier.h). Present only when
/// the compiler runs with BackendKind::Tiered.
struct TierState;

/// A Terra function: declaration, definition, typechecking state, and
/// compiled artifacts. Matches the paper's tdecl/ter split — a function can
/// be declared (undefined) and defined exactly once later, which is what
/// makes eager specialization compatible with mutual recursion (§4.1).
class TerraFunction {
public:
  enum StateKind {
    SK_Declared,  ///< tdecl: no body yet.
    SK_Defined,   ///< Body specialized, not yet typechecked.
    SK_Checking,  ///< On the typechecker's stack (cycle handling).
    SK_Checked,   ///< Typechecked; FnTy valid.
    SK_Error,     ///< Typechecking failed; sticky.
  };

  std::string Name;  ///< Base name for diagnostics/codegen.
  uint64_t Id = 0;   ///< Unique id; the mangled symbol is Name_Id.
  StateKind State = SK_Declared;

  // Definition (specialized AST).
  TerraSymbol **Params = nullptr;
  unsigned NumParams = 0;
  TypeRef RetTy; ///< Optional; inferred from returns when absent.
  BlockStmt *Body = nullptr;

  // Typecheck result.
  FunctionType *FnTy = nullptr;
  /// Functions referenced by the body (collected while typechecking); used
  /// for connected-component compilation.
  std::vector<TerraFunction *> Callees;
  /// Globals referenced by the body.
  std::vector<TerraGlobal *> GlobalRefs;

  // Extern C functions (terralib.includec): no body; codegen calls the
  // symbol directly and the interpreter backend dispatches natively.
  bool IsExtern = false;
  /// Extern with C varargs (printf): extra call arguments beyond the fixed
  /// parameters are allowed and receive C default promotions.
  bool IsVarArg = false;
  std::string ExternName;
  std::string ExternHeader;
  void *ExternAddr = nullptr;

  // Host-closure wrappers (terralib.cast of a Lua function): no body; calls
  // trampoline back into the interpreter.
  std::shared_ptr<lua::Closure> HostClosure;
  uint64_t HostClosureId = 0;

  // Compiled artifacts (either backend).
  void *RawPtr = nullptr;
  EntryThunk Entry;

  /// Tier-0 bytecode (TerraBytecode.h); null when the function uses a
  /// construct the bytecode compiler does not model. Immutable once set.
  std::shared_ptr<const bytecode::Function> Bytecode;
  /// Baseline-JIT machine entry (TerraBaselineJIT.h). Null until the first
  /// emission attempt; the failed-sentinel (void *)1 after a bailout; a
  /// callable address otherwise. CAS-published — immutable once non-null.
  std::atomic<void *> BaselineEntry{nullptr};
  /// Native-stack bytes one activation of the baseline code consumes
  /// (frame + register file + saved pointers); written before BaselineEntry
  /// is published and read through BaselineJIT::depthUnits to charge the
  /// interpreter depth budget proportionally. Relaxed: racing emitters of
  /// the same bytecode store the same value.
  std::atomic<uint32_t> BaselineStackBytes{0};
  /// Tiered-execution state: call/back-edge counters and the atomically
  /// patched native entry. Null outside BackendKind::Tiered.
  std::shared_ptr<TierState> Tier;

  /// Static analysis (terracheck) has run over the typechecked body; the
  /// compile pipeline analyzes each function once even when it is reachable
  /// from several compilation roots.
  bool AnalysisDone = false;

  /// Facts the interval analysis proved about this body (divisors that
  /// cannot be zero, in-range shift amounts, constant branch conditions).
  /// Keyed on arena-allocated AST nodes, so the table stays valid for the
  /// function's lifetime. Null when the analysis has not run or proved
  /// nothing; consumed by the midend and the bytecode compiler.
  std::shared_ptr<const analysis::FactTable> RangeFacts;

  bool isDefined() const { return State != SK_Declared; }
  bool isCompiled() const { return RawPtr != nullptr || Entry != nullptr; }
  std::string mangledName() const { return Name + "_" + std::to_string(Id); }
};

/// A Terra global variable (paper §4.2, `global(T, init)`). Storage is
/// allocated host-side and its address is baked into generated code, so both
/// backends share the same cell.
class TerraGlobal {
public:
  std::string Name;
  uint64_t Id = 0;
  Type *Ty = nullptr;
  void *Storage = nullptr;

  std::string mangledName() const { return Name + "_g" + std::to_string(Id); }
};

//===----------------------------------------------------------------------===//
// TerraContext
//===----------------------------------------------------------------------===//

/// Owns everything Terra-side: types, AST arenas, symbols, functions,
/// globals, and interned strings.
class TerraContext {
public:
  TerraContext(DiagnosticEngine &Diags);
  ~TerraContext();
  TerraContext(const TerraContext &) = delete;
  TerraContext &operator=(const TerraContext &) = delete;

  TypeContext &types() { return *Types; }
  DiagnosticEngine &diags() { return Diags; }
  Arena &arena() { return NodeArena; }

  const std::string *intern(std::string_view S) { return Interner.intern(S); }

  /// Creates a node of type T in the arena.
  template <typename T> T *make(SourceLoc Loc = SourceLoc()) {
    T *N = NodeArena.create<T>();
    N->setLoc(Loc);
    return N;
  }

  /// Copies a node array into the arena.
  template <typename T> T *copyArray(const std::vector<T> &V) {
    return NodeArena.copyArray(V.data(), V.size());
  }

  /// Creates a fresh symbol (gensym).
  TerraSymbol *freshSymbol(const std::string *Name, Type *DeclaredType);

  TerraFunction *createFunction(std::string Name);
  TerraGlobal *createGlobal(std::string Name, Type *Ty);

  /// Interns a string literal's bytes so compiled code can reference stable
  /// storage (the returned buffer is NUL-terminated and lives as long as the
  /// context).
  const char *internStringData(const std::string &S);

  const std::vector<std::unique_ptr<TerraFunction>> &functions() const {
    return Functions;
  }
  const std::vector<std::unique_ptr<TerraGlobal>> &globals() const {
    return Globals;
  }

private:
  DiagnosticEngine &Diags;
  std::unique_ptr<TypeContext> Types;
  Arena NodeArena;
  StringInterner Interner;
  uint64_t NextSymbolId = 1;
  uint64_t NextFunctionId = 1;
  uint64_t NextGlobalId = 1;
  std::vector<std::unique_ptr<TerraFunction>> Functions;
  std::vector<std::unique_ptr<TerraGlobal>> Globals;
  std::vector<std::unique_ptr<TerraSymbol>> Symbols;
  std::vector<std::unique_ptr<std::string>> StringData;
  std::vector<std::unique_ptr<uint8_t[]>> GlobalStorage;
};

} // namespace terracpp

#endif // TERRACPP_CORE_TERRAAST_H
