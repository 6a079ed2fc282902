#include "core/CBackend.h"

#include "core/TerraType.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <cctype>

// Host-callback trampoline defined in FFI.cpp; generated wrappers call it
// through a baked absolute address.
extern "C" void terracpp_hostcall_trampoline(void *Ctx, uint64_t ClosureId,
                                             void **Args, void *Ret);

using namespace terracpp;

namespace {

std::string hexPtr(const void *P) {
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "0x%" PRIxPTR "ull",
           reinterpret_cast<uintptr_t>(P));
  return Buf;
}

} // namespace

class CBackend::Emitter {
public:
  Emitter(TerraContext &Ctx) : Ctx(Ctx) {}

  TerraContext &Ctx;
  std::ostringstream Prologue;   // Includes + typedefs.
  std::ostringstream Decls;      // Forward declarations.
  std::ostringstream Body;       // Function definitions.
  std::map<const Type *, std::string> StructNames;
  std::map<const Type *, std::string> VectorNames;
  std::map<const Type *, std::string> ArrayNames;
  std::set<const Type *> EmittedStructs;
  std::set<std::string> Headers;
  std::set<const TerraFunction *> ModuleFns;
  std::map<const TerraGlobal *, std::string> GlobalNames;
  unsigned NameCounter = 0;
  /// Set when the module embeds a process-local absolute address (compiled
  /// function, global storage, pointer literal, host trampoline). Such
  /// modules are valid only within this process image, so the JIT must not
  /// reuse them from the persistent cache across runs.
  bool BakedRuntimeAddr = false;

  std::string bakedPtr(const void *P) {
    BakedRuntimeAddr = true;
    return hexPtr(P);
  }
  bool Standalone = false;
  bool Failed = false;

  void fail(const std::string &Msg) {
    if (!Failed)
      Ctx.diags().error(SourceLoc(), "C backend: " + Msg);
    Failed = true;
  }

  //===------------------------------------------------------------------===//
  // Types
  //===------------------------------------------------------------------===//

  /// Emits (once) the typedefs a type needs and returns its C spelling.
  std::string cType(const Type *T) {
    switch (T->kind()) {
    case Type::TK_Prim: {
      switch (cast<PrimType>(T)->primKind()) {
      case PrimType::Void:
        return "void";
      case PrimType::Bool:
        return "uint8_t"; // 1-byte bool with C ABI stability.
      case PrimType::Int8:
        return "int8_t";
      case PrimType::Int16:
        return "int16_t";
      case PrimType::Int32:
        return "int32_t";
      case PrimType::Int64:
        return "int64_t";
      case PrimType::UInt8:
        return "uint8_t";
      case PrimType::UInt16:
        return "uint16_t";
      case PrimType::UInt32:
        return "uint32_t";
      case PrimType::UInt64:
        return "uint64_t";
      case PrimType::Float32:
        return "float";
      case PrimType::Float64:
        return "double";
      }
      return "void";
    }
    case Type::TK_Pointer: {
      const Type *Pointee = cast<PointerType>(T)->pointee();
      if (Pointee->isVector()) {
        // Pointers to vectors use an element-aligned typedef so loads and
        // stores through them become unaligned SIMD moves.
        return vectorName(cast<VectorType>(Pointee), /*Unaligned=*/true) +
               " *";
      }
      if (Pointee->isFunction()) {
        // Function pointers: T (*)(args).
        const auto *FT = cast<FunctionType>(Pointee);
        return fnPtrType(FT);
      }
      if (Pointee->isStruct()) {
        // Use the tag form so self-referential structs (List { next: &List })
        // and pointer-only uses of incomplete structs work without a layout.
        return "struct " +
               structName(cast<StructType>(Pointee), /*NeedComplete=*/false) +
               " *";
      }
      return cType(Pointee) + " *";
    }
    case Type::TK_Vector:
      return vectorName(cast<VectorType>(T), /*Unaligned=*/false);
    case Type::TK_Struct:
      return structName(cast<StructType>(T));
    case Type::TK_Function:
      // Bare function types appear only behind pointers; treat a bare one
      // as a pointer (Terra functions are pointer values).
      return fnPtrType(cast<FunctionType>(T));
    case Type::TK_Array:
      return arrayName(cast<ArrayType>(T));
    }
    return "void";
  }

  /// Terra arrays are values: they copy on assignment and pass and return
  /// by value. C arrays are none of these, so each array type is a struct
  /// wrapping the C array as member `a` (same size and alignment).
  std::string arrayName(const ArrayType *AT) {
    auto It = ArrayNames.find(AT);
    if (It != ArrayNames.end())
      return It->second;
    std::string Member =
        cdecl(AT->element(), "a[" + std::to_string(AT->length()) + "]");
    std::string Name = "A" + std::to_string(AT->length()) + "_" +
                       std::to_string(NameCounter++);
    ArrayNames[AT] = Name;
    Prologue << "typedef struct { " << Member << "; } " << Name << ";\n";
    return Name;
  }

  /// Spelling of a C cast to `T *` (function types need the declarator
  /// spelled inside out: RET (**)(args)).
  std::string ptrToCast(const Type *T) {
    if (T->isFunction()) {
      const auto *FT = cast<FunctionType>(T);
      std::string S = cType(FT->result()) + " (**)(";
      for (size_t I = 0; I != FT->params().size(); ++I) {
        if (I)
          S += ", ";
        S += cType(FT->params()[I]);
      }
      if (FT->params().empty())
        S += "void";
      S += ")";
      return S;
    }
    return cType(T) + " *";
  }

  std::string fnPtrType(const FunctionType *FT) {
    std::string S = cType(FT->result()) + " (*)(";
    for (size_t I = 0; I != FT->params().size(); ++I) {
      if (I)
        S += ", ";
      S += cType(FT->params()[I]);
    }
    if (FT->params().empty())
      S += "void";
    S += ")";
    return S;
  }

  /// C declarator for `Ty Name` (function types spell it inside out).
  std::string cdecl(const Type *T, const std::string &Name) {
    if (T->isFunction()) {
      const auto *FT = cast<FunctionType>(T);
      std::string S = cType(FT->result()) + " (*" + Name + ")(";
      for (size_t I = 0; I != FT->params().size(); ++I) {
        if (I)
          S += ", ";
        S += cType(FT->params()[I]);
      }
      S += ")";
      return S;
    }
    return cType(T) + " " + Name;
  }

  std::string vectorName(const VectorType *VT, bool Unaligned) {
    auto It = VectorNames.find(VT);
    std::string Base;
    if (It != VectorNames.end()) {
      Base = It->second;
    } else {
      Base = "v" + std::to_string(VT->length()) +
             (VT->element()->isFloat()
                  ? (VT->element()->size() == 4 ? "f" : "d")
                  : "i" + std::to_string(VT->element()->size() * 8)) +
             "_" + std::to_string(NameCounter++);
      VectorNames[VT] = Base;
      Prologue << "typedef " << cType(VT->element()) << " " << Base
               << " __attribute__((vector_size(" << VT->size() << ")));\n";
      Prologue << "typedef " << cType(VT->element()) << " " << Base
               << "_u __attribute__((vector_size(" << VT->size()
               << "), aligned(" << VT->element()->align() << ")));\n";
      // Splat helper for scalar->vector broadcasts.
      Prologue << "static inline " << Base << " " << Base << "_splat("
               << cType(VT->element()) << " x) { return (" << Base << "){";
      for (uint64_t I = 0; I != VT->length(); ++I)
        Prologue << (I ? ", x" : "x");
      Prologue << "}; }\n";
    }
    return Unaligned ? Base + "_u" : Base;
  }

  std::string structName(const StructType *ST, bool NeedComplete = true) {
    auto It = StructNames.find(ST);
    std::string Name;
    if (It != StructNames.end()) {
      Name = It->second;
    } else {
      Name = "S_" + sanitize(ST->name()) + "_" +
             std::to_string(NameCounter++);
      StructNames[ST] = Name;
      // File-scope tag so `struct Name *` in prototypes refers to one type.
      Prologue << "struct " << Name << ";\n";
    }
    if (NeedComplete && !EmittedStructs.count(ST))
      emitStructDef(ST, Name);
    return Name;
  }

  static std::string sanitize(const std::string &S) {
    std::string Out;
    for (char C : S)
      Out += (isalnum(static_cast<unsigned char>(C)) || C == '_') ? C : '_';
    if (Out.empty())
      Out = "anon";
    return Out;
  }

  void emitStructDef(const StructType *ST, const std::string &Name) {
    if (!ST->isComplete()) {
      fail("struct " + ST->name() + " used by value in codegen without a "
           "layout");
      return;
    }
    EmittedStructs.insert(ST);
    // Emit field types first (recursion terminates: layouts are acyclic).
    std::ostringstream Def;
    Def << "typedef struct " << Name << " {\n";
    unsigned Idx = 0;
    for (const StructField &F : ST->fields()) {
      std::string FieldName = "f" + std::to_string(Idx++) + "_" +
                              sanitize(F.Name);
      Def << "  " << cdecl(F.FieldType, FieldName) << ";\n";
    }
    if (ST->fields().empty())
      Def << "  uint8_t _empty;\n";
    Def << "} " << Name << ";\n";
    Prologue << Def.str();
  }

  std::string fieldName(const StructType *ST, unsigned Idx) {
    return "f" + std::to_string(Idx) + "_" + sanitize(ST->fields()[Idx].Name);
  }

  //===------------------------------------------------------------------===//
  // Functions
  //===------------------------------------------------------------------===//

  std::string fnRefInCall(const TerraFunction *F) {
    if (ModuleFns.count(F))
      return F->mangledName();
    if (F->IsExtern) {
      Headers.insert(F->Extern->Header);
      return F->Extern->Name;
    }
    if (Standalone) {
      fail("saveobj: function '" + F->Name +
           "' is referenced but was not included in the saved module");
      return "0";
    }
    if (F->RawPtr) {
      // Previously compiled: bake the absolute address, JIT-style.
      return "((" + fnPtrCast(F) + ")" + bakedPtr(F->RawPtr) + ")";
    }
    fail("function '" + F->Name + "' referenced before compilation");
    return "0";
  }

  std::string fnPtrCast(const TerraFunction *F) {
    return fnPtrType(F->FnTy);
  }

  void emitFunction(const TerraFunction *F) {
    if (F->HostClosure) {
      if (Standalone) {
        fail("saveobj: '" + F->Name +
             "' wraps a lua function and cannot be saved to an object file");
        return;
      }
      emitHostWrapper(F);
      return;
    }
    std::ostringstream OS;
    OS << signature(F) << " {\n";
    Indent = 1;
    emitBlock(OS, F->Body);
    OS << "}\n\n";
    Body << OS.str();
    emitEntryThunk(F);
  }

  std::string signature(const TerraFunction *F) {
    return signatureWithName(F, F->mangledName());
  }

  std::string signatureWithName(const TerraFunction *F,
                                const std::string &Name) {
    std::string S = cType(F->FnTy->result()) + " " + Name + "(";
    for (unsigned I = 0; I != F->NumParams; ++I) {
      if (I)
        S += ", ";
      S += cdecl(F->Params[I]->DeclaredType, varName(F->Params[I]));
    }
    if (F->NumParams == 0)
      S += "void";
    S += ")";
    return S;
  }

  void emitEntryThunk(const TerraFunction *F) {
    std::ostringstream OS;
    OS << "void " << F->mangledName() << "_entry(void **args, void *ret) {\n";
    std::string Call = F->mangledName() + "(";
    for (unsigned I = 0; I != F->NumParams; ++I) {
      if (I)
        Call += ", ";
      Type *PT = F->Params[I]->DeclaredType;
      Call += "*(" + ptrToCast(PT) + ")args[" + std::to_string(I) + "]";
    }
    Call += ")";
    Type *R = F->FnTy->result();
    if (R->isVoid()) {
      OS << "  (void)ret;\n";
      if (F->NumParams == 0)
        OS << "  (void)args;\n";
      OS << "  " << Call << ";\n";
    } else {
      if (F->NumParams == 0)
        OS << "  (void)args;\n";
      OS << "  *(" << ptrToCast(R) << ")ret = " << Call << ";\n";
    }
    OS << "}\n\n";
    Body << OS.str();
  }

  /// Wrapper that marshals a call back into the host interpreter through a
  /// baked trampoline address (terralib.cast of a Lua function).
  void emitHostWrapper(const TerraFunction *F) {
    std::ostringstream OS;
    OS << signature(F) << " {\n";
    OS << "  void *hc_args[" << std::max(1u, F->NumParams) << "];\n";
    for (unsigned I = 0; I != F->NumParams; ++I)
      OS << "  hc_args[" << I << "] = (void *)&" << varName(F->Params[I])
         << ";\n";
    Type *R = F->FnTy->result();
    if (!R->isVoid())
      OS << "  " << cdecl(R, "hc_ret") << ";\n";
    OS << "  ((void (*)(void *, uint64_t, void **, void *))"
       << bakedPtr(reinterpret_cast<void *>(&terracpp_hostcall_trampoline))
       << ")((void *)" << bakedPtr(HostCallCtx) << ", "
       << F->HostClosureId << "ull, hc_args, "
       << (R->isVoid() ? "0" : "(void *)&hc_ret") << ");\n";
    if (!R->isVoid())
      OS << "  return hc_ret;\n";
    OS << "}\n\n";
    Body << OS.str();
    emitEntryThunk(F);
  }

  void *HostCallCtx = nullptr;

  static std::string varName(const TerraSymbol *S) {
    return sanitize(*S->Name) + "_" + std::to_string(S->Id);
  }

  //===------------------------------------------------------------------===//
  // Statements
  //===------------------------------------------------------------------===//

  unsigned Indent = 0;
  unsigned TempCounter = 0;

  std::string ind() const { return std::string(Indent * 2, ' '); }

  void emitBlock(std::ostringstream &OS, const BlockStmt *B) {
    for (unsigned I = 0; I != B->NumStmts; ++I)
      emitStmt(OS, B->Stmts[I]);
  }

  void emitStmt(std::ostringstream &OS, const TerraStmt *S) {
    switch (S->kind()) {
    case TerraNode::NK_Block:
      // Emitted without braces: every Terra variable has a globally unique
      // name, and spliced statement quotes (paper Fig. 5's [loadc]) must
      // leave their symbol()-named variables visible to later splices.
      emitBlock(OS, cast<BlockStmt>(S));
      return;
    case TerraNode::NK_VarDecl: {
      const auto *D = cast<VarDeclStmt>(S);
      for (unsigned I = 0; I != D->NumNames; ++I) {
        const VarDeclName &N = D->Names[I];
        OS << ind() << cdecl(N.Sym->DeclaredType, varName(N.Sym));
        if (I < D->NumInits)
          OS << " = " << expr(D->Inits[I]);
        OS << ";\n";
      }
      return;
    }
    case TerraNode::NK_Assign: {
      const auto *A = cast<AssignStmt>(S);
      if (A->NumLHS == 1) {
        OS << ind() << expr(A->LHS[0]) << " = " << expr(A->RHS[0]) << ";\n";
        return;
      }
      // Parallel assignment: evaluate all RHS into temps first
      // (`A,B = B,A` must swap).
      OS << ind() << "{\n";
      ++Indent;
      std::vector<std::string> Temps;
      for (unsigned I = 0; I != A->NumRHS; ++I) {
        std::string T = "_pa" + std::to_string(TempCounter++);
        Temps.push_back(T);
        OS << ind() << cdecl(A->RHS[I]->Ty, T) << " = " << expr(A->RHS[I])
           << ";\n";
      }
      for (unsigned I = 0; I != A->NumLHS; ++I)
        OS << ind() << expr(A->LHS[I]) << " = " << Temps[I] << ";\n";
      --Indent;
      OS << ind() << "}\n";
      return;
    }
    case TerraNode::NK_If: {
      const auto *I2 = cast<IfStmt>(S);
      for (unsigned K = 0; K != I2->NumClauses; ++K) {
        OS << ind() << (K ? "} else if (" : "if (") << expr(I2->Conds[K])
           << ") {\n";
        ++Indent;
        emitBlock(OS, I2->Blocks[K]);
        --Indent;
      }
      if (I2->ElseBlock) {
        OS << ind() << "} else {\n";
        ++Indent;
        emitBlock(OS, I2->ElseBlock);
        --Indent;
      }
      OS << ind() << "}\n";
      return;
    }
    case TerraNode::NK_While: {
      const auto *W = cast<WhileStmt>(S);
      OS << ind() << "while (" << expr(W->Cond) << ") {\n";
      ++Indent;
      emitBlock(OS, W->Body);
      --Indent;
      OS << ind() << "}\n";
      return;
    }
    case TerraNode::NK_ForNum: {
      const auto *F = cast<ForNumStmt>(S);
      // Terra 'for' has an exclusive limit; bounds evaluate once.
      std::string IVar = varName(F->Var.Sym);
      std::string HiT = "_hi" + std::to_string(TempCounter++);
      std::string StT = "_st" + std::to_string(TempCounter++);
      Type *IT = F->Var.Sym->DeclaredType;
      OS << ind() << "{\n";
      ++Indent;
      if (IT->isFloat()) {
        // A float variable counts on the int64 truncations of its bounds
        // and reads back its (possibly reassigned) value each iteration,
        // as the interpreter tiers do.
        std::string CT = "_ct" + std::to_string(TempCounter++);
        OS << ind() << "int64_t " << CT << " = (int64_t)(" << expr(F->Lo)
           << "), " << HiT << " = (int64_t)(" << expr(F->Hi) << "), " << StT
           << " = " << (F->Step ? "(int64_t)(" + expr(F->Step) + ")" : "1")
           << ";\n";
        OS << ind() << "for (; (" << StT << " > 0) ? (" << CT << " < " << HiT
           << ") : (" << CT << " > " << HiT << "); " << CT << " += " << StT
           << ") {\n";
        ++Indent;
        OS << ind() << cdecl(IT, IVar) << " = (" << cType(IT) << ")" << CT
           << ";\n";
        emitBlock(OS, F->Body);
        OS << ind() << CT << " = (int64_t)" << IVar << ";\n";
        --Indent;
        OS << ind() << "}\n";
        --Indent;
        OS << ind() << "}\n";
        return;
      }
      OS << ind() << cdecl(IT, HiT) << " = " << expr(F->Hi) << ";\n";
      if (F->Step) {
        OS << ind() << cdecl(IT, StT) << " = " << expr(F->Step) << ";\n";
        OS << ind() << "for (" << cdecl(IT, IVar) << " = " << expr(F->Lo)
           << "; (" << StT << " > 0) ? (" << IVar << " < " << HiT << ") : ("
           << IVar << " > " << HiT << "); " << IVar << " += " << StT
           << ") {\n";
      } else {
        OS << ind() << "for (" << cdecl(IT, IVar) << " = " << expr(F->Lo)
           << "; " << IVar << " < " << HiT << "; ++" << IVar << ") {\n";
      }
      ++Indent;
      emitBlock(OS, F->Body);
      --Indent;
      OS << ind() << "}\n";
      --Indent;
      OS << ind() << "}\n";
      return;
    }
    case TerraNode::NK_Return: {
      const auto *R = cast<ReturnStmt>(S);
      if (R->Val)
        OS << ind() << "return " << expr(R->Val) << ";\n";
      else
        OS << ind() << "return;\n";
      return;
    }
    case TerraNode::NK_Break:
      OS << ind() << "break;\n";
      return;
    case TerraNode::NK_ExprStmt: {
      const TerraExpr *E = cast<ExprStmt>(S)->E;
      OS << ind();
      if (!E->Ty->isVoid())
        OS << "(void)(";
      OS << expr(E);
      if (!E->Ty->isVoid())
        OS << ")";
      OS << ";\n";
      return;
    }
    default:
      fail("unexpected statement in codegen");
      return;
    }
  }

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  std::string expr(const TerraExpr *E) {
    switch (E->kind()) {
    case TerraNode::NK_Lit: {
      const auto *L = cast<LitExpr>(E);
      switch (L->LK) {
      case LitExpr::LK_Int: {
        // INT64_MIN has no literal of its own in C.
        std::string V = L->IntVal == INT64_MIN
                            ? "(-9223372036854775807ll - 1)"
                            : std::to_string(L->IntVal) + "ll";
        return "((" + cType(L->Ty) + ")" + V + ")";
      }
      case LitExpr::LK_Float: {
        char Buf[64];
        snprintf(Buf, sizeof(Buf), "%.17g", L->FloatVal);
        std::string S = Buf;
        if (S.find('.') == std::string::npos &&
            S.find('e') == std::string::npos &&
            S.find("inf") == std::string::npos &&
            S.find("nan") == std::string::npos)
          S += ".0";
        if (L->Ty->size() == 4)
          S = "((float)" + S + ")";
        return "(" + S + ")";
      }
      case LitExpr::LK_Bool:
        return L->BoolVal ? "1" : "0";
      case LitExpr::LK_String: {
        std::string S = "((int8_t*)\"";
        for (char C : *L->StrVal) {
          switch (C) {
          case '\n':
            S += "\\n";
            break;
          case '\t':
            S += "\\t";
            break;
          case '\r':
            S += "\\r";
            break;
          case '"':
            S += "\\\"";
            break;
          case '\\':
            S += "\\\\";
            break;
          case '\0':
            S += "\\0";
            break;
          default:
            S += C;
          }
        }
        S += "\")";
        return S;
      }
      case LitExpr::LK_Pointer:
        return "((" + cType(L->Ty) + ")" + bakedPtr(L->PtrVal) + ")";
      }
      return "0";
    }
    case TerraNode::NK_Var:
      return varName(cast<VarExpr>(E)->Sym);
    case TerraNode::NK_GlobalRef: {
      const auto *G = cast<GlobalRefExpr>(E);
      if (Standalone) {
        // Saved modules get their own zero-initialized global storage.
        auto It = GlobalNames.find(G->Global);
        std::string Name;
        if (It != GlobalNames.end()) {
          Name = It->second;
        } else {
          Name = "g_" + sanitize(G->Global->Name) + "_" +
                 std::to_string(NameCounter++);
          GlobalNames[G->Global] = Name;
          Prologue << "static " << cdecl(G->Global->Ty, Name) << ";\n";
        }
        return "(" + Name + ")";
      }
      return "(*(" + cType(G->Global->Ty) + " *)" +
             bakedPtr(G->Global->Storage) + ")";
    }
    case TerraNode::NK_FuncLit: {
      const auto *F = cast<FuncLitExpr>(E);
      return fnRefInCall(F->Fn);
    }
    case TerraNode::NK_Select: {
      const auto *S = cast<SelectExpr>(E);
      const auto *ST = cast<StructType>(S->Base->Ty);
      structName(ST); // Field access needs the full definition.
      return "(" + expr(S->Base) + ")." +
             fieldName(ST, static_cast<unsigned>(S->FieldIndex));
    }
    case TerraNode::NK_Apply: {
      const auto *A = cast<ApplyExpr>(E);
      std::string Callee;
      if (const auto *F = dyn_cast<FuncLitExpr>(A->Callee))
        Callee = fnRefInCall(F->Fn);
      else
        Callee = "(" + expr(A->Callee) + ")";
      std::string S = Callee + "(";
      for (unsigned I = 0; I != A->NumArgs; ++I) {
        if (I)
          S += ", ";
        S += expr(A->Args[I]);
      }
      S += ")";
      return S;
    }
    case TerraNode::NK_BinOp: {
      const auto *B = cast<BinOpExpr>(E);
      const char *Op = nullptr;
      switch (B->Op) {
      case BinOpKind::Add:
        Op = "+";
        break;
      case BinOpKind::Sub:
        Op = "-";
        break;
      case BinOpKind::Mul:
        Op = "*";
        break;
      case BinOpKind::Div:
        Op = "/";
        break;
      case BinOpKind::Mod:
        Op = "%";
        break;
      case BinOpKind::Shl:
        // Compute in uint64_t: left-shifting a negative value is UB in C,
        // and the low result-width bits are identical either way.
        return "((" + cType(B->Ty) + ")((uint64_t)" + expr(B->LHS) +
               " << (uint64_t)" + expr(B->RHS) + "))";
      case BinOpKind::Shr:
        Op = ">>";
        break;
      case BinOpKind::Lt:
        Op = "<";
        break;
      case BinOpKind::Le:
        Op = "<=";
        break;
      case BinOpKind::Gt:
        Op = ">";
        break;
      case BinOpKind::Ge:
        Op = ">=";
        break;
      case BinOpKind::Eq:
        Op = "==";
        break;
      case BinOpKind::Ne:
        Op = "!=";
        break;
      case BinOpKind::And:
        Op = "&&";
        break;
      case BinOpKind::Or:
        Op = "||";
        break;
      }
      std::string S =
          "(" + expr(B->LHS) + " " + Op + " " + expr(B->RHS) + ")";
      // A GNU vector comparison yields -1/0 integer lanes of the operand
      // width; Terra's vector(bool, N) holds 0/1 bytes.
      const auto *VT = dyn_cast_or_null<VectorType>(B->Ty);
      if (VT && VT->element()->isBool())
        return "__builtin_convertvector(-" + S + ", " +
               vectorName(VT, false) + ")";
      // C's integer promotions widen sub-int arithmetic to int; truncate
      // back to the Terra result type (e.g. uint8 + uint8 wraps at 256).
      if (B->Ty && B->Ty->isIntegral() && B->Ty->size() < 4)
        S = "((" + cType(B->Ty) + ")" + S + ")";
      return S;
    }
    case TerraNode::NK_UnOp: {
      const auto *U = cast<UnOpExpr>(E);
      switch (U->Op) {
      case UnOpKind::Neg: {
        std::string S = "(-" + expr(U->Operand) + ")";
        if (U->Ty && U->Ty->isIntegral() && U->Ty->size() < 4)
          S = "((" + cType(U->Ty) + ")" + S + ")";
        return S;
      }
      case UnOpKind::Not:
        if (const auto *VT = dyn_cast<VectorType>(U->Ty)) // 0/1 bool lanes.
          return "(" + expr(U->Operand) + " ^ " + vectorName(VT, false) +
                 "_splat(1))";
        return "(!" + expr(U->Operand) + ")";
      case UnOpKind::Deref:
        return "(*" + expr(U->Operand) + ")";
      case UnOpKind::AddrOf: {
        // &vector lvalue must produce the unaligned pointer type used for
        // &vector in cType.
        if (U->Operand->Ty->isVector())
          return "((" + cType(U->Ty) + ")&" + expr(U->Operand) + ")";
        return "(&" + expr(U->Operand) + ")";
      }
      }
      return "0";
    }
    case TerraNode::NK_Index: {
      const auto *X = cast<IndexExpr>(E);
      return "(" + expr(X->Base) + ")" + (X->Base->Ty->isArray() ? ".a" : "") +
             "[" + expr(X->Idx) + "]";
    }
    case TerraNode::NK_Cast: {
      const auto *C = cast<CastExpr>(E);
      Type *To = C->Ty;
      Type *From = C->Operand->Ty;
      if (To == From)
        return expr(C->Operand);
      if (auto *VT = dyn_cast<VectorType>(To)) {
        if (From->isArithmetic()) {
          // Broadcast through the splat helper (converting the scalar).
          std::string Base = vectorName(VT, false);
          return Base + "_splat((" + cType(VT->element()) + ")" +
                 expr(C->Operand) + ")";
        }
        if (From->isVector())
          return "__builtin_convertvector(" + expr(C->Operand) + ", " +
                 vectorName(VT, false) + ")";
      }
      if (From->isArray() && To->isPointer()) {
        // Array decay: take the address of the first element.
        return "(&(" + expr(C->Operand) + ").a[0])";
      }
      return "((" + cType(To) + ")" + expr(C->Operand) + ")";
    }
    case TerraNode::NK_Constructor: {
      const auto *C = cast<ConstructorExpr>(E);
      const auto *ST = cast<StructType>(C->Ty);
      std::string Name = structName(ST);
      std::string S = "((" + Name + "){";
      bool Any = false;
      for (unsigned I = 0; I != C->NumInits; ++I) {
        int Idx = static_cast<int>(I);
        if (C->FieldNames && C->FieldNames[I])
          Idx = ST->fieldIndex(*C->FieldNames[I]);
        if (Any)
          S += ", ";
        S += "." + fieldName(ST, static_cast<unsigned>(Idx)) + " = " +
             expr(C->Inits[I]);
        Any = true;
      }
      if (!Any)
        S += "0";
      S += "})";
      return S;
    }
    case TerraNode::NK_Intrinsic: {
      const auto *N = cast<IntrinsicExpr>(E);
      switch (N->IK) {
      case IntrinsicKind::Sizeof:
        if (const auto *ST = dyn_cast<StructType>(N->TyRef.Resolved))
          return "((uint64_t)sizeof(" + structName(ST) + "))";
        return "((uint64_t)" + std::to_string(N->TyRef.Resolved->size()) +
               "ull)";
      case IntrinsicKind::Min:
      case IntrinsicKind::Max: {
        // GNU statement expression avoids double evaluation. The vector
        // cond-expr extension is C++-only, so vectors use an elementwise
        // loop the C compiler turns into min/max instructions.
        const char *Cmp = N->IK == IntrinsicKind::Min ? "<" : ">";
        std::string T = cType(N->Ty);
        std::string S = "(__extension__({ " + T + " _ma = " +
                        expr(N->Args[0]) + "; " + T + " _mb = " +
                        expr(N->Args[1]) + "; ";
        if (const auto *VT = dyn_cast<VectorType>(N->Ty)) {
          S += "for (int _i = 0; _i != " + std::to_string(VT->length()) +
               "; ++_i) _ma[_i] = _ma[_i] " + Cmp +
               " _mb[_i] ? _ma[_i] : _mb[_i]; _ma; }))";
        } else {
          S += std::string("_ma ") + Cmp + " _mb ? _ma : _mb; }))";
        }
        return S;
      }
      case IntrinsicKind::Prefetch: {
        std::string S = "__builtin_prefetch((const void *)" +
                        expr(N->Args[0]);
        // rw and locality must be integer constant expressions in C; take
        // literal values when present, defaults otherwise.
        auto LitOr = [&](unsigned I, int64_t Default) {
          if (I < N->NumArgs)
            if (const auto *L = dyn_cast<LitExpr>(N->Args[I]))
              if (L->LK == LitExpr::LK_Int)
                return L->IntVal;
          return Default;
        };
        S += ", " + std::to_string(LitOr(1, 0));
        S += ", " + std::to_string(LitOr(2, 3));
        S += ")";
        return S;
      }
      }
      return "0";
    }
    default:
      fail("unexpected expression in codegen");
      return "0";
    }
  }
};

std::string CBackend::emitModule(
    const std::vector<TerraFunction *> &Fns, void *HostCallCtx,
    bool Standalone,
    const std::map<const TerraFunction *, std::string> *Exports) {
  Emitter Em(Ctx);
  Em.HostCallCtx = HostCallCtx;
  Em.Standalone = Standalone;
  for (const TerraFunction *F : Fns)
    Em.ModuleFns.insert(F);

  std::ostringstream Decls;
  for (const TerraFunction *F : Fns) {
    // Forward declarations enable mutual recursion within the module.
    Decls << Em.signature(F) << ";\n";
  }
  Decls << "\n";

  for (const TerraFunction *F : Fns) {
    Em.emitFunction(F);
    if (Em.Failed)
      return "";
    if (Exports) {
      auto It = Exports->find(F);
      if (It != Exports->end())
        Em.Body << "extern " << Em.signatureWithName(F, It->second)
                << " __attribute__((alias(\"" << F->mangledName()
                << "\")));\n\n";
    }
  }

  std::ostringstream Out;
  Out << "/* generated by terracpp CBackend */\n";
  Out << "#include <stdint.h>\n#include <stddef.h>\n";
  for (const std::string &H : Em.Headers)
    Out << "#include <" << H << ">\n";
  Out << "\n" << Em.Prologue.str() << "\n" << Decls.str() << Em.Body.str();
  LastBakedAddrs = Em.BakedRuntimeAddr;
  return Out.str();
}
