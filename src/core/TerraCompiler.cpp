#include "core/TerraCompiler.h"

#include "analysis/Analysis.h"
#include "core/CBackend.h"
#include "core/LuaInterp.h"
#include "core/TerraBaselineJIT.h"
#include "core/TerraInterpBackend.h"
#include "core/TerraPasses.h"
#include "core/TerraType.h"
#include "support/Telemetry.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <cstring>
#include <set>

using namespace terracpp;
using namespace terracpp::lua;

//===----------------------------------------------------------------------===//
// Trampoline for host-closure wrappers in generated code
//===----------------------------------------------------------------------===//

extern "C" void terracpp_hostcall_trampoline(void *Ctx, uint64_t ClosureId,
                                             void **Args, void *Ret) {
  auto *Compiler = static_cast<TerraCompiler *>(Ctx);
  if (!Compiler->invokeHostClosure(ClosureId, Args, Ret)) {
    fprintf(stderr, "terracpp: host callback %llu failed (see diagnostics); "
                    "returning zeroes\n",
            static_cast<unsigned long long>(ClosureId));
  }
}

//===----------------------------------------------------------------------===//
// TerraCompiler
//===----------------------------------------------------------------------===//

TerraCompiler::TerraCompiler(TerraContext &Ctx, Interp &I, BackendKind Backend,
                             InterpKind Interpreter)
    : Ctx(Ctx), I(I), Backend(Backend), Interpreter(Interpreter), TC(Ctx, I),
      JIT(Ctx.diags()),
      AnalyzeLints(analysis::AnalyzeOptions::lintsEnabledFromEnv()) {
  if (Backend == BackendKind::Native)
    return;
  if (Backend == BackendKind::Tiered)
    Tiers = std::make_unique<TierManager>(JIT);
  InterpBackend = std::make_unique<TerraInterpBackend>(Ctx, *this);
  if (Interpreter == InterpKind::Baseline && BaselineJIT::supported())
    Baseline = std::make_unique<BaselineJIT>(JIT.metrics());
}

bool TerraCompiler::analyzeComponent(
    const std::vector<TerraFunction *> &Component) {
  analysis::AnalyzeOptions Opts;
  Opts.Lints = AnalyzeLints;
  Opts.Werror = AnalyzeWerror;
  // The component is the transitive callee closure of the entry point, so
  // the interprocedural pass sees every summary it can use. Failing
  // functions are flipped to SK_Error inside.
  analysis::AnalysisReport R =
      analysis::analyzeComponent(Ctx.diags(), Component, Opts);
  return !R.Failed;
}

TerraCompiler::~TerraCompiler() = default;

void TerraCompiler::collectComponent(TerraFunction *F,
                                     std::vector<TerraFunction *> &Component) {
  // Under Tiered, a tier-0 function (Entry installed, no native address yet)
  // must be re-emitted into dependent modules; only a real RawPtr can be
  // baked as a callee address.
  bool AlreadyUsable = Tiers ? F->RawPtr != nullptr : F->isCompiled();
  if (AlreadyUsable)
    return;
  if (std::find(Component.begin(), Component.end(), F) != Component.end())
    return;
  if (F->IsExtern)
    return; // Dispatched directly; never emitted.
  Component.push_back(F);
  for (TerraFunction *Callee : F->Callees)
    collectComponent(Callee, Component);
}

bool TerraCompiler::ensureCompiled(TerraFunction *F) {
  if (F->isCompiled())
    return true;
  if (F->IsExtern) {
    // Externs have no entry; terra code calls them through the libc table.
    Ctx.diags().error(SourceLoc(),
                      "extern function '" + F->Name +
                          "' cannot be called directly from the host");
    return false;
  }
  {
    Timer T;
    bool OK = TC.check(F);
    Timing.TypecheckSeconds += T.seconds();
    if (!OK)
      return false;
  }

  std::vector<TerraFunction *> Component;
  collectComponent(F, Component);
  if (!analyzeComponent(Component))
    return false;
  for (TerraFunction *Fn : Component) {
    if (Fn->HostClosure)
      continue;
    runMidendPasses(Ctx, Fn);
    if (!verifyFunction(Ctx.diags(), Fn))
      return false;
  }

  if (Backend == BackendKind::Interp) {
    for (TerraFunction *Fn : Component)
      if (!InterpBackend->prepare(Fn))
        return false;
    Timing.FunctionsCompiled += Component.size();
    return true;
  }

  Timer T;
  CBackend CB(Ctx);
  std::string Source;
  {
    trace::TraceSpan Span("codegen", "backend");
    Span.arg("fn", F->Name);
    telemetry::ScopedTimerUs CodegenT(
        telemetry::Registry::global().histogram("frontend.codegen_us"));
    Source = CB.emitModule(Component, this);
  }
  if (Source.empty())
    return false;
  if (Tiers) {
    // Tiered execution: no C compiler on the critical path. Park the
    // generated module for background promotion and start on the VM now.
    if (!installTier0(std::move(Source), !CB.lastModuleBakedAddresses(),
                      Component))
      return false;
    Timing.CodegenSeconds += T.seconds();
    ++Timing.ModulesCompiled;
    Timing.FunctionsCompiled += Component.size();
    return true;
  }
  bool OK = JIT.addModule(Source, Component, !CB.lastModuleBakedAddresses());
  Timing.CodegenSeconds += T.seconds();
  if (OK) {
    ++Timing.ModulesCompiled;
    Timing.FunctionsCompiled += Component.size();
  }
  return OK;
}

bool TerraCompiler::installTier0(std::string Source, bool Cacheable,
                                 const std::vector<TerraFunction *> &Component) {
  for (TerraFunction *Fn : Component)
    if (!InterpBackend->compileBytecode(Fn))
      return false;
  Tiers->registerComponent(std::move(Source), Cacheable, Component);
  for (TerraFunction *Fn : Component) {
    if (Fn->Entry || !Fn->Tier)
      continue; // dispatcher already installed, or pre-tiering native code
    std::shared_ptr<TierState> TS = Fn->Tier;
    TerraCompiler *Self = this;
    TerraFunction *FnP = Fn;
    Fn->Entry = [Self, FnP, TS](void **Args, void *Ret) {
      // Acquire pairs with the promotion job's release store: a non-null
      // entry implies the dlopen'd code behind it is fully visible.
      if (void *NE = TS->NativeEntry.load(std::memory_order_acquire)) {
        Self->LastCallTier.store(1, std::memory_order_relaxed);
        Self->Tiers->noteCall(*TS, 1);
        reinterpret_cast<void (*)(void **, void *)>(NE)(Args, Ret);
        return;
      }
      // Baseline code or the VM: either way a pre-native call, so the
      // promotion thresholds keep firing.
      uint64_t BackEdges = 0;
      int Tier = Self->InterpBackend->execute(FnP, Args, Ret, &BackEdges);
      Self->Tiers->noteCall(*TS, Tier);
      Self->Tiers->noteBackEdges(*TS, BackEdges);
    };
  }
  return true;
}

void *TerraCompiler::nativePointer(TerraFunction *F) {
  if (F->RawPtr)
    return F->RawPtr;
  if (!ensureCompiled(F))
    return nullptr;
  if (F->RawPtr || !Tiers || !F->Tier)
    return F->RawPtr;
  // Tier-0 handle: force native code. The background job may already have
  // landed it (or be mid-flight, in which case forceNative waits).
  if (void *Raw = F->Tier->NativeRaw.load(std::memory_order_acquire)) {
    F->RawPtr = Raw;
    RawToFn[Raw] = F;
    return Raw;
  }
  std::shared_ptr<PendingComponent> C = std::atomic_load(&F->Tier->Component);
  if (!C)
    return nullptr;
  if (!Tiers->forceNative(*C)) {
    std::string Err;
    {
      std::lock_guard<std::mutex> Lock(C->M);
      Err = C->Error;
    }
    Ctx.diags().error(SourceLoc(),
                      Err.empty() ? "tier promotion failed for function '" +
                                        F->Name + "'"
                                  : Err);
    return nullptr;
  }
  // Publish RawPtr for everything that landed with this component (main
  // thread only; background jobs never write RawPtr).
  for (const PendingComponent::Slot &S : C->Slots) {
    if (!S.Fn->RawPtr)
      S.Fn->RawPtr = S.TS->NativeRaw.load(std::memory_order_acquire);
    if (S.Fn->RawPtr)
      RawToFn[S.Fn->RawPtr] = S.Fn;
  }
  if (!F->RawPtr)
    F->RawPtr = F->Tier->NativeRaw.load(std::memory_order_acquire);
  if (F->RawPtr)
    RawToFn[F->RawPtr] = F;
  return F->RawPtr;
}

bool TerraCompiler::compileAll(const std::vector<TerraFunction *> &Roots) {
  if (Backend != BackendKind::Native) {
    // Interp: nothing to batch. Tiered: ensureCompiled is already cheap (no
    // C compiler on the critical path); promotion parallelism happens in
    // the background worker instead of an addModules batch.
    bool AllOK = true;
    for (TerraFunction *F : Roots)
      if (F)
        AllOK &= ensureCompiled(F);
    return AllOK;
  }

  // Frontend (typecheck + midend + codegen) is single-threaded; only the
  // C-compiler invocations parallelize. Components staged for an earlier
  // root are not re-emitted for a later one.
  std::set<TerraFunction *> Staged;
  std::vector<JITEngine::ModuleJob> Jobs;
  bool AllOK = true;
  for (TerraFunction *F : Roots) {
    if (!F || F->isCompiled() || Staged.count(F))
      continue;
    if (F->IsExtern) {
      AllOK &= ensureCompiled(F); // Reports the error.
      continue;
    }
    {
      Timer T;
      bool OK = TC.check(F);
      Timing.TypecheckSeconds += T.seconds();
      if (!OK) {
        AllOK = false;
        continue;
      }
    }
    // The full component is emitted even when it overlaps an earlier
    // staged-but-not-yet-compiled one: a module may only reference
    // functions it defines or whose address is already known, and nothing
    // in this batch has an address yet. Duplicate definitions across
    // modules are benign under RTLD_LOCAL (the last load wins RawPtr).
    std::vector<TerraFunction *> Component;
    collectComponent(F, Component);
    if (Component.empty())
      continue;
    if (!analyzeComponent(Component)) {
      AllOK = false;
      continue;
    }

    bool ComponentOK = true;
    for (TerraFunction *Fn : Component) {
      if (Fn->HostClosure)
        continue;
      runMidendPasses(Ctx, Fn);
      if (!verifyFunction(Ctx.diags(), Fn)) {
        ComponentOK = false;
        break;
      }
    }
    if (!ComponentOK) {
      AllOK = false;
      continue;
    }

    Timer T;
    CBackend CB(Ctx);
    std::string Source;
    {
      trace::TraceSpan Span("codegen", "backend");
      Span.arg("fn", F->Name);
      telemetry::ScopedTimerUs CodegenT(
          telemetry::Registry::global().histogram("frontend.codegen_us"));
      Source = CB.emitModule(Component, this);
    }
    Timing.CodegenSeconds += T.seconds();
    if (Source.empty()) {
      AllOK = false;
      continue;
    }
    for (TerraFunction *Fn : Component)
      Staged.insert(Fn);
    Jobs.push_back({std::move(Source), std::move(Component),
                    !CB.lastModuleBakedAddresses()});
  }

  if (Jobs.empty())
    return AllOK;
  unsigned ModulesBefore = JIT.stats().ModulesLoaded;
  bool JITOK = JIT.addModules(std::move(Jobs));
  Timing.ModulesCompiled += JIT.stats().ModulesLoaded - ModulesBefore;
  // Per-function success is observable via RawPtr; count what landed.
  for (TerraFunction *Fn : Staged)
    if (Fn->isCompiled())
      ++Timing.FunctionsCompiled;
  return AllOK && JITOK;
}

//===----------------------------------------------------------------------===//
// FFI marshalling (paper §4.2)
//===----------------------------------------------------------------------===//

bool TerraCompiler::marshalValue(const Value &V, Type *Ty, void *Dst,
                                 SourceLoc Loc) {
  DiagnosticEngine &D = Ctx.diags();
  auto Err = [&](const std::string &Msg) {
    D.error(Loc, "FFI: " + Msg);
    return false;
  };

  if (const auto *P = dyn_cast<PrimType>(Ty)) {
    if (P->primKind() == PrimType::Bool) {
      if (!V.isBool())
        return Err(std::string("expected boolean, got ") + V.typeName());
      *static_cast<uint8_t *>(Dst) = V.asBool() ? 1 : 0;
      return true;
    }
    if (!V.isNumber())
      return Err(std::string("expected number for ") + Ty->str() + ", got " +
                 V.typeName());
    double N = V.asNumber();
    switch (P->primKind()) {
    case PrimType::Int8:
      *static_cast<int8_t *>(Dst) = static_cast<int8_t>(N);
      return true;
    case PrimType::Int16:
      *static_cast<int16_t *>(Dst) = static_cast<int16_t>(N);
      return true;
    case PrimType::Int32:
      *static_cast<int32_t *>(Dst) = static_cast<int32_t>(N);
      return true;
    case PrimType::Int64:
      *static_cast<int64_t *>(Dst) = static_cast<int64_t>(N);
      return true;
    case PrimType::UInt8:
      *static_cast<uint8_t *>(Dst) = static_cast<uint8_t>(N);
      return true;
    case PrimType::UInt16:
      *static_cast<uint16_t *>(Dst) = static_cast<uint16_t>(N);
      return true;
    case PrimType::UInt32:
      *static_cast<uint32_t *>(Dst) = static_cast<uint32_t>(N);
      return true;
    case PrimType::UInt64:
      *static_cast<uint64_t *>(Dst) = static_cast<uint64_t>(N);
      return true;
    case PrimType::Float32:
      *static_cast<float *>(Dst) = static_cast<float>(N);
      return true;
    case PrimType::Float64:
      *static_cast<double *>(Dst) = N;
      return true;
    default:
      return Err("cannot pass a value of type " + Ty->str());
    }
  }

  if (const auto *PT = dyn_cast<PointerType>(Ty)) {
    if (V.isString()) {
      // Strings convert to rawstring; the bytes are interned so the pointer
      // stays valid for the lifetime of the context.
      const char *Data = Ctx.internStringData(V.asString());
      *static_cast<const void **>(Dst) = Data;
      return true;
    }
    if (V.isCData()) {
      CData *CD = V.asCData();
      if (CD->Ty->isPointer()) {
        *static_cast<void **>(Dst) = CD->pointerValue();
        return true;
      }
      // Array cdata decays to a pointer to its first element (as in C and
      // the LuaJIT FFI).
      if (auto *AT = dyn_cast<ArrayType>(CD->Ty)) {
        if (AT->element() == PT->pointee() ||
            PT->pointee() == Ctx.types().uint8()) {
          *static_cast<void **>(Dst) = CD->Bytes.data();
          return true;
        }
        return Err("array cdata element type mismatch: " + CD->Ty->str() +
                   " vs " + Ty->str());
      }
      return Err("cdata is not a pointer");
    }
    if (V.isNil()) {
      *static_cast<void **>(Dst) = nullptr;
      return true;
    }
    if (V.isTerraFn() && PT->pointee()->isFunction()) {
      TerraFunction *Fn = V.asTerraFn();
      // Native code receives a machine address; under tiering this forces
      // promotion (a tier-0 handle must never escape as a pointer).
      void *Raw = nativePointer(Fn);
      if (!Raw)
        return false;
      *static_cast<void **>(Dst) = Raw;
      return true;
    }
    return Err(std::string("cannot convert ") + V.typeName() + " to " +
               Ty->str());
  }

  if (Ty->isFunction()) {
    if (V.isTerraFn()) {
      TerraFunction *Fn = V.asTerraFn();
      void *Raw = nativePointer(Fn);
      if (!Raw)
        return false;
      *static_cast<void **>(Dst) = Raw;
      return true;
    }
    return Err("expected a terra function");
  }

  if (auto *ST = dyn_cast<StructType>(Ty)) {
    if (!TC.completeStruct(ST, Loc))
      return false;
    if (V.isCData()) {
      CData *CD = V.asCData();
      if (CD->Ty != Ty)
        return Err("cdata type mismatch: " + CD->Ty->str() + " vs " +
                   Ty->str());
      memcpy(Dst, CD->Bytes.data(), Ty->size());
      return true;
    }
    if (V.isTable()) {
      // Tables convert to structs when they contain the required fields
      // (paper §4.2).
      memset(Dst, 0, Ty->size());
      for (const StructField &F : ST->fields()) {
        Value FieldV = V.asTable()->getStr(F.Name);
        if (FieldV.isNil())
          continue; // Missing fields zero-fill.
        if (!marshalValue(FieldV, F.FieldType,
                          static_cast<uint8_t *>(Dst) + F.Offset, Loc))
          return false;
      }
      return true;
    }
    return Err(std::string("cannot convert ") + V.typeName() + " to struct " +
               ST->name());
  }

  if (auto *AT = dyn_cast<ArrayType>(Ty)) {
    if (V.isTable()) {
      Table *T = V.asTable();
      memset(Dst, 0, Ty->size());
      uint64_t N = std::min<uint64_t>(AT->length(),
                                      static_cast<uint64_t>(T->arrayLength()));
      for (uint64_t I2 = 0; I2 < N; ++I2)
        if (!marshalValue(T->getInt(static_cast<int64_t>(I2 + 1)),
                          AT->element(),
                          static_cast<uint8_t *>(Dst) +
                              I2 * AT->element()->size(),
                          Loc))
          return false;
      return true;
    }
    return Err("cannot convert to array type");
  }

  if (auto *VT = dyn_cast<VectorType>(Ty)) {
    if (V.isNumber()) {
      for (uint64_t I2 = 0; I2 < VT->length(); ++I2)
        if (!marshalValue(V, VT->element(),
                          static_cast<uint8_t *>(Dst) +
                              I2 * VT->element()->size(),
                          Loc))
          return false;
      return true;
    }
    return Err("cannot convert to vector type");
  }

  return Err("unsupported FFI type " + Ty->str());
}

Value TerraCompiler::unmarshalValue(Type *Ty, const void *Src) {
  if (const auto *P = dyn_cast<PrimType>(Ty)) {
    switch (P->primKind()) {
    case PrimType::Void:
      return Value::nil();
    case PrimType::Bool:
      return Value::boolean(*static_cast<const uint8_t *>(Src) != 0);
    case PrimType::Int8:
      return Value::number(*static_cast<const int8_t *>(Src));
    case PrimType::Int16:
      return Value::number(*static_cast<const int16_t *>(Src));
    case PrimType::Int32:
      return Value::number(*static_cast<const int32_t *>(Src));
    case PrimType::Int64:
      return Value::number(
          static_cast<double>(*static_cast<const int64_t *>(Src)));
    case PrimType::UInt8:
      return Value::number(*static_cast<const uint8_t *>(Src));
    case PrimType::UInt16:
      return Value::number(*static_cast<const uint16_t *>(Src));
    case PrimType::UInt32:
      return Value::number(*static_cast<const uint32_t *>(Src));
    case PrimType::UInt64:
      return Value::number(
          static_cast<double>(*static_cast<const uint64_t *>(Src)));
    case PrimType::Float32:
      return Value::number(*static_cast<const float *>(Src));
    case PrimType::Float64:
      return Value::number(*static_cast<const double *>(Src));
    }
  }
  // Pointers, structs, arrays, vectors come back as typed cdata.
  auto CD = std::make_shared<CData>();
  CD->Ty = Ty;
  CD->Bytes.assign(static_cast<const uint8_t *>(Src),
                   static_cast<const uint8_t *>(Src) + Ty->size());
  return Value::cdata(std::move(CD));
}

bool TerraCompiler::callFromHost(TerraFunction *F, std::vector<Value> &Args,
                                 std::vector<Value> &Results, SourceLoc Loc) {
  if (!ensureCompiled(F))
    return false;
  FunctionType *FnTy = F->FnTy;
  if (Args.size() != FnTy->params().size()) {
    Ctx.diags().error(Loc, "terra function '" + F->Name + "' expects " +
                               std::to_string(FnTy->params().size()) +
                               " arguments, got " +
                               std::to_string(Args.size()));
    return false;
  }
  // Marshal arguments into aligned slots.
  std::vector<std::vector<uint8_t>> Slots;
  std::vector<void *> ArgPtrs;
  Slots.reserve(Args.size());
  for (size_t I2 = 0; I2 != Args.size(); ++I2) {
    Type *PT = FnTy->params()[I2];
    Slots.emplace_back(std::max<size_t>(PT->size(), 8) + 32, 0);
    uintptr_t P = reinterpret_cast<uintptr_t>(Slots.back().data());
    uintptr_t Aligned = (P + 31) & ~static_cast<uintptr_t>(31);
    void *Slot = reinterpret_cast<void *>(Aligned);
    if (!marshalValue(Args[I2], PT, Slot, Loc))
      return false;
    ArgPtrs.push_back(Slot);
  }
  Type *R = FnTy->result();
  std::vector<uint8_t> RetSlot(std::max<uint64_t>(R->isVoid() ? 0 : R->size(),
                                                  8) +
                               32);
  uintptr_t RP = reinterpret_cast<uintptr_t>(RetSlot.data());
  void *Ret = reinterpret_cast<void *>((RP + 31) & ~static_cast<uintptr_t>(31));

  // The tiered dispatcher and TerraInterpBackend::execute overwrite this
  // with the tier they actually took.
  LastCallTier.store(Backend == BackendKind::Interp ? 0 : 1,
                     std::memory_order_relaxed);
  // A runtime trap on the interpreted tiers (division by zero, nil deref)
  // surfaces as a new diagnostic rather than a return code — the entry
  // thunk signature is shared with native code, which has none.
  unsigned ErrsBefore = Ctx.diags().errorCount();
  F->Entry(ArgPtrs.data(), Ret);
  if (Ctx.diags().errorCount() != ErrsBefore)
    return false;

  if (!R->isVoid())
    Results.push_back(unmarshalValue(R, Ret));
  return true;
}

//===----------------------------------------------------------------------===//
// Host closures and externs
//===----------------------------------------------------------------------===//

TerraFunction *TerraCompiler::wrapHostClosure(std::shared_ptr<Closure> C,
                                              FunctionType *FnTy,
                                              std::string Name) {
  TerraFunction *F = Ctx.createFunction(std::move(Name));
  F->HostClosure = C;
  F->HostClosureId = NextHostClosureId++;
  F->FnTy = FnTy;
  F->State = TerraFunction::SK_Checked;
  // Synthesize parameter symbols so codegen has names/types.
  std::vector<TerraSymbol *> Params;
  for (size_t I2 = 0; I2 != FnTy->params().size(); ++I2)
    Params.push_back(Ctx.freshSymbol(Ctx.intern("a" + std::to_string(I2)),
                                     FnTy->params()[I2]));
  F->Params = Ctx.copyArray(Params);
  F->NumParams = Params.size();
  F->RetTy = TypeRef::fromType(FnTy->result());
  HostClosures[F->HostClosureId] = {std::move(C), FnTy};
  return F;
}

TerraFunction *TerraCompiler::createExtern(const libc::Function &C) {
  TerraFunction *F = Ctx.createFunction(C.Name);
  F->IsExtern = true;
  F->Extern = &C;
  F->FnTy = C.Signature(Ctx.types());
  F->State = TerraFunction::SK_Checked;
  F->RetTy = TypeRef::fromType(F->FnTy->result());
  return F;
}

bool TerraCompiler::invokeHostClosure(uint64_t Id, void **Args, void *Ret) {
  auto It = HostClosures.find(Id);
  if (It == HostClosures.end())
    return false;
  const HostClosureInfo &Info = It->second;
  std::vector<Value> HostArgs;
  for (size_t I2 = 0; I2 != Info.FnTy->params().size(); ++I2)
    HostArgs.push_back(unmarshalValue(Info.FnTy->params()[I2], Args[I2]));
  std::vector<Value> Results;
  if (!I.call(Value::closure(Info.Closure), std::move(HostArgs), Results,
              SourceLoc()))
    return false;
  Type *R = Info.FnTy->result();
  if (R->isVoid())
    return true;
  if (Results.empty()) {
    memset(Ret, 0, R->size());
    return true;
  }
  return marshalValue(Results[0], R, Ret, SourceLoc());
}

//===----------------------------------------------------------------------===//
// saveobj
//===----------------------------------------------------------------------===//

/// Collects the full transitive component regardless of compilation state —
/// a saved module must be self-contained (no baked in-process addresses).
static void collectForSave(TerraFunction *F,
                           std::vector<TerraFunction *> &Out) {
  if (F->IsExtern)
    return;
  if (std::find(Out.begin(), Out.end(), F) != Out.end())
    return;
  Out.push_back(F);
  for (TerraFunction *Callee : F->Callees)
    collectForSave(Callee, Out);
}

bool TerraCompiler::saveObject(
    const std::string &Path,
    const std::vector<std::pair<std::string, TerraFunction *>> &Exports) {
  std::vector<TerraFunction *> Component;
  std::map<const TerraFunction *, std::string> ExportNames;
  for (const auto &E : Exports) {
    TerraFunction *F = E.second;
    Timer T;
    bool OK = TC.check(F);
    Timing.TypecheckSeconds += T.seconds();
    if (!OK)
      return false;
    collectForSave(F, Component);
    ExportNames[F] = E.first;
  }
  if (!analyzeComponent(Component))
    return false;
  for (TerraFunction *Fn : Component) {
    if (Fn->HostClosure)
      continue; // emitModule reports the error with context.
    runMidendPasses(Ctx, Fn);
    if (!verifyFunction(Ctx.diags(), Fn))
      return false;
  }
  CBackend CB(Ctx);
  std::string Source = CB.emitModule(Component, this, /*Standalone=*/true,
                                     &ExportNames);
  if (Source.empty())
    return false;
  return JIT.saveObject(Path, Source);
}
