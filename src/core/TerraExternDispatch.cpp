#include "core/TerraExternDispatch.h"

#include "core/TerraAST.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <cstdlib>

using namespace terracpp;

namespace {

/// Reads a scalar of prim kind \p PK from \p P widened to double.
double loadAsDouble(PrimType::PrimKind PK, const void *P) {
  switch (PK) {
  case PrimType::Bool:
    return *static_cast<const uint8_t *>(P) ? 1 : 0;
  case PrimType::Int8:
    return *static_cast<const int8_t *>(P);
  case PrimType::Int16:
    return *static_cast<const int16_t *>(P);
  case PrimType::Int32:
    return *static_cast<const int32_t *>(P);
  case PrimType::Int64:
    return static_cast<double>(*static_cast<const int64_t *>(P));
  case PrimType::UInt8:
    return *static_cast<const uint8_t *>(P);
  case PrimType::UInt16:
    return *static_cast<const uint16_t *>(P);
  case PrimType::UInt32:
    return *static_cast<const uint32_t *>(P);
  case PrimType::UInt64:
    return static_cast<double>(*static_cast<const uint64_t *>(P));
  case PrimType::Float32:
    return *static_cast<const float *>(P);
  case PrimType::Float64:
    return *static_cast<const double *>(P);
  case PrimType::Void:
    return 0;
  }
  return 0;
}

/// Reads a scalar widened to int64 (sign- or zero-extended by PK; floats
/// truncate toward zero).
int64_t loadAsInt(PrimType::PrimKind PK, const void *P) {
  switch (PK) {
  case PrimType::Bool:
    return *static_cast<const uint8_t *>(P) ? 1 : 0;
  case PrimType::Int8:
    return *static_cast<const int8_t *>(P);
  case PrimType::Int16:
    return *static_cast<const int16_t *>(P);
  case PrimType::Int32:
    return *static_cast<const int32_t *>(P);
  case PrimType::Int64:
    return *static_cast<const int64_t *>(P);
  case PrimType::UInt8:
    return *static_cast<const uint8_t *>(P);
  case PrimType::UInt16:
    return *static_cast<const uint16_t *>(P);
  case PrimType::UInt32:
    return *static_cast<const uint32_t *>(P);
  case PrimType::UInt64:
    return static_cast<int64_t>(*static_cast<const uint64_t *>(P));
  case PrimType::Float32:
    return static_cast<int64_t>(*static_cast<const float *>(P));
  case PrimType::Float64:
    return static_cast<int64_t>(*static_cast<const double *>(P));
  case PrimType::Void:
    return 0;
  }
  return 0;
}

} // namespace

namespace terracpp {
namespace interpruntime {

bool dispatchExtern(const TerraFunction *F, void **Args,
                    const std::vector<Type *> &ArgTypes, void *Ret,
                    std::string &Err) {
  const std::string &N = F->ExternName;
  auto P = [&](unsigned I) {
    void *V;
    memcpy(&V, Args[I], 8);
    return V;
  };
  auto I64 = [&](unsigned I) {
    int64_t V;
    memcpy(&V, Args[I], 8);
    return V;
  };
  auto I32 = [&](unsigned I) {
    int32_t V;
    memcpy(&V, Args[I], 4);
    return V;
  };
  auto F64 = [&](unsigned I) {
    double V;
    memcpy(&V, Args[I], 8);
    return V;
  };
  auto F32 = [&](unsigned I) {
    float V;
    memcpy(&V, Args[I], 4);
    return V;
  };
  auto RetP = [&](void *V) { memcpy(Ret, &V, 8); };
  auto RetF64 = [&](double V) { memcpy(Ret, &V, 8); };
  auto RetF32 = [&](float V) { memcpy(Ret, &V, 4); };
  auto RetI32 = [&](int32_t V) { memcpy(Ret, &V, 4); };

  if (N == "malloc") {
    RetP(malloc(static_cast<size_t>(I64(0))));
    return true;
  }
  if (N == "calloc") {
    RetP(calloc(static_cast<size_t>(I64(0)), static_cast<size_t>(I64(1))));
    return true;
  }
  if (N == "realloc") {
    RetP(realloc(P(0), static_cast<size_t>(I64(1))));
    return true;
  }
  if (N == "free") {
    free(P(0));
    return true;
  }
  if (N == "memcpy") {
    RetP(memcpy(P(0), P(1), static_cast<size_t>(I64(2))));
    return true;
  }
  if (N == "memset") {
    RetP(memset(P(0), I32(1), static_cast<size_t>(I64(2))));
    return true;
  }
  if (N == "strlen") {
    int64_t L = static_cast<int64_t>(strlen(static_cast<const char *>(P(0))));
    memcpy(Ret, &L, 8);
    return true;
  }
  if (N == "puts") {
    RetI32(puts(static_cast<const char *>(P(0))));
    return true;
  }
  if (N == "putchar") {
    RetI32(putchar(I32(0)));
    return true;
  }
  if (N == "sqrt") {
    RetF64(sqrt(F64(0)));
    return true;
  }
  if (N == "sqrtf") {
    RetF32(sqrtf(F32(0)));
    return true;
  }
  if (N == "sin") {
    RetF64(sin(F64(0)));
    return true;
  }
  if (N == "cos") {
    RetF64(cos(F64(0)));
    return true;
  }
  if (N == "exp") {
    RetF64(exp(F64(0)));
    return true;
  }
  if (N == "log") {
    RetF64(log(F64(0)));
    return true;
  }
  if (N == "pow") {
    RetF64(pow(F64(0), F64(1)));
    return true;
  }
  if (N == "fabs") {
    RetF64(fabs(F64(0)));
    return true;
  }
  if (N == "floor") {
    RetF64(floor(F64(0)));
    return true;
  }
  if (N == "ceil") {
    RetF64(ceil(F64(0)));
    return true;
  }
  if (N == "fmod") {
    RetF64(fmod(F64(0), F64(1)));
    return true;
  }
  if (N == "printf") {
    // Minimal printf: interpret %d %lld %f %g %s %c %% with the declared
    // argument types (the registry types printf as a fixed signature).
    const char *Fmt = static_cast<const char *>(P(0));
    std::string Out;
    unsigned ArgI = 1;
    unsigned NumArgs = ArgTypes.size();
    for (const char *C = Fmt; *C; ++C) {
      if (*C != '%') {
        Out += *C;
        continue;
      }
      ++C;
      if (*C == '%') {
        Out += '%';
        continue;
      }
      std::string Spec = "%";
      while (*C && !strchr("diufgesc", *C)) {
        Spec += *C;
        ++C;
      }
      if (!*C)
        break;
      Spec += *C;
      char Buf[128];
      if (ArgI >= NumArgs) {
        Out += Spec;
        continue;
      }
      Type *AT = ArgTypes[ArgI];
      switch (*C) {
      case 'd':
      case 'i':
      case 'u':
        snprintf(Buf, sizeof(Buf), "%lld",
                 static_cast<long long>(
                     loadAsInt(cast<PrimType>(AT)->primKind(), Args[ArgI])));
        Out += Buf;
        break;
      case 'f':
      case 'g':
      case 'e':
        snprintf(Buf, sizeof(Buf), Spec.c_str(),
                 loadAsDouble(cast<PrimType>(AT)->primKind(), Args[ArgI]));
        Out += Buf;
        break;
      case 's': {
        void *SP;
        memcpy(&SP, Args[ArgI], 8);
        Out += SP ? static_cast<const char *>(SP) : "(null)";
        break;
      }
      case 'c':
        Out += static_cast<char>(
            loadAsInt(cast<PrimType>(AT)->primKind(), Args[ArgI]));
        break;
      }
      ++ArgI;
    }
    fputs(Out.c_str(), stdout);
    RetI32(static_cast<int32_t>(Out.size()));
    return true;
  }
  Err = "extern function '" + N +
        "' is not available in the interpreter backend";
  return false;
}

} // namespace interpruntime
} // namespace terracpp
