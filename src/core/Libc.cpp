#include "core/Libc.h"

#include "core/TerraType.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>

using namespace terracpp;
using namespace terracpp::libc;

namespace {

template <typename T> T load(const void *P) {
  T V;
  memcpy(&V, P, sizeof V);
  return V;
}

/// The Terra type of a C parameter or result type. Sizes are int64, as
/// Terra code computes them.
template <typename T> Type *terraType(TypeContext &TC) {
  if constexpr (std::is_void_v<T>)
    return TC.voidType();
  else if constexpr (std::is_same_v<T, int>)
    return TC.int32();
  else if constexpr (std::is_same_v<T, size_t>)
    return TC.int64();
  else if constexpr (std::is_same_v<T, float>)
    return TC.float32();
  else if constexpr (std::is_same_v<T, double>)
    return TC.float64();
  else if constexpr (std::is_same_v<T, const char *>)
    return TC.rawstring();
  else {
    static_assert(std::is_void_v<std::remove_cv_t<std::remove_pointer_t<T>>>,
                  "no Terra type for this C type");
    return TC.opaquePtr();
  }
}

/// The signature and invoker of a fixed-arity C function type.
template <typename Sig> struct CFunction;
template <typename R, typename... A> struct CFunction<R(A...)> {
  static FunctionType *signature(TypeContext &TC) {
    return TC.function({terraType<A>(TC)...}, terraType<R>(TC));
  }
  static void invoke(void *Addr, void **Args, const std::vector<Type *> &,
                     void *Ret) {
    auto *Fn = reinterpret_cast<R (*)(A...)>(Addr);
    [&]<size_t... I>(std::index_sequence<I...>) {
      if constexpr (std::is_void_v<R>) {
        Fn(load<A>(Args[I])...);
      } else {
        R V = Fn(load<A>(Args[I])...);
        memcpy(Ret, &V, sizeof V);
      }
    }(std::index_sequence_for<A...>{});
  }
};

template <typename Sig>
Function fn(const char *Header, const char *Name, Sig *Addr) {
  return {Header,
          Name,
          reinterpret_cast<void *>(Addr),
          CFunction<Sig>::signature,
          CFunction<Sig>::invoke,
          /*VarArg=*/false};
}

/// Appends snprintf(Spec, Star[0], ..., Star[Stars - 1], Val) to \p Out.
template <typename V>
void format(std::string &Out, const std::string &Spec, unsigned Stars,
            const int *Star, V Val) {
  auto Print = [&](char *Buf, size_t Size) {
    const char *F = Spec.c_str();
    if (Stars == 0)
      return snprintf(Buf, Size, F, Val);
    if (Stars == 1)
      return snprintf(Buf, Size, F, Star[0], Val);
    return snprintf(Buf, Size, F, Star[0], Star[1], Val);
  };
  int N = Print(nullptr, 0);
  if (N <= 0)
    return;
  size_t At = Out.size();
  Out.resize(At + N + 1);
  Print(Out.data() + At, N + 1);
  Out.resize(At + N);
}

/// An integral vararg after C default promotion: bool, 32 or 64 bits.
long long loadInt(const Type *T, const void *P) {
  if (T->size() == 8)
    return load<long long>(P);
  return T->size() == 4 ? load<int>(P) : load<uint8_t>(P);
}

/// printf: splits the format into conversion specs and passes each one, with
/// its arguments at their promoted Terra types, to the real snprintf, so the
/// host libc does all the formatting. A spec whose arguments are missing or
/// not scalars is copied out literally, as is a conversion outside
/// `diouxXeEfFgGaAcsp%` (`%n` among them). Terra has no long double, so an
/// `L` float conversion receives its double converted.
void invokePrintf(void *, void **Args, const std::vector<Type *> &ArgTypes,
                  void *Ret) {
  const char *C = load<const char *>(Args[0]);
  size_t ArgI = 1;
  std::string Out;
  while (true) {
    const char *Pct = C + strcspn(C, "%");
    Out.append(C, Pct);
    if (!*Pct)
      break;
    const char *S = Pct + 1 + strspn(Pct + 1, "-+ #0'");
    unsigned Stars = 0;
    auto Field = [&] { // A width or precision: digits or `*`.
      if (*S == '*')
        ++Stars, ++S;
      else
        S += strspn(S, "0123456789");
    };
    Field();
    if (*S == '.')
      ++S, Field();
    bool LongDouble = *S == 'L';
    S += strspn(S, "hlLqjzt");
    if (!*S || !strchr("diouxXeEfFgGaAcsp%", *S)) {
      Out.append(Pct, S);
      C = S;
      continue;
    }
    std::string Spec(Pct, S + 1);
    C = S + 1;
    size_t End = ArgI + Stars + (*S != '%');
    bool Scalars = End <= ArgTypes.size();
    for (size_t K = ArgI; Scalars && K != End; ++K)
      Scalars = ArgTypes[K]->isPrim() || ArgTypes[K]->isPointer();
    if (!Scalars) {
      Out += Spec;
      continue;
    }
    int Star[2] = {0, 0};
    for (unsigned K = 0; K != Stars; ++K, ++ArgI)
      Star[K] = static_cast<int>(loadInt(ArgTypes[ArgI], Args[ArgI]));
    if (*S == '%') {
      format(Out, Spec, Stars, Star, 0); // libc ignores the 0.
      continue;
    }
    const Type *T = ArgTypes[ArgI];
    const void *P = Args[ArgI++];
    if (T->isPointer())
      format(Out, Spec, Stars, Star, load<void *>(P));
    else if (T->isFloat() && LongDouble)
      format(Out, Spec, Stars, Star, static_cast<long double>(load<double>(P)));
    else if (T->isFloat())
      format(Out, Spec, Stars, Star, load<double>(P));
    else if (T->size() == 8)
      format(Out, Spec, Stars, Star, loadInt(T, P));
    else // int and unsigned share the vararg ABI.
      format(Out, Spec, Stars, Star, static_cast<int>(loadInt(T, P)));
  }
  fwrite(Out.data(), 1, Out.size(), stdout);
  int N = static_cast<int>(Out.size());
  memcpy(Ret, &N, sizeof N);
}

} // namespace

const std::vector<Function> &libc::table() {
  static const std::vector<Function> Table = {
      fn<void *(size_t)>("stdlib.h", "malloc", malloc),
      fn<void *(size_t, size_t)>("stdlib.h", "calloc", calloc),
      fn<void *(void *, size_t)>("stdlib.h", "realloc", realloc),
      fn<void(void *)>("stdlib.h", "free", free),
      fn<void()>("stdlib.h", "abort", abort),
      fn<void(int)>("stdlib.h", "exit", exit),
      {"stdio.h", "printf", reinterpret_cast<void *>(printf),
       CFunction<int(const char *)>::signature, invokePrintf,
       /*VarArg=*/true},
      fn<int(const char *)>("stdio.h", "puts", puts),
      fn<int(int)>("stdio.h", "putchar", putchar),
      fn<void *(void *, const void *, size_t)>("string.h", "memcpy", memcpy),
      fn<void *(void *, int, size_t)>("string.h", "memset", memset),
      fn<void *(void *, const void *, size_t)>("string.h", "memmove",
                                                memmove),
      fn<size_t(const char *)>("string.h", "strlen", strlen),
      fn<int(const char *, const char *)>("string.h", "strcmp", strcmp),
      fn<double(double)>("math.h", "sqrt", sqrt),
      fn<float(float)>("math.h", "sqrtf", sqrtf),
      fn<double(double)>("math.h", "sin", sin),
      fn<double(double)>("math.h", "cos", cos),
      fn<double(double)>("math.h", "exp", exp),
      fn<double(double)>("math.h", "log", log),
      fn<double(double, double)>("math.h", "pow", pow),
      fn<double(double)>("math.h", "fabs", fabs),
      fn<float(float)>("math.h", "fabsf", fabsf),
      fn<double(double)>("math.h", "floor", floor),
      fn<double(double)>("math.h", "ceil", ceil),
      fn<double(double, double)>("math.h", "fmod", fmod),
  };
  return Table;
}

const Function *libc::find(const std::string &Header,
                           const std::string &Name) {
  for (const Function &F : table())
    if (Header == F.Header && Name == F.Name)
      return &F;
  return nullptr;
}

std::string libc::headerList() {
  std::string List;
  const char *Last = "";
  for (const Function &F : table()) {
    if (strcmp(F.Header, Last) == 0)
      continue;
    List += (*Last ? ", " : "") + std::string(F.Header);
    Last = F.Header;
  }
  return List;
}
