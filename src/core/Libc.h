//===- Libc.h - The C library boundary of Terra code ------------*- C++ -*-===//
//
// The one description of the C functions Terra code can call: the offline
// stand-in for Clang-based terralib.includec (DESIGN.md §4). Each entry
// names a libc function once, with its C++ type; its Terra signature, its
// real address and its invoker are all derived from that type. Native code
// calls an extern by name after including its header; the interpreter tiers
// call its address through its invoker.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_LIBC_H
#define TERRACPP_CORE_LIBC_H

#include <string>
#include <vector>

namespace terracpp {

class FunctionType;
class Type;
class TypeContext;

namespace libc {

/// Calls the C function at \p Addr. Args[i] points at the i-th argument in
/// the C layout of its type, and \p Ret receives the result. ArgTypes are
/// the call site's static argument types; only the variadic printf reads
/// them.
using Invoker = void (*)(void *Addr, void **Args,
                         const std::vector<Type *> &ArgTypes, void *Ret);

/// One C function of the table. Entries live as long as the process, and
/// an extern TerraFunction points at its entry.
struct Function {
  const char *Header;
  const char *Name;
  void *Addr;
  FunctionType *(*Signature)(TypeContext &);
  Invoker Invoke;
  bool VarArg;
};

/// Every entry, grouped by header.
const std::vector<Function> &table();

/// The entry for \p Name declared by \p Header, or null.
const Function *find(const std::string &Header, const std::string &Name);

/// The table's headers in table order, comma separated.
std::string headerList();

} // namespace libc
} // namespace terracpp

#endif // TERRACPP_CORE_LIBC_H
