//===- TerraExternDispatch.h - Interpreter-tier libc externs ---*- C++ -*-===//
//
// The libc extern registry of the interpreter tiers: the bytecode VM and
// the baseline JIT (which calls externs through the VM's call path) run
// extern calls through this one implementation, so they agree on the FFI
// boundary.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_TERRAEXTERNDISPATCH_H
#define TERRACPP_CORE_TERRAEXTERNDISPATCH_H

#include "core/TerraType.h"

#include <string>
#include <vector>

namespace terracpp {

class TerraFunction;

namespace interpruntime {

/// Calls the named libc extern with already-evaluated argument values
/// (Args[i] points at the i-th value; ArgTypes are the static call-site
/// types, needed for the printf mini-formatter). Returns false with \p Err
/// set when the extern is not in the registry.
bool dispatchExtern(const TerraFunction *F, void **Args,
                    const std::vector<Type *> &ArgTypes, void *Ret,
                    std::string &Err);

} // namespace interpruntime
} // namespace terracpp

#endif // TERRACPP_CORE_TERRAEXTERNDISPATCH_H
