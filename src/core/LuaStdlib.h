//===- LuaStdlib.h - Host standard library + terralib surface ---*- C++ -*-===//
//
// Installs the host-language standard library (print, math, string, table,
// ...) plus the Terra surface the paper's programs use: primitive type
// names, `vector`, `symbol`, `global`, `sizeof`, `prefetch`, the `->` and
// `&` type constructors, and the `terralib` table (includec, cast, saveobj,
// new, newlist, ...). The includec substitute binds entries of the libc
// table (core/Libc.h) instead of parsing headers with Clang (DESIGN.md §4).
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_LUASTDLIB_H
#define TERRACPP_CORE_LUASTDLIB_H

namespace terracpp {

class TerraCompiler;

namespace lua {
class Interp;
}

void installStdlib(lua::Interp &I, TerraCompiler &Compiler);

} // namespace terracpp

#endif // TERRACPP_CORE_LUASTDLIB_H
