//===- TerraType.h - The Terra type system ----------------------*- C++ -*-===//
//
// Terra is a low-level monomorphic language with a C-like type system:
// primitive types, pointers, fixed-size arrays, fixed-width SIMD vectors,
// function types, and nominally-typed structs (paper §2, §4.1).
//
// Types are first-class host-language values (paper: "Terra types are Lua
// values"). StructType therefore carries the reflection tables the paper
// exposes to Lua code: `entries` (layout), `methods`, and `metamethods`
// (`__cast`, `__finalizelayout`). Struct layout is computed lazily the first
// time the typechecker examines the type, after running __finalizelayout.
//
// All types are uniqued by (and owned by) a TypeContext, so type equality is
// pointer equality.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_TERRATYPE_H
#define TERRACPP_CORE_TERRATYPE_H

#include "support/Casting.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace terracpp {

namespace lua {
class Table;
} // namespace lua

class TypeContext;

/// Root of the Terra type hierarchy.
class Type {
public:
  enum TypeKind {
    TK_Prim,
    TK_Pointer,
    TK_Array,
    TK_Vector,
    TK_Function,
    TK_Struct,
  };

  TypeKind kind() const { return Kind; }

  /// Size in bytes of a value of this type; asserts the layout is known.
  uint64_t size() const;
  /// Alignment in bytes; asserts the layout is known.
  uint64_t align() const;

  /// A stable human-readable spelling, e.g. "&float", "vector(double,4)".
  const std::string &str() const { return Name; }

  bool isPrim() const { return Kind == TK_Prim; }
  bool isPointer() const { return Kind == TK_Pointer; }
  bool isArray() const { return Kind == TK_Array; }
  bool isVector() const { return Kind == TK_Vector; }
  bool isFunction() const { return Kind == TK_Function; }
  bool isStruct() const { return Kind == TK_Struct; }

  bool isIntegral() const;
  bool isFloat() const;
  bool isArithmetic() const { return isIntegral() || isFloat(); }
  bool isBool() const;
  bool isVoid() const;
  /// Integral, floating, bool, pointer, or vector thereof: valid in
  /// arithmetic/comparison positions after broadcast.
  bool isArithmeticOrVector() const;
  bool isSigned() const;

  virtual ~Type() = default; ///< Owned and destroyed by the TypeContext.

protected:
  Type(TypeKind Kind, std::string Name) : Kind(Kind), Name(std::move(Name)) {}

  friend class TypeContext;

  TypeKind Kind;
  std::string Name;
  uint64_t SizeInBytes = 0;
  uint64_t AlignInBytes = 0;
  bool LayoutComputed = false;
};

/// Primitive scalar types (and void, which is only valid as a return type).
class PrimType : public Type {
public:
  enum PrimKind {
    Void,
    Bool,
    Int8,
    Int16,
    Int32,
    Int64,
    UInt8,
    UInt16,
    UInt32,
    UInt64,
    Float32,
    Float64,
  };

  PrimKind primKind() const { return PK; }

  bool isIntegralPrim() const { return PK >= Int8 && PK <= UInt64; }
  bool isSignedPrim() const { return PK >= Int8 && PK <= Int64; }
  bool isFloatPrim() const { return PK == Float32 || PK == Float64; }

  /// Rank used for usual-arithmetic-conversion style promotion.
  unsigned conversionRank() const;

  /// \p V converted to this type and widened back to 64 bits, as a C cast
  /// does: narrow signed kinds sign-extend, narrow unsigned kinds
  /// zero-extend, bool is 0/1. Float and void kinds return \p V unchanged.
  int64_t wrapInt(int64_t V) const;

  static bool classof(const Type *T) { return T->kind() == TK_Prim; }

private:
  friend class TypeContext;
  PrimType(PrimKind PK, std::string Name, uint64_t Size);

  PrimKind PK;
};

/// Pointer type `&T`.
class PointerType : public Type {
public:
  Type *pointee() const { return Pointee; }

  static bool classof(const Type *T) { return T->kind() == TK_Pointer; }

private:
  friend class TypeContext;
  explicit PointerType(Type *Pointee);

  Type *Pointee;
};

/// Fixed-size array type `T[N]`.
class ArrayType : public Type {
public:
  Type *element() const { return Element; }
  uint64_t length() const { return Length; }

  static bool classof(const Type *T) { return T->kind() == TK_Array; }

private:
  friend class TypeContext;
  ArrayType(Type *Element, uint64_t Length);

  Type *Element;
  uint64_t Length;
};

/// SIMD vector type `vector(T, N)`; T must be a primitive arithmetic type or
/// bool (bool vectors are comparison results).
class VectorType : public Type {
public:
  Type *element() const { return Element; }
  uint64_t length() const { return Length; }

  static bool classof(const Type *T) { return T->kind() == TK_Vector; }

private:
  friend class TypeContext;
  VectorType(Type *Element, uint64_t Length);

  Type *Element;
  uint64_t Length;
};

/// Function type `{P1,...,Pn} -> R`. Terra Core restricts returns to a
/// single type (possibly void); full Terra's tuple returns are not modeled.
class FunctionType : public Type {
public:
  const std::vector<Type *> &params() const { return Params; }
  Type *result() const { return Result; }

  static bool classof(const Type *T) { return T->kind() == TK_Function; }

private:
  friend class TypeContext;
  FunctionType(std::vector<Type *> Params, Type *Result);

  std::vector<Type *> Params;
  Type *Result;
};

/// One field of a struct layout.
struct StructField {
  std::string Name;
  Type *FieldType;
  uint64_t Offset = 0; ///< Filled in by layout finalization.
};

/// Nominally-typed struct. Created empty; fields are added through the
/// reflection API (or parsed declarations) and the layout is frozen the
/// first time the typechecker examines the type.
class StructType : public Type {
public:
  const std::string &name() const { return StructName; }

  /// True once the layout has been computed; afterwards edits to the
  /// entries table are ignored (this is what keeps typechecking monotonic,
  /// paper §4.1).
  bool isComplete() const { return LayoutComputed; }

  /// Appends a field by inserting `{ field = Name, type = Ty }` into the
  /// entries reflection table; must not be called after completion.
  void addField(const std::string &FieldName, Type *FieldType);

  const std::vector<StructField> &fields() const {
    assert(LayoutComputed && "layout not finalized");
    return Fields;
  }

  /// Returns the index of \p FieldName or -1. Requires a finalized layout.
  int fieldIndex(const std::string &FieldName) const;

  /// Reads the entries table and computes offsets/size/alignment with C
  /// layout rules. Idempotent. The typechecker invokes the __finalizelayout
  /// metamethod (if any) before calling this. Returns false with a message
  /// in \p ErrMsg when the entries table is malformed.
  bool finalizeLayout(std::string &ErrMsg);

  /// Host-side reflection tables (created on demand). `entries` is the list
  /// of `{ field = name, type = T }` tables the paper's §4.1 example edits
  /// directly.
  lua::Table *entriesTable() const;
  lua::Table *methods() const;
  lua::Table *metamethods() const;

  static bool classof(const Type *T) { return T->kind() == TK_Struct; }

private:
  friend class TypeContext;
  explicit StructType(std::string Name);

  std::string StructName;
  bool Finalizing = false; ///< Cycle guard for recursive by-value fields.
  std::vector<StructField> Fields; ///< Built from Entries at finalization.
  // Reflection tables; shared_ptrs into the host heap. Mutable because they
  // are created lazily from const accessors.
  mutable std::shared_ptr<lua::Table> Entries;
  mutable std::shared_ptr<lua::Table> Methods;
  mutable std::shared_ptr<lua::Table> Metamethods;
};

/// Owns and uniques all types. Type equality is pointer equality.
class TypeContext {
public:
  TypeContext();
  ~TypeContext();
  TypeContext(const TypeContext &) = delete;
  TypeContext &operator=(const TypeContext &) = delete;

  PrimType *voidType() const { return Prims[PrimType::Void]; }
  PrimType *boolType() const { return Prims[PrimType::Bool]; }
  PrimType *int8() const { return Prims[PrimType::Int8]; }
  PrimType *int16() const { return Prims[PrimType::Int16]; }
  PrimType *int32() const { return Prims[PrimType::Int32]; }
  PrimType *int64() const { return Prims[PrimType::Int64]; }
  PrimType *uint8() const { return Prims[PrimType::UInt8]; }
  PrimType *uint16() const { return Prims[PrimType::UInt16]; }
  PrimType *uint32() const { return Prims[PrimType::UInt32]; }
  PrimType *uint64() const { return Prims[PrimType::UInt64]; }
  PrimType *float32() const { return Prims[PrimType::Float32]; }
  PrimType *float64() const { return Prims[PrimType::Float64]; }
  PrimType *prim(PrimType::PrimKind PK) const { return Prims[PK]; }

  PointerType *pointer(Type *Pointee);
  ArrayType *array(Type *Element, uint64_t Length);
  VectorType *vector(Type *Element, uint64_t Length);
  FunctionType *function(std::vector<Type *> Params, Type *Result);

  /// Creates a fresh, empty nominal struct type. Struct types are never
  /// uniqued by name: two `struct S {}` declarations are distinct types.
  StructType *createStruct(std::string Name);

  /// `rawstring` == &int8.
  PointerType *rawstring() { return pointer(int8()); }
  /// `&opaque` (our void*) == &uint8.
  PointerType *opaquePtr() { return pointer(uint8()); }

private:
  PrimType *Prims[PrimType::Float64 + 1];
  std::vector<std::unique_ptr<Type>> OwnedTypes;
  std::map<Type *, PointerType *> PointerTypes;
  std::map<std::pair<Type *, uint64_t>, ArrayType *> ArrayTypes;
  std::map<std::pair<Type *, uint64_t>, VectorType *> VectorTypes;
  std::map<std::pair<std::vector<Type *>, Type *>, FunctionType *> FnTypes;
};

} // namespace terracpp

#endif // TERRACPP_CORE_TERRATYPE_H
