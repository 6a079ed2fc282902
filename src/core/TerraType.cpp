#include "core/TerraType.h"

#include "core/LuaValue.h"

#include <algorithm>

using namespace terracpp;

//===----------------------------------------------------------------------===//
// Type
//===----------------------------------------------------------------------===//

uint64_t Type::size() const {
  assert(LayoutComputed && "type layout not computed");
  return SizeInBytes;
}

uint64_t Type::align() const {
  assert(LayoutComputed && "type layout not computed");
  return AlignInBytes;
}

bool Type::isIntegral() const {
  const auto *P = dyn_cast<PrimType>(this);
  return P && P->isIntegralPrim();
}

bool Type::isFloat() const {
  const auto *P = dyn_cast<PrimType>(this);
  return P && P->isFloatPrim();
}

bool Type::isBool() const {
  const auto *P = dyn_cast<PrimType>(this);
  return P && P->primKind() == PrimType::Bool;
}

bool Type::isVoid() const {
  const auto *P = dyn_cast<PrimType>(this);
  return P && P->primKind() == PrimType::Void;
}

bool Type::isArithmeticOrVector() const {
  if (isArithmetic() || isBool() || isPointer())
    return true;
  if (const auto *V = dyn_cast<VectorType>(this))
    return V->element()->isArithmetic() || V->element()->isBool();
  return false;
}

bool Type::isSigned() const {
  const auto *P = dyn_cast<PrimType>(this);
  return P && P->isSignedPrim();
}

//===----------------------------------------------------------------------===//
// PrimType
//===----------------------------------------------------------------------===//

PrimType::PrimType(PrimKind PK, std::string Name, uint64_t Size)
    : Type(TK_Prim, std::move(Name)), PK(PK) {
  SizeInBytes = Size;
  AlignInBytes = Size == 0 ? 1 : Size;
  LayoutComputed = true;
}

int64_t PrimType::wrapInt(int64_t V) const {
  switch (PK) {
  case Bool:
    return V != 0;
  case Int8:
    return static_cast<int8_t>(V);
  case Int16:
    return static_cast<int16_t>(V);
  case Int32:
    return static_cast<int32_t>(V);
  case UInt8:
    return static_cast<uint8_t>(V);
  case UInt16:
    return static_cast<uint16_t>(V);
  case UInt32:
    return static_cast<uint32_t>(V);
  default:
    return V;
  }
}

unsigned PrimType::conversionRank() const {
  switch (PK) {
  case Void:
    return 0;
  case Bool:
    return 1;
  case Int8:
  case UInt8:
    return 2;
  case Int16:
  case UInt16:
    return 3;
  case Int32:
  case UInt32:
    return 4;
  case Int64:
  case UInt64:
    return 5;
  case Float32:
    return 6;
  case Float64:
    return 7;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Derived types
//===----------------------------------------------------------------------===//

PointerType::PointerType(Type *Pointee)
    : Type(TK_Pointer, "&" + Pointee->str()), Pointee(Pointee) {
  SizeInBytes = sizeof(void *);
  AlignInBytes = alignof(void *);
  LayoutComputed = true;
}

ArrayType::ArrayType(Type *Element, uint64_t Length)
    : Type(TK_Array, Element->str() + "[" + std::to_string(Length) + "]"),
      Element(Element), Length(Length) {
  SizeInBytes = Element->size() * Length;
  AlignInBytes = Element->align();
  LayoutComputed = true;
}

VectorType::VectorType(Type *Element, uint64_t Length)
    : Type(TK_Vector, "vector(" + Element->str() + "," +
                          std::to_string(Length) + ")"),
      Element(Element), Length(Length) {
  assert((Length & (Length - 1)) == 0 && "vector length must be power of 2");
  SizeInBytes = Element->size() * Length;
  AlignInBytes = SizeInBytes; // Natural SIMD alignment.
  LayoutComputed = true;
}

FunctionType::FunctionType(std::vector<Type *> ParamTypes, Type *Result)
    : Type(TK_Function, ""), Params(std::move(ParamTypes)), Result(Result) {
  Name = "{";
  for (size_t I = 0; I != Params.size(); ++I) {
    if (I)
      Name += ",";
    Name += Params[I]->str();
  }
  Name += "} -> ";
  Name += Result->str();
  SizeInBytes = sizeof(void *);
  AlignInBytes = alignof(void *);
  LayoutComputed = true;
}

//===----------------------------------------------------------------------===//
// StructType
//===----------------------------------------------------------------------===//

StructType::StructType(std::string Name)
    : Type(TK_Struct, Name), StructName(std::move(Name)) {}

void StructType::addField(const std::string &FieldName, Type *FieldType) {
  assert(!LayoutComputed && "cannot add fields after layout finalization");
  auto Entry = std::make_shared<lua::Table>();
  Entry->setStr("field", lua::Value::string(FieldName));
  Entry->setStr("type", lua::Value::type(FieldType));
  entriesTable()->append(lua::Value::table(std::move(Entry)));
}

int StructType::fieldIndex(const std::string &FieldName) const {
  for (size_t I = 0; I != Fields.size(); ++I)
    if (Fields[I].Name == FieldName)
      return static_cast<int>(I);
  return -1;
}

bool StructType::finalizeLayout(std::string &ErrMsg) {
  if (LayoutComputed)
    return true;
  if (Finalizing) {
    ErrMsg = "struct " + StructName + " recursively contains itself by value";
    return false;
  }
  Finalizing = true;
  struct Reset {
    bool &Flag;
    ~Reset() { Flag = false; }
  } ResetGuard{Finalizing};
  // Snapshot the entries reflection table into the concrete field list.
  Fields.clear();
  const lua::Table *E = entriesTable();
  int64_t N = E->arrayLength();
  for (int64_t I = 1; I <= N; ++I) {
    lua::Value Entry = E->getInt(I);
    if (!Entry.isTable()) {
      ErrMsg = "struct " + StructName + ": entries[" + std::to_string(I) +
               "] is not a table";
      return false;
    }
    lua::Value FieldName = Entry.asTable()->getStr("field");
    lua::Value FieldTy = Entry.asTable()->getStr("type");
    if (!FieldName.isString() || !FieldTy.isType()) {
      ErrMsg = "struct " + StructName + ": entries[" + std::to_string(I) +
               "] must have a 'field' string and a 'type' terra type";
      return false;
    }
    Type *FT = FieldTy.asType();
    if (auto *ST = dyn_cast<StructType>(FT)) {
      if (!ST->isComplete() && !ST->finalizeLayout(ErrMsg))
        return false;
    }
    if (FT->isVoid() || FT->isFunction()) {
      ErrMsg = "struct " + StructName + ": field '" + FieldName.asString() +
               "' has invalid type " + FT->str();
      return false;
    }
    Fields.push_back({FieldName.asString(), FT, 0});
  }
  uint64_t Offset = 0;
  uint64_t MaxAlign = 1;
  for (StructField &F : Fields) {
    uint64_t A = F.FieldType->align();
    MaxAlign = std::max(MaxAlign, A);
    Offset = (Offset + A - 1) / A * A;
    F.Offset = Offset;
    Offset += F.FieldType->size();
  }
  SizeInBytes = (Offset + MaxAlign - 1) / MaxAlign * MaxAlign;
  if (SizeInBytes == 0)
    SizeInBytes = 1; // Empty structs still occupy storage, as in C++.
  AlignInBytes = MaxAlign;
  LayoutComputed = true;
  return true;
}

lua::Table *StructType::entriesTable() const {
  if (!Entries)
    Entries = std::make_shared<lua::Table>();
  return Entries.get();
}

lua::Table *StructType::methods() const {
  if (!Methods)
    Methods = std::make_shared<lua::Table>();
  return Methods.get();
}

lua::Table *StructType::metamethods() const {
  if (!Metamethods)
    Metamethods = std::make_shared<lua::Table>();
  return Metamethods.get();
}

//===----------------------------------------------------------------------===//
// TypeContext
//===----------------------------------------------------------------------===//

TypeContext::TypeContext() {
  struct PrimSpec {
    PrimType::PrimKind PK;
    const char *Name;
    uint64_t Size;
  };
  static const PrimSpec Specs[] = {
      {PrimType::Void, "{}", 0},        {PrimType::Bool, "bool", 1},
      {PrimType::Int8, "int8", 1},      {PrimType::Int16, "int16", 2},
      {PrimType::Int32, "int32", 4},    {PrimType::Int64, "int64", 8},
      {PrimType::UInt8, "uint8", 1},    {PrimType::UInt16, "uint16", 2},
      {PrimType::UInt32, "uint32", 4},  {PrimType::UInt64, "uint64", 8},
      {PrimType::Float32, "float", 4},  {PrimType::Float64, "double", 8},
  };
  for (const PrimSpec &S : Specs) {
    auto *T = new PrimType(S.PK, S.Name, S.Size);
    OwnedTypes.emplace_back(T);
    Prims[S.PK] = T;
  }
}

TypeContext::~TypeContext() = default;

PointerType *TypeContext::pointer(Type *Pointee) {
  auto It = PointerTypes.find(Pointee);
  if (It != PointerTypes.end())
    return It->second;
  auto *T = new PointerType(Pointee);
  OwnedTypes.emplace_back(T);
  PointerTypes[Pointee] = T;
  return T;
}

ArrayType *TypeContext::array(Type *Element, uint64_t Length) {
  auto Key = std::make_pair(Element, Length);
  auto It = ArrayTypes.find(Key);
  if (It != ArrayTypes.end())
    return It->second;
  auto *T = new ArrayType(Element, Length);
  OwnedTypes.emplace_back(T);
  ArrayTypes[Key] = T;
  return T;
}

VectorType *TypeContext::vector(Type *Element, uint64_t Length) {
  auto Key = std::make_pair(Element, Length);
  auto It = VectorTypes.find(Key);
  if (It != VectorTypes.end())
    return It->second;
  auto *T = new VectorType(Element, Length);
  OwnedTypes.emplace_back(T);
  VectorTypes[Key] = T;
  return T;
}

FunctionType *TypeContext::function(std::vector<Type *> Params, Type *Result) {
  auto Key = std::make_pair(Params, Result);
  auto It = FnTypes.find(Key);
  if (It != FnTypes.end())
    return It->second;
  auto *T = new FunctionType(std::move(Params), Result);
  OwnedTypes.emplace_back(T);
  FnTypes[Key] = T;
  return T;
}

StructType *TypeContext::createStruct(std::string Name) {
  auto *T = new StructType(std::move(Name));
  OwnedTypes.emplace_back(T);
  return T;
}
