//===- Assembler.cpp - Minimal in-process x86-64 encoder ------------------===//

#include "core/Assembler.h"

using namespace terracpp;
using namespace terracpp::x64;

void Assembler::word32(int32_t V) {
  for (int I = 0; I != 4; ++I)
    byte(static_cast<uint8_t>(static_cast<uint32_t>(V) >> (8 * I)));
}

void Assembler::word64(int64_t V) {
  for (int I = 0; I != 8; ++I)
    byte(static_cast<uint8_t>(static_cast<uint64_t>(V) >> (8 * I)));
}

void Assembler::rex(bool W, uint8_t R, uint8_t X, uint8_t B, bool Force) {
  uint8_t P = 0x40 | (W ? 8 : 0) | ((R & 1) << 2) | ((X & 1) << 1) | (B & 1);
  if (P != 0x40 || Force)
    byte(P);
}

void Assembler::modrm(uint8_t Mod, uint8_t RegOp, uint8_t Rm) {
  byte(static_cast<uint8_t>((Mod << 6) | ((RegOp & 7) << 3) | (Rm & 7)));
}

void Assembler::mem(uint8_t RegOp, Reg Base, int32_t Disp) {
  // Uniform mod=10 (disp32). rsp/r12 as base require a SIB byte.
  if ((Base & 7) == 4) {
    modrm(2, RegOp, 4);
    byte(0x24); // SIB: scale=0, no index, base=rsp/r12.
  } else {
    modrm(2, RegOp, Base & 7);
  }
  word32(Disp);
}

//===----------------------------------------------------------------------===//
// GPR moves
//===----------------------------------------------------------------------===//

void Assembler::movRR(Reg D, Reg S) {
  rex(true, S >> 3, 0, D >> 3);
  byte(0x89);
  modrm(3, S & 7, D & 7);
}

void Assembler::movRI(Reg D, int64_t Imm) {
  if (Imm >= INT32_MIN && Imm <= INT32_MAX) {
    rex(true, 0, 0, D >> 3);
    byte(0xC7);
    modrm(3, 0, D & 7);
    word32(static_cast<int32_t>(Imm));
    return;
  }
  rex(true, 0, 0, D >> 3);
  byte(0xB8 + (D & 7));
  word64(Imm);
}

void Assembler::loadRM(Reg D, Reg Base, int32_t Disp) {
  rex(true, D >> 3, 0, Base >> 3);
  byte(0x8B);
  mem(D & 7, Base, Disp);
}

void Assembler::storeMR(Reg Base, int32_t Disp, Reg S) {
  rex(true, S >> 3, 0, Base >> 3);
  byte(0x89);
  mem(S & 7, Base, Disp);
}

void Assembler::storeMI32(Reg Base, int32_t Disp, int32_t Imm) {
  rex(true, 0, 0, Base >> 3);
  byte(0xC7);
  mem(0, Base, Disp);
  word32(Imm);
}

void Assembler::load32RM(Reg D, Reg Base, int32_t Disp) {
  rex(false, D >> 3, 0, Base >> 3);
  byte(0x8B);
  mem(D & 7, Base, Disp);
}

void Assembler::movzx8RM(Reg D, Reg Base, int32_t Disp) {
  rex(false, D >> 3, 0, Base >> 3);
  byte(0x0F);
  byte(0xB6);
  mem(D & 7, Base, Disp);
}

void Assembler::movzx16RM(Reg D, Reg Base, int32_t Disp) {
  rex(false, D >> 3, 0, Base >> 3);
  byte(0x0F);
  byte(0xB7);
  mem(D & 7, Base, Disp);
}

void Assembler::movsx8RM(Reg D, Reg Base, int32_t Disp) {
  rex(true, D >> 3, 0, Base >> 3);
  byte(0x0F);
  byte(0xBE);
  mem(D & 7, Base, Disp);
}

void Assembler::movsx16RM(Reg D, Reg Base, int32_t Disp) {
  rex(true, D >> 3, 0, Base >> 3);
  byte(0x0F);
  byte(0xBF);
  mem(D & 7, Base, Disp);
}

void Assembler::movsx32RM(Reg D, Reg Base, int32_t Disp) {
  rex(true, D >> 3, 0, Base >> 3);
  byte(0x63);
  mem(D & 7, Base, Disp);
}

void Assembler::store8MR(Reg Base, int32_t Disp, Reg S) {
  // REX is mandatory for spl/bpl/sil/dil sources, harmless otherwise.
  rex(false, S >> 3, 0, Base >> 3, /*Force=*/S >= 4);
  byte(0x88);
  mem(S & 7, Base, Disp);
}

void Assembler::store16MR(Reg Base, int32_t Disp, Reg S) {
  byte(0x66);
  rex(false, S >> 3, 0, Base >> 3);
  byte(0x89);
  mem(S & 7, Base, Disp);
}

void Assembler::store32MR(Reg Base, int32_t Disp, Reg S) {
  rex(false, S >> 3, 0, Base >> 3);
  byte(0x89);
  mem(S & 7, Base, Disp);
}

void Assembler::movzx8RR(Reg D, Reg S) {
  rex(true, D >> 3, 0, S >> 3);
  byte(0x0F);
  byte(0xB6);
  modrm(3, D & 7, S & 7);
}

void Assembler::movzx16RR(Reg D, Reg S) {
  rex(true, D >> 3, 0, S >> 3);
  byte(0x0F);
  byte(0xB7);
  modrm(3, D & 7, S & 7);
}

void Assembler::movsx8RR(Reg D, Reg S) {
  rex(true, D >> 3, 0, S >> 3);
  byte(0x0F);
  byte(0xBE);
  modrm(3, D & 7, S & 7);
}

void Assembler::movsx16RR(Reg D, Reg S) {
  rex(true, D >> 3, 0, S >> 3);
  byte(0x0F);
  byte(0xBF);
  modrm(3, D & 7, S & 7);
}

void Assembler::movsx32RR(Reg D, Reg S) {
  rex(true, D >> 3, 0, S >> 3);
  byte(0x63);
  modrm(3, D & 7, S & 7);
}

void Assembler::mov32RR(Reg D, Reg S) {
  rex(false, S >> 3, 0, D >> 3);
  byte(0x89);
  modrm(3, S & 7, D & 7);
}

//===----------------------------------------------------------------------===//
// Arithmetic
//===----------------------------------------------------------------------===//

void Assembler::addRR(Reg D, Reg S) {
  rex(true, S >> 3, 0, D >> 3);
  byte(0x01);
  modrm(3, S & 7, D & 7);
}

void Assembler::subRR(Reg D, Reg S) {
  rex(true, S >> 3, 0, D >> 3);
  byte(0x29);
  modrm(3, S & 7, D & 7);
}

void Assembler::imulRR(Reg D, Reg S) {
  rex(true, D >> 3, 0, S >> 3);
  byte(0x0F);
  byte(0xAF);
  modrm(3, D & 7, S & 7);
}

void Assembler::imulRRI(Reg D, Reg S, int32_t Imm) {
  rex(true, D >> 3, 0, S >> 3);
  byte(0x69);
  modrm(3, D & 7, S & 7);
  word32(Imm);
}

void Assembler::negR(Reg D) {
  rex(true, 0, 0, D >> 3);
  byte(0xF7);
  modrm(3, 3, D & 7);
}

void Assembler::cmpRR(Reg A, Reg B) {
  rex(true, B >> 3, 0, A >> 3);
  byte(0x39);
  modrm(3, B & 7, A & 7);
}

void Assembler::testRR(Reg A, Reg B) {
  rex(true, B >> 3, 0, A >> 3);
  byte(0x85);
  modrm(3, B & 7, A & 7);
}

void Assembler::test32RR(Reg A, Reg B) {
  rex(false, B >> 3, 0, A >> 3);
  byte(0x85);
  modrm(3, B & 7, A & 7);
}

void Assembler::xorRR(Reg D, Reg S) {
  rex(true, S >> 3, 0, D >> 3);
  byte(0x31);
  modrm(3, S & 7, D & 7);
}

void Assembler::xor32RR(Reg D, Reg S) {
  rex(false, S >> 3, 0, D >> 3);
  byte(0x31);
  modrm(3, S & 7, D & 7);
}

void Assembler::xor32RI(Reg D, int32_t Imm) {
  rex(false, 0, 0, D >> 3);
  byte(0x81);
  modrm(3, 6, D & 7);
  word32(Imm);
}

void Assembler::and32RR(Reg D, Reg S) {
  rex(false, S >> 3, 0, D >> 3);
  byte(0x21);
  modrm(3, S & 7, D & 7);
}

void Assembler::or32RR(Reg D, Reg S) {
  rex(false, S >> 3, 0, D >> 3);
  byte(0x09);
  modrm(3, S & 7, D & 7);
}

void Assembler::addRI(Reg D, int32_t Imm) {
  rex(true, 0, 0, D >> 3);
  if (Imm >= INT8_MIN && Imm <= INT8_MAX) {
    byte(0x83);
    modrm(3, 0, D & 7);
    byte(static_cast<uint8_t>(Imm));
    return;
  }
  byte(0x81);
  modrm(3, 0, D & 7);
  word32(Imm);
}

void Assembler::subRI(Reg D, int32_t Imm) {
  rex(true, 0, 0, D >> 3);
  if (Imm >= INT8_MIN && Imm <= INT8_MAX) {
    byte(0x83);
    modrm(3, 5, D & 7);
    byte(static_cast<uint8_t>(Imm));
    return;
  }
  byte(0x81);
  modrm(3, 5, D & 7);
  word32(Imm);
}

void Assembler::andRI8(Reg D, int8_t Imm) {
  rex(true, 0, 0, D >> 3);
  byte(0x83);
  modrm(3, 4, D & 7);
  byte(static_cast<uint8_t>(Imm));
}

void Assembler::cqo() {
  byte(0x48);
  byte(0x99);
}

void Assembler::cdqe() {
  byte(0x48);
  byte(0x98);
}

void Assembler::shlRCl(Reg D) {
  rex(true, 0, 0, D >> 3);
  byte(0xD3);
  modrm(3, 4, D & 7);
}

void Assembler::shrRCl(Reg D) {
  rex(true, 0, 0, D >> 3);
  byte(0xD3);
  modrm(3, 5, D & 7);
}

void Assembler::sarRCl(Reg D) {
  rex(true, 0, 0, D >> 3);
  byte(0xD3);
  modrm(3, 7, D & 7);
}

void Assembler::shiftRI(uint8_t Ext, Reg D, uint8_t N) {
  rex(true, 0, 0, D >> 3);
  byte(0xC1);
  modrm(3, Ext, D & 7);
  byte(N);
}

void Assembler::shrRI(Reg D, uint8_t N) { shiftRI(5, D, N); }
void Assembler::sarRI(Reg D, uint8_t N) { shiftRI(7, D, N); }

void Assembler::imulR(Reg S) {
  rex(true, 0, 0, S >> 3);
  byte(0xF7);
  modrm(3, 5, S & 7);
}

void Assembler::idivR(Reg S) {
  rex(true, 0, 0, S >> 3);
  byte(0xF7);
  modrm(3, 7, S & 7);
}

void Assembler::divR(Reg S) {
  rex(true, 0, 0, S >> 3);
  byte(0xF7);
  modrm(3, 6, S & 7);
}

void Assembler::leaRM(Reg D, Reg Base, int32_t Disp) {
  rex(true, D >> 3, 0, Base >> 3);
  byte(0x8D);
  mem(D & 7, Base, Disp);
}

void Assembler::setcc(CC C, Reg D8) {
  rex(false, 0, 0, D8 >> 3, /*Force=*/D8 >= 4);
  byte(0x0F);
  byte(0x90 + static_cast<uint8_t>(C));
  modrm(3, 0, D8 & 7);
}

void Assembler::cmovcc(CC C, Reg D, Reg S) {
  rex(true, D >> 3, 0, S >> 3);
  byte(0x0F);
  byte(0x40 + static_cast<uint8_t>(C));
  modrm(3, D & 7, S & 7);
}

void Assembler::cmovcc32(CC C, Reg D, Reg S) {
  rex(false, D >> 3, 0, S >> 3);
  byte(0x0F);
  byte(0x40 + static_cast<uint8_t>(C));
  modrm(3, D & 7, S & 7);
}

//===----------------------------------------------------------------------===//
// Control flow and labels
//===----------------------------------------------------------------------===//

Assembler::Label Assembler::newLabel() {
  Labels.push_back(-1);
  return static_cast<Label>(Labels.size() - 1);
}

void Assembler::bind(Label L) { Labels[L] = static_cast<int64_t>(Buf.size()); }

void Assembler::rel32To(Label L) {
  Fixups.emplace_back(Buf.size(), L);
  word32(0);
}

bool Assembler::finalize() {
  for (const auto &[Pos, L] : Fixups) {
    if (Labels[L] < 0)
      return false;
    int64_t Rel = Labels[L] - static_cast<int64_t>(Pos) - 4;
    if (Rel < INT32_MIN || Rel > INT32_MAX)
      return false;
    uint32_t V = static_cast<uint32_t>(static_cast<int32_t>(Rel));
    for (int I = 0; I != 4; ++I)
      Buf[Pos + I] = static_cast<uint8_t>(V >> (8 * I));
  }
  Fixups.clear();
  return true;
}

void Assembler::jmp(Label L) {
  byte(0xE9);
  rel32To(L);
}

void Assembler::jcc(CC C, Label L) {
  byte(0x0F);
  byte(0x80 + static_cast<uint8_t>(C));
  rel32To(L);
}

void Assembler::callR(Reg S) {
  rex(false, 0, 0, S >> 3);
  byte(0xFF);
  modrm(3, 2, S & 7);
}

void Assembler::push(Reg S) {
  rex(false, 0, 0, S >> 3);
  byte(0x50 + (S & 7));
}

void Assembler::pop(Reg D) {
  rex(false, 0, 0, D >> 3);
  byte(0x58 + (D & 7));
}

void Assembler::ret() { byte(0xC3); }

void Assembler::repStosq() {
  byte(0xF3);
  byte(0x48);
  byte(0xAB);
}

//===----------------------------------------------------------------------===//
// SSE2 scalar
//===----------------------------------------------------------------------===//

void Assembler::sse(uint8_t Prefix, uint8_t Op, uint8_t RegOp, uint8_t Rm,
                    bool W) {
  if (Prefix)
    byte(Prefix);
  rex(W, RegOp >> 3, 0, Rm >> 3);
  byte(0x0F);
  byte(Op);
  modrm(3, RegOp & 7, Rm & 7);
}

void Assembler::movsdXM(Xmm D, Reg Base, int32_t Disp) {
  byte(0xF2);
  rex(false, D >> 3, 0, Base >> 3);
  byte(0x0F);
  byte(0x10);
  mem(D & 7, Base, Disp);
}

void Assembler::movsdMX(Reg Base, int32_t Disp, Xmm S) {
  byte(0xF2);
  rex(false, S >> 3, 0, Base >> 3);
  byte(0x0F);
  byte(0x11);
  mem(S & 7, Base, Disp);
}

void Assembler::movqXR(Xmm D, Reg S) { sse(0x66, 0x6E, D, S, true); }
void Assembler::movqRX(Reg D, Xmm S) { sse(0x66, 0x7E, S, D, true); }

void Assembler::addsd(Xmm D, Xmm S) { sse(0xF2, 0x58, D, S, false); }
void Assembler::subsd(Xmm D, Xmm S) { sse(0xF2, 0x5C, D, S, false); }
void Assembler::mulsd(Xmm D, Xmm S) { sse(0xF2, 0x59, D, S, false); }
void Assembler::divsd(Xmm D, Xmm S) { sse(0xF2, 0x5E, D, S, false); }
void Assembler::minsd(Xmm D, Xmm S) { sse(0xF2, 0x5D, D, S, false); }
void Assembler::maxsd(Xmm D, Xmm S) { sse(0xF2, 0x5F, D, S, false); }
void Assembler::addss(Xmm D, Xmm S) { sse(0xF3, 0x58, D, S, false); }
void Assembler::subss(Xmm D, Xmm S) { sse(0xF3, 0x5C, D, S, false); }
void Assembler::mulss(Xmm D, Xmm S) { sse(0xF3, 0x59, D, S, false); }
void Assembler::divss(Xmm D, Xmm S) { sse(0xF3, 0x5E, D, S, false); }
void Assembler::minss(Xmm D, Xmm S) { sse(0xF3, 0x5D, D, S, false); }
void Assembler::maxss(Xmm D, Xmm S) { sse(0xF3, 0x5F, D, S, false); }
void Assembler::ucomisd(Xmm A, Xmm B) { sse(0x66, 0x2E, A, B, false); }
void Assembler::ucomiss(Xmm A, Xmm B) { sse(0, 0x2E, A, B, false); }
void Assembler::cvttsd2si32(Reg D, Xmm S) { sse(0xF2, 0x2C, D, S, false); }
void Assembler::cvttsd2si64(Reg D, Xmm S) { sse(0xF2, 0x2C, D, S, true); }
void Assembler::cvttss2si32(Reg D, Xmm S) { sse(0xF3, 0x2C, D, S, false); }
void Assembler::cvttss2si64(Reg D, Xmm S) { sse(0xF3, 0x2C, D, S, true); }
void Assembler::cvtsi2sd(Xmm D, Reg S) { sse(0xF2, 0x2A, D, S, true); }
void Assembler::cvtsi2ss(Xmm D, Reg S) { sse(0xF3, 0x2A, D, S, true); }
void Assembler::cvtsd2ss(Xmm D, Xmm S) { sse(0xF2, 0x5A, D, S, false); }
void Assembler::cvtss2sd(Xmm D, Xmm S) { sse(0xF3, 0x5A, D, S, false); }
void Assembler::xorpd(Xmm D, Xmm S) { sse(0x66, 0x57, D, S, false); }
