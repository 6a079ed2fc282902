//===- Corpus.cpp - Seeded corpus of staged programs ----------------------===//

#include "Corpus.h"

#include "Bench.h"
#include "autotuner/Baselines.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;
using terracpp::autotuner::KernelParams;

namespace {

std::string str(int64_t N) { return std::to_string(N); }

} // namespace

Program perfbench::mandelbrotProgram(int M, int W, int H, int64_t Salt,
                                     int Arg) {
  Program P;
  P.Template = "mandel";
  P.Roots = {"entry"};
  P.Arg = Arg;
  P.Source =
      "struct Cx { re: int64; im: int64 }\n"
      "terra Cx:step(c: Cx): Cx\n"
      "  return Cx { (self.re * self.re - self.im * self.im) / 4096 + c.re,\n"
      "              (2 * self.re * self.im) / 4096 + c.im }\n"
      "end\n"
      "terra Cx:mag2(): int64\n"
      "  return (self.re * self.re + self.im * self.im) / 4096\n"
      "end\n"
      "local function unrolled(z, c, count)\n"
      "  local stmts = terralib.newlist()\n"
      "  for i = 1, " + str(M) + " do\n"
      "    stmts:insert(quote\n"
      "      -- terracheck: disable=TA008\n"
      "      if [count] >= 0 then\n"
      "        [z] = [z]:step([c])\n"
      "        if [z]:mag2() > 16384 then\n"
      "          [count] = -([count] + 1)\n"
      "        else\n"
      "          [count] = [count] + 1\n"
      "        end\n"
      "      end\n"
      "    end)\n"
      "  end\n"
      "  return stmts\n"
      "end\n"
      "terra escape(cre: int64, cim: int64): int64\n"
      "  var c = Cx { cre, cim }\n"
      "  var z = Cx { 0, 0 }\n"
      "  var count: int64 = 0\n"
      "  [unrolled(z, c, count)]\n"
      "  if count < 0 then return -count - 1 end\n"
      "  return " + str(M) + "\n"
      "end\n"
      "terra entry(x: int): double\n"
      "  var total: int64 = " + str(Salt) + "\n"
      "  for py = 0, " + str(H) + " do\n"
      "    for px = 0, " + str(W) + " do\n"
      "      var cre: int64 = px\n"
      "      var cim: int64 = py\n"
      "      cre = (cre * 12288) / " + str(W) + " - 9216 + x\n"
      "      cim = (cim * 10240) / " + str(H) + " - 5120\n"
      "      total = total + escape(cre, cim)\n"
      "    end\n"
      "  end\n"
      "  return [double](total)\n"
      "end\n";

  int64_t Total = Salt;
  for (int64_t Py = 0; Py < H; ++Py)
    for (int64_t Px = 0; Px < W; ++Px) {
      int64_t Cre = (Px * 12288) / W - 9216 + P.Arg;
      int64_t Cim = (Py * 10240) / H - 5120;
      int64_t Re = 0, Im = 0, Count = 0;
      for (int I = 0; I < M; ++I) {
        if (Count < 0)
          continue;
        int64_t NRe = (Re * Re - Im * Im) / 4096 + Cre;
        int64_t NIm = (2 * Re * Im) / 4096 + Cim;
        Re = NRe;
        Im = NIm;
        Count = (Re * Re + Im * Im) / 4096 > 16384 ? -(Count + 1) : Count + 1;
      }
      Total += Count < 0 ? -Count - 1 : M;
    }
  P.Expected = static_cast<double>(Total);
  return P;
}

Program perfbench::sortingNetworkProgram(int N, int Reps, int64_t Salt,
                                         int Arg) {
  Program P;
  P.Template = "sortnet";
  P.Roots = {"entry"};
  P.Arg = Arg;
  P.Source =
      "local function batcher_pairs(n)\n"
      "  local out = {}\n"
      "  local function merge(lo, cnt, r)\n"
      "    local step = r * 2\n"
      "    if step < cnt then\n"
      "      merge(lo, cnt, step)\n"
      "      merge(lo + r, cnt, step)\n"
      "      local i = lo + r\n"
      "      while i + r < lo + cnt do\n"
      "        table.insert(out, { i, i + r })\n"
      "        i = i + step\n"
      "      end\n"
      "    else\n"
      "      table.insert(out, { lo, lo + r })\n"
      "    end\n"
      "  end\n"
      "  local function sortrange(lo, cnt)\n"
      "    if cnt > 1 then\n"
      "      local m = cnt / 2\n"
      "      sortrange(lo, m)\n"
      "      sortrange(lo + m, m)\n"
      "      merge(lo, cnt, 1)\n"
      "    end\n"
      "  end\n"
      "  sortrange(0, n)\n"
      "  return out\n"
      "end\n"
      "local function network(n)\n"
      "  local data = symbol(&int64, \"data\")\n"
      "  local body = terralib.newlist()\n"
      "  for _, p in ipairs(batcher_pairs(n)) do\n"
      "    local i, j = p[1], p[2]\n"
      "    body:insert(quote\n"
      "      var a = [data][i]\n"
      "      var b = [data][j]\n"
      "      if b < a then\n"
      "        [data][i] = b\n"
      "        [data][j] = a\n"
      "      end\n"
      "    end)\n"
      "  end\n"
      "  return terra([data]): {}\n"
      "    [body]\n"
      "  end\n"
      "end\n"
      "sortn = network(" + str(N) + ")\n"
      "terra entry(x: int): double\n"
      "  var a: int64[" + str(N) + "]\n"
      "  var s: int64 = x + " + str(Salt) + "\n"
      "  var total: int64 = 0\n"
      "  for r = 0, " + str(Reps) + " do\n"
      "    for i = 0, " + str(N) + " do\n"
      "      s = (s * 1103515245 + 12345) % 2147483647\n"
      "      a[i] = s % 1000\n"
      "    end\n"
      "    sortn(&a[0])\n"
      "    for i = 0, " + str(N) + " do\n"
      "      total = total + a[i] * (i + 1)\n"
      "    end\n"
      "  end\n"
      "  return [double](total)\n"
      "end\n";

  int64_t S = P.Arg + Salt, Total = 0;
  std::vector<int64_t> A(N);
  for (int R = 0; R < Reps; ++R) {
    for (int I = 0; I < N; ++I) {
      S = lcgNext(S);
      A[I] = S % 1000;
    }
    std::sort(A.begin(), A.end());
    for (int I = 0; I < N; ++I)
      Total += A[I] * (I + 1);
  }
  P.Expected = static_cast<double>(Total);
  return P;
}

namespace {

/// Quote-list unrolling (the paper's mandelbrot idiom) over a struct with
/// methods, in Q12 fixed point so every tier computes the same integers.
Program mandelbrot(Rng &G, int64_t Salt, unsigned K) {
  int M = 12 + static_cast<int>(K % 9), W = G.range(14, 16), H = G.range(10, 11);
  return mandelbrotProgram(M, W, H, Salt, G.range(0, 999));
}

/// A Batcher sorting network generated by a Lua function and spliced into
/// an anonymous Terra function (the paper's partial-evaluation example).
Program sortingNetwork(Rng &G, int64_t Salt, unsigned K) {
  int N = K % 2 ? 16 : 8, Reps = G.range(6, 8);
  return sortingNetworkProgram(N, Reps, Salt, G.range(0, 999));
}

/// A struct with methods and a __cast metamethod (paper §4.1 reflection):
/// ints convert to V2 implicitly.
Program castStruct(Rng &G, int64_t Salt, unsigned) {
  int K = G.range(2, 7), N = G.range(800, 1000), Mod = G.range(31, 127);
  Program P;
  P.Template = "cast";
  P.Roots = {"entry"};
  P.Arg = G.range(0, 999);
  P.Source =
      "struct V2 { x: int64; y: int64 }\n"
      "V2.metamethods.__cast = function(from, to, exp)\n"
      "  if to == V2 and from == int then\n"
      "    return `V2 { [exp], [exp] * " + str(K) + " }\n"
      "  end\n"
      "  error(\"invalid conversion\")\n"
      "end\n"
      "terra V2:add(o: V2): V2\n"
      "  return V2 { self.x + o.x, self.y + o.y }\n"
      "end\n"
      "terra V2:dot(o: V2): int64\n"
      "  return self.x * o.x + self.y * o.y\n"
      "end\n"
      "terra entry(x: int): double\n"
      "  var acc: V2 = x\n"
      "  var total: int64 = " + str(Salt) + "\n"
      "  for i = 0, " + str(N) + " do\n"
      "    var v: V2 = (i + x) % " + str(Mod) + "\n"
      "    acc = acc:add(v)\n"
      "    total = total + acc:dot(v) % 1000003\n"
      "  end\n"
      "  return [double](total)\n"
      "end\n";

  int64_t Ax = P.Arg, Ay = int64_t(P.Arg) * K, Total = Salt;
  for (int64_t I = 0; I < N; ++I) {
    int64_t V = (I + P.Arg) % Mod;
    Ax += V;
    Ay += V * K;
    Total += (Ax * V + Ay * V * K) % 1000003;
  }
  P.Expected = static_cast<double>(Total);
  return P;
}

/// The autotuner's staged L1 kernel (paper Fig. 5), NB/RM/RN/V cycling
/// over the corpus, called from a Terra wrapper on integer-valued blocks.
Program l1Kernel(Rng &G, int64_t Salt, unsigned K) {
  KernelParams KP;
  static const int Vs[] = {1, 2, 4};
  KP.NB = K % 2 ? 16 : 8;
  KP.V = Vs[K % 3];
  KP.RM = 1 << (K / 2 % 3);
  KP.RN = 1 + static_cast<int>(K / 3 % 2);
  KP.Prefetch = G.range(0, 1) == 1;
  int NB = KP.NB, NN = NB * NB;
  Program P;
  P.Template = "l1kernel";
  P.StagesL1Kernel = true;
  P.L1 = KP;
  P.Roots = {"entry"};
  P.Arg = G.range(0, 999);
  P.Source =
      "terra entry(x: int): double\n"
      "  var A: double[" + str(NN) + "]\n"
      "  var B: double[" + str(NN) + "]\n"
      "  var C: double[" + str(NN) + "]\n"
      "  var s: int64 = x + " + str(Salt) + "\n"
      "  for i = 0, " + str(NN) + " do\n"
      "    s = (s * 1103515245 + 12345) % 2147483647\n"
      "    A[i] = [double](s % 17 - 8)\n"
      "    s = (s * 1103515245 + 12345) % 2147483647\n"
      "    B[i] = [double](s % 17 - 8)\n"
      "    C[i] = [double](i % 5)\n"
      "  end\n"
      "  l1(&A[0], &B[0], &C[0], " + str(NB) + ", " + str(NB) + ", " + str(NB) +
      ")\n"
      "  var sum = 0.0\n"
      "  for i = 0, " + str(NN) + " do\n"
      "    sum = sum + C[i] * [double](i % 7 + 1)\n"
      "  end\n"
      "  return sum\n"
      "end\n";

  std::vector<double> A(NN), B(NN), C(NN);
  int64_t S = P.Arg + Salt;
  for (int I = 0; I < NN; ++I) {
    S = lcgNext(S);
    A[I] = static_cast<double>(S % 17 - 8);
    S = lcgNext(S);
    B[I] = static_cast<double>(S % 17 - 8);
    C[I] = static_cast<double>(I % 5);
  }
  terracpp::autotuner::naiveGemm(A.data(), B.data(), C.data(), NB);
  double Sum = 0;
  for (int I = 0; I < NN; ++I)
    Sum += C[I] * static_cast<double>(I % 7 + 1);
  P.Expected = Sum;
  return P;
}

/// A two-stage blur written against the hosted Orion DSL (paper §6.2),
/// driven from a Lua entry that calls Terra helpers around the pipeline.
Program hostedOrion(Rng &G, int64_t Salt, unsigned K) {
  static const int Ws[] = {16, 24, 32};
  static const int Vs[] = {1, 4, 8};
  int W = Ws[K % 3], H = G.range(10, 12), V = Vs[K / 3 % 3];
  bool LineBuffer = K % 2 == 1;
  int Bias = static_cast<int>(Salt % 61);
  Program P;
  P.Template = "orion";
  P.HostedOrion = true;
  P.Roots = {"fill", "checksum"};
  P.Arg = G.range(0, 999);
  std::string N = str(int64_t(W) * H);
  P.Source =
      "local P = orion.pipeline()\n"
      "local im = P:input(\"im\")\n"
      "local bx = P:define(\"bx\", (im(-1, 0) + im(0, 0) + im(1, 0)) / 3 + " +
      str(Bias) + ")\n"
      "bx:setschedule(\"" + (LineBuffer ? "linebuffer" : "materialize") +
      "\")\n"
      "local by = P:define(\"by\", (bx(0, -1) + bx(0, 0) + bx(0, 1)) / 3)\n"
      "P:output(by)\n"
      "run = P:compile { vectorize = " + str(V) + " }\n"
      "input = terralib.new(float[" + N + "])\n"
      "output = terralib.new(float[" + N + "])\n"
      "terra fill(p: &float, n: int, x: int): {}\n"
      "  for i = 0, n do\n"
      "    p[i] = [float]((i * 37 + x + " + str(Salt) + ") % 255)\n"
      "  end\n"
      "end\n"
      "terra checksum(p: &float, n: int): double\n"
      "  var s = 0.0\n"
      "  for i = 0, n do\n"
      "    s = s + [double](p[i]) * ((i + " + str(Salt) + ") % 5 + 1)\n"
      "  end\n"
      "  return s\n"
      "end\n"
      "function entry(x)\n"
      "  fill(input, " + N + ", x)\n"
      "  run(input, output, " + str(W) + ", " + str(H) + ")\n"
      "  return checksum(output, " + N + ")\n"
      "end\n";

  std::vector<float> In(W * H), Bx(W * H), By(W * H);
  for (int64_t I = 0; I < W * H; ++I)
    In[I] = static_cast<float>((I * 37 + P.Arg + Salt) % 255);
  auto At = [&](const std::vector<float> &Img, int X, int Y) {
    return X < 0 || X >= W || Y < 0 || Y >= H ? 0.0f : Img[Y * W + X];
  };
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X)
      Bx[Y * W + X] =
          (At(In, X - 1, Y) + At(In, X, Y) + At(In, X + 1, Y)) / 3.0f +
          static_cast<float>(Bias);
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X)
      By[Y * W + X] = (At(Bx, X, Y - 1) + At(Bx, X, Y) + At(Bx, X, Y + 1)) /
                      3.0f;
  double Sum = 0;
  for (int64_t I = 0; I < W * H; ++I)
    Sum += static_cast<double>(By[I]) * static_cast<double>((I + Salt) % 5 + 1);
  P.Expected = Sum;
  return P;
}

} // namespace

std::vector<Program> perfbench::makeCorpus(uint64_t Seed, unsigned PerTemplate) {
  Rng G(Seed * 0x2545f4914f6cdd1dull + 11);
  using Maker = Program (*)(Rng &, int64_t, unsigned);
  static const Maker Makers[] = {mandelbrot, sortingNetwork, castStruct,
                                 l1Kernel, hostedOrion};
  // Salts are distinct within the corpus and vary with the seed, as do
  // arguments and sizes (drawn from narrow ranges). Discrete parameters
  // (unroll depth, network width, NB/RM/RN/V, schedule) cycle with the
  // program's index, so every seed's corpus has the same balanced mix and
  // its quantiles do not jump between templates.
  int64_t SaltBase = static_cast<int64_t>(G.next() % 500000) + 1000;
  std::vector<Program> Out;
  for (unsigned I = 0; I != PerTemplate; ++I)
    for (unsigned T = 0; T != 5; ++T)
      Out.push_back(Makers[T](G, SaltBase + 7 * static_cast<int64_t>(Out.size()),
                              I));
  return Out;
}

bool perfbench::sameValue(double Got, double Want) {
  return std::fabs(Got - Want) <= 1e-9 * std::max(1.0, std::fabs(Want));
}
