#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

using namespace terracpp;
using namespace terracpp::telemetry;

uint64_t telemetry::nowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

unsigned Histogram::bucketIndex(uint64_t Value) {
  if (Value < 4)
    return static_cast<unsigned>(Value);
  // Most significant bit position (>= 2 here), then the next two bits pick
  // one of four sub-buckets inside the octave.
  unsigned Msb = 63u - static_cast<unsigned>(__builtin_clzll(Value));
  unsigned Sub = static_cast<unsigned>((Value >> (Msb - 2)) & 3);
  return 4 + (Msb - 2) * 4 + Sub;
}

uint64_t Histogram::bucketLowerBound(unsigned Index) {
  if (Index < 4)
    return Index;
  unsigned Msb = 2 + (Index - 4) / 4;
  unsigned Sub = (Index - 4) % 4;
  return (uint64_t(1) << (Msb - 2)) * (4 + Sub);
}

void Histogram::record(uint64_t Value) {
  Buckets[bucketIndex(Value)].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(Value, std::memory_order_relaxed);
  uint64_t Cur = MinV.load(std::memory_order_relaxed);
  while (Value < Cur &&
         !MinV.compare_exchange_weak(Cur, Value, std::memory_order_relaxed))
    ;
  Cur = MaxV.load(std::memory_order_relaxed);
  while (Value > Cur &&
         !MaxV.compare_exchange_weak(Cur, Value, std::memory_order_relaxed))
    ;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot S;
  uint64_t Counts[NumBuckets];
  for (unsigned I = 0; I != NumBuckets; ++I)
    Counts[I] = Buckets[I].load(std::memory_order_relaxed);
  S.Count = Count.load(std::memory_order_relaxed);
  S.Sum = Sum.load(std::memory_order_relaxed);
  uint64_t Mn = MinV.load(std::memory_order_relaxed);
  S.Min = Mn == UINT64_MAX ? 0 : Mn;
  S.Max = MaxV.load(std::memory_order_relaxed);
  if (S.Count == 0)
    return S;
  S.Mean = static_cast<double>(S.Sum) / static_cast<double>(S.Count);

  // Derive each quantile by walking the buckets to the target rank and
  // interpolating linearly inside the landing bucket. Clamp to the
  // observed min/max so degenerate single-bucket distributions report
  // exact values.
  auto Quantile = [&](double Q) {
    // Nearest-rank: the smallest value with at least ceil(Q*Count) samples
    // at or below it, so e.g. p95 of 4 samples is the 4th, not the 3rd.
    uint64_t Rank = static_cast<uint64_t>(
        std::ceil(Q * static_cast<double>(S.Count)));
    Rank = std::min(std::max<uint64_t>(Rank, 1), S.Count);
    uint64_t Cum = 0;
    for (unsigned I = 0; I != NumBuckets; ++I) {
      if (Counts[I] == 0)
        continue;
      if (Cum + Counts[I] >= Rank) {
        uint64_t Lo = bucketLowerBound(I);
        uint64_t Hi = I + 1 < NumBuckets ? bucketLowerBound(I + 1) : UINT64_MAX;
        double Frac = static_cast<double>(Rank - Cum) /
                      static_cast<double>(Counts[I]);
        double V = static_cast<double>(Lo) +
                   Frac * static_cast<double>(Hi - Lo);
        V = std::max(V, static_cast<double>(S.Min));
        V = std::min(V, static_cast<double>(S.Max));
        return V;
      }
      Cum += Counts[I];
    }
    return static_cast<double>(S.Max);
  };
  S.P50 = Quantile(0.50);
  S.P90 = Quantile(0.90);
  S.P95 = Quantile(0.95);
  S.P99 = Quantile(0.99);
  return S;
}

std::vector<std::pair<uint64_t, uint64_t>> Histogram::cumulativeBuckets() const {
  std::vector<std::pair<uint64_t, uint64_t>> Out;
  uint64_t Cum = 0;
  for (unsigned I = 0; I != NumBuckets; ++I) {
    uint64_t C = Buckets[I].load(std::memory_order_relaxed);
    if (C == 0)
      continue;
    Cum += C;
    // Bucket I holds integer values in [lowerBound(I), lowerBound(I+1));
    // its inclusive Prometheus `le` bound is therefore lowerBound(I+1)-1.
    // The last bucket's bound is +Inf, which callers emit from Count.
    uint64_t Le =
        I + 1 < NumBuckets ? bucketLowerBound(I + 1) - 1 : UINT64_MAX;
    Out.emplace_back(Le, Cum);
  }
  return Out;
}

json::Value Histogram::Snapshot::toJson() const {
  json::Value V = json::Value::object();
  auto N = [](double X) { return json::Value::number(X); };
  V.set("count", N(static_cast<double>(Count)));
  V.set("sum", N(static_cast<double>(Sum)));
  V.set("min", N(static_cast<double>(Min)));
  V.set("max", N(static_cast<double>(Max)));
  V.set("mean", N(Mean));
  V.set("p50", N(P50));
  V.set("p90", N(P90));
  V.set("p95", N(P95));
  V.set("p99", N(P99));
  return V;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

Counter &Registry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  std::unique_ptr<Counter> &C = Counters[Name];
  if (!C)
    C = std::make_unique<Counter>();
  return *C;
}

Gauge &Registry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  std::unique_ptr<Gauge> &G = Gauges[Name];
  if (!G)
    G = std::make_unique<Gauge>();
  return *G;
}

Histogram &Registry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  std::unique_ptr<Histogram> &H = Histograms[Name];
  if (!H)
    H = std::make_unique<Histogram>();
  return *H;
}

json::Value Registry::toJson() const {
  std::lock_guard<std::mutex> Lock(M);
  json::Value Root = json::Value::object();
  json::Value Cs = json::Value::object();
  for (const auto &E : Counters)
    Cs.set(E.first,
           json::Value::number(static_cast<double>(E.second->value())));
  json::Value Gs = json::Value::object();
  for (const auto &E : Gauges)
    Gs.set(E.first,
           json::Value::number(static_cast<double>(E.second->value())));
  json::Value Hs = json::Value::object();
  for (const auto &E : Histograms)
    Hs.set(E.first, E.second->snapshot().toJson());
  Root.set("counters", std::move(Cs));
  Root.set("gauges", std::move(Gs));
  Root.set("histograms", std::move(Hs));
  return Root;
}

Registry &Registry::global() {
  static Registry G;
  return G;
}

//===----------------------------------------------------------------------===//
// Prometheus text exposition (format version 0.0.4)
//===----------------------------------------------------------------------===//

/// Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; dotted registry names
/// ("server.op.call.latency_us") fold their separators into underscores.
static std::string sanitizeMetricName(const std::string &Name) {
  std::string Out;
  Out.reserve(Name.size());
  for (size_t I = 0; I != Name.size(); ++I) {
    char C = Name[I];
    bool OK = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_' ||
              C == ':' || (I > 0 && C >= '0' && C <= '9');
    Out.push_back(OK ? C : '_');
  }
  return Out;
}

static void appendEscapedLabelValue(std::string &Out, const std::string &V) {
  for (char C : V) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '"')
      Out += "\\\"";
    else if (C == '\n')
      Out += "\\n";
    else
      Out.push_back(C);
  }
}

/// Renders {k="v",...}; \p Extra (the histogram `le` label) is appended
/// last when non-empty. Empty when there are no labels at all.
static std::string renderLabels(const std::vector<PromLabel> &Labels,
                                const std::string &ExtraKey = std::string(),
                                const std::string &ExtraVal = std::string()) {
  if (Labels.empty() && ExtraKey.empty())
    return std::string();
  std::string Out = "{";
  bool First = true;
  for (const PromLabel &L : Labels) {
    if (!First)
      Out += ",";
    First = false;
    Out += sanitizeMetricName(L.first);
    Out += "=\"";
    appendEscapedLabelValue(Out, L.second);
    Out += "\"";
  }
  if (!ExtraKey.empty()) {
    if (!First)
      Out += ",";
    Out += ExtraKey;
    Out += "=\"";
    appendEscapedLabelValue(Out, ExtraVal);
    Out += "\"";
  }
  Out += "}";
  return Out;
}

static std::string formatUint(uint64_t V) { return std::to_string(V); }

static std::string formatInt(int64_t V) { return std::to_string(V); }

std::string telemetry::toPrometheusText(const Registry &R,
                                        const std::vector<PromLabel> &Labels,
                                        const std::string &Prefix) {
  std::string Out;
  const std::string LabelStr = renderLabels(Labels);
  R.forEachCounter([&](const std::string &Name, const Counter &C) {
    std::string N = sanitizeMetricName(Prefix + Name);
    Out += "# TYPE " + N + " counter\n";
    Out += N + LabelStr + " " + formatUint(C.value()) + "\n";
  });
  R.forEachGauge([&](const std::string &Name, const Gauge &G) {
    std::string N = sanitizeMetricName(Prefix + Name);
    Out += "# TYPE " + N + " gauge\n";
    Out += N + LabelStr + " " + formatInt(G.value()) + "\n";
  });
  R.forEachHistogram([&](const std::string &Name, const Histogram &H) {
    std::string N = sanitizeMetricName(Prefix + Name);
    Histogram::Snapshot S = H.snapshot();
    Out += "# TYPE " + N + " histogram\n";
    for (const auto &B : H.cumulativeBuckets()) {
      if (B.first == UINT64_MAX)
        continue; // The top bucket folds into +Inf below.
      Out += N + "_bucket" + renderLabels(Labels, "le", formatUint(B.first)) +
             " " + formatUint(B.second) + "\n";
    }
    Out += N + "_bucket" + renderLabels(Labels, "le", "+Inf") + " " +
           formatUint(S.Count) + "\n";
    Out += N + "_sum" + LabelStr + " " + formatUint(S.Sum) + "\n";
    Out += N + "_count" + LabelStr + " " + formatUint(S.Count) + "\n";
  });
  return Out;
}

std::string telemetry::mergeExpositions(const std::vector<std::string> &Parts) {
  // A family's samples must be contiguous and its TYPE line unique, so we
  // regroup by family: each part is already grouped (every sample line
  // follows its family's TYPE header), letting a single pass bucket lines
  // by the most recent header.
  std::vector<std::string> Order;        ///< Families, first-seen order.
  std::map<std::string, std::string> TypeLine; ///< family -> "# TYPE ..." line.
  std::map<std::string, std::string> Body;     ///< family -> sample lines.
  std::string Preamble; ///< Lines before any TYPE header (kept verbatim).

  for (const std::string &Part : Parts) {
    std::istringstream In(Part);
    std::string Line, Family;
    while (std::getline(In, Line)) {
      if (Line.empty())
        continue;
      if (Line.compare(0, 7, "# TYPE ") == 0) {
        size_t NameEnd = Line.find(' ', 7);
        Family = Line.substr(7, NameEnd == std::string::npos
                                    ? std::string::npos
                                    : NameEnd - 7);
        if (!TypeLine.count(Family)) {
          TypeLine[Family] = Line;
          Order.push_back(Family);
        }
        continue;
      }
      if (Line[0] == '#')
        continue; // Drop HELP/comments: families may repeat across parts.
      if (Family.empty())
        Preamble += Line + "\n";
      else
        Body[Family] += Line + "\n";
    }
  }

  std::string Out = Preamble;
  for (const std::string &F : Order) {
    Out += TypeLine[F] + "\n";
    Out += Body[F];
  }
  return Out;
}

void telemetry::addHostInfo(json::Value &Report, unsigned PoolSize) {
  unsigned HW = std::thread::hardware_concurrency();
  Report.set("hardware_concurrency", json::Value::number(HW));
  Report.set("pool_size", json::Value::number(PoolSize));
  Report.set("single_core_host", json::Value::boolean(HW <= 1));
}
