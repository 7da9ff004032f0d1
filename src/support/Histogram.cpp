//===- Histogram.cpp ------------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Support/Histogram.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <sstream>

using namespace defacto;

unsigned Histogram::bucketIndex(uint64_t V) {
  if (V < (1u << (SubBits + 1)))
    return static_cast<unsigned>(V); // exact buckets
  unsigned Top = 63 - std::countl_zero(V); // floor(log2 V), >= SubBits+1
  unsigned Shift = Top - SubBits;
  unsigned Sub = static_cast<unsigned>((V >> Shift) & ((1u << SubBits) - 1));
  return ((Top - SubBits) << SubBits) + (1u << SubBits) + Sub;
}

uint64_t Histogram::bucketBound(unsigned I) {
  if (I < (1u << (SubBits + 1)))
    return I;
  unsigned Octave = I >> SubBits;            // >= 2
  unsigned Top = Octave + SubBits - 1;       // floor(log2) of the bucket
  uint64_t Sub = I & ((1u << SubBits) - 1);
  uint64_t Lower = (uint64_t{1} << Top) + (Sub << (Top - SubBits));
  return Lower + (uint64_t{1} << (Top - SubBits)) - 1;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot S;
  S.Name = Name;
  S.Count = Count.load(std::memory_order_relaxed);
  S.Sum = Sum.load(std::memory_order_relaxed);
  S.Max = MaxValue.load(std::memory_order_relaxed);
  S.Buckets.resize(NumBuckets);
  for (unsigned I = 0; I != NumBuckets; ++I)
    S.Buckets[I] = Buckets[I].load(std::memory_order_relaxed);
  return S;
}

void Histogram::reset() {
  Count.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
  MaxValue.store(0, std::memory_order_relaxed);
  for (unsigned I = 0; I != NumBuckets; ++I)
    Buckets[I].store(0, std::memory_order_relaxed);
}

uint64_t HistogramSnapshot::quantile(double Q) const {
  if (Count == 0)
    return 0;
  Q = std::clamp(Q, 0.0, 1.0);
  // The ceil(Q*Count)-th smallest recorded value, nearest-rank style.
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Count));
  if (static_cast<double>(Rank) < Q * static_cast<double>(Count))
    ++Rank;
  Rank = std::max<uint64_t>(Rank, 1);
  uint64_t Cumulative = 0;
  for (unsigned I = 0; I != Buckets.size(); ++I) {
    Cumulative += Buckets[I];
    if (Cumulative >= Rank)
      return std::min(Histogram::bucketBound(I), Max);
  }
  return Max;
}

void HistogramSnapshot::merge(const HistogramSnapshot &Other) {
  Count += Other.Count;
  Sum += Other.Sum;
  Max = std::max(Max, Other.Max);
  if (Buckets.size() < Other.Buckets.size())
    Buckets.resize(Other.Buckets.size());
  for (size_t I = 0; I != Other.Buckets.size(); ++I)
    Buckets[I] += Other.Buckets[I];
}

HistogramRegistry &HistogramRegistry::global() {
  static HistogramRegistry R;
  return R;
}

Histogram &HistogramRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  std::unique_ptr<Histogram> &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>(Name);
  return *Slot;
}

std::vector<HistogramSnapshot> HistogramRegistry::snapshot() const {
  std::vector<HistogramSnapshot> Out;
  std::lock_guard<std::mutex> Lock(M);
  for (const auto &[Name, H] : Histograms) {
    if (H->count() == 0)
      continue;
    Out.push_back(H->snapshot());
  }
  return Out; // std::map iterates sorted by name
}

void HistogramRegistry::reset() {
  std::lock_guard<std::mutex> Lock(M);
  for (auto &[Name, H] : Histograms)
    H->reset();
}

std::string HistogramRegistry::toJson() const {
  std::ostringstream OS;
  OS.precision(3);
  OS << std::fixed << '{';
  bool First = true;
  for (const HistogramSnapshot &S : snapshot()) {
    if (!First)
      OS << ", ";
    First = false;
    OS << '"' << S.Name << "\": {\"count\": " << S.Count
       << ", \"sum\": " << S.Sum << ", \"max\": " << S.Max
       << ", \"mean\": " << S.mean() << ", \"p50\": " << S.quantile(0.5)
       << ", \"p90\": " << S.quantile(0.9) << ", \"p99\": " << S.quantile(0.99)
       << '}';
  }
  OS << '}';
  return OS.str();
}

std::string HistogramRegistry::toText() const {
  std::ostringstream OS;
  OS.precision(1);
  OS << std::fixed;
  for (const HistogramSnapshot &S : snapshot())
    OS << S.Name << ": " << S.Count << " recorded, sum " << S.Sum
       << ", mean " << S.mean() << ", p50 " << S.quantile(0.5) << ", p90 "
       << S.quantile(0.9) << ", p99 " << S.quantile(0.99) << ", max "
       << S.Max << '\n';
  return OS.str();
}

std::string defacto::spanPhase(const std::string &HistogramName) {
  const std::string Suffix = "_us";
  if (!HistogramName.ends_with(Suffix))
    return "";
  return HistogramName.substr(0, HistogramName.size() - Suffix.size());
}

uint64_t ScopedSpan::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
