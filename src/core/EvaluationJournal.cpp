//===- EvaluationJournal.cpp ----------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/EvaluationJournal.h"

#include "defacto/Support/Json.h"
#include "defacto/Support/Stats.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace defacto;

DEFACTO_STATISTIC(NumJournalRecords, "journal", "records",
                  "evaluation records appended to the journal");
DEFACTO_STATISTIC(NumJournalFlushes, "journal", "flushes",
                  "write-then-rename journal flushes");
DEFACTO_STATISTIC(NumJournalReplayed, "journal", "replayed",
                  "journal entries seeded into an estimate cache on resume");
DEFACTO_STATISTIC(NumJournalSkippedLines, "journal", "skipped-lines",
                  "corrupt or torn journal lines tolerated during load");

namespace {

/// Schema version written to new journals. "2" extends "1" with the
/// multi-dimensional cache-key fields (";ic..."/";pl..." suffixes inside
/// eval keys); record shapes are unchanged, so v1 files load verbatim.
constexpr const char *JournalVersion = "2";

/// Versions load() accepts. Unroll-only keys are byte-identical across
/// both, so a v1 journal resumes into a v2 run with zero skipped lines.
bool versionReadable(const std::string &V) { return V == "1" || V == "2"; }

/// Doubles are journaled as hexfloat *strings*: "%a" prints every finite
/// value exactly (and "inf" for the Balance of a memory-free design),
/// and strtod reads both back bit-identically. A plain %g would round.
std::string hexDouble(double D) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", D);
  return Buf;
}

std::string u64Str(uint64_t V) { return std::to_string(V); }

void appendEstimate(std::ostringstream &OS, const SynthesisEstimate &E) {
  OS << "\"est\":{\"cycles\":" << jsonQuote(u64Str(E.Cycles))
     << ",\"slices\":" << jsonQuote(hexDouble(E.Slices))
     << ",\"registers\":" << jsonQuote(u64Str(E.Registers)) << ",\"units\":[";
  bool First = true;
  for (const auto &[Shape, Count] : E.Units) {
    if (!First)
      OS << ',';
    First = false;
    OS << '[' << static_cast<int>(Shape.first) << ',' << Shape.second << ','
       << Count << ']';
  }
  OS << "],\"fetch\":" << jsonQuote(hexDouble(E.FetchRate))
     << ",\"consume\":" << jsonQuote(hexDouble(E.ConsumeRate))
     << ",\"balance\":" << jsonQuote(hexDouble(E.Balance))
     << ",\"mem_cycles\":" << jsonQuote(hexDouble(E.MemOnlyCycles))
     << ",\"comp_cycles\":" << jsonQuote(hexDouble(E.CompOnlyCycles))
     << ",\"bits\":" << jsonQuote(hexDouble(E.BitsTransferred))
     << ",\"fsm\":" << jsonQuote(u64Str(E.FsmStates)) << '}';
}

std::string evalLine(const std::string &Key, const EstimateCache::Result &R) {
  std::ostringstream OS;
  OS << "{\"type\":\"eval\",\"key\":" << jsonQuote(Key)
     << ",\"attempts\":" << jsonQuote(u64Str(R.Attempts)) << ',';
  if (R.ok()) {
    appendEstimate(OS, R.Estimate.value());
  } else {
    const Status &S = R.Estimate.status();
    OS << "\"err\":{\"code\":" << jsonQuote(errorCodeName(S.code()))
       << ",\"msg\":" << jsonQuote(S.message()) << '}';
  }
  OS << '}';
  return OS.str();
}

std::string jobLine(const JournalJobRecord &J) {
  std::ostringstream OS;
  OS << "{\"type\":\"job\",\"name\":" << jsonQuote(J.Name)
     << ",\"strategy\":" << jsonQuote(J.Strategy)
     << ",\"selected\":" << jsonQuote(J.Selected)
     << ",\"cycles\":" << jsonQuote(u64Str(J.Cycles))
     << ",\"slices\":" << jsonQuote(hexDouble(J.Slices))
     << ",\"evals\":" << jsonQuote(u64Str(J.Evaluations))
     << ",\"degraded\":" << (J.Degraded ? "true" : "false")
     << ",\"fits\":" << (J.Fits ? "true" : "false") << '}';
  return OS.str();
}

bool parseEstimate(const JsonValue &V, SynthesisEstimate &E) {
  E.Cycles = V.uint("cycles");
  E.Slices = V.num("slices");
  E.Registers = static_cast<unsigned>(V.uint("registers"));
  if (const JsonValue *Units = V.find("units")) {
    if (!Units->isArray())
      return false;
    for (const JsonValue &Triple : Units->Elements) {
      if (!Triple.isArray() || Triple.Elements.size() != 3)
        return false;
      OpShape Shape{static_cast<OpClass>(std::strtol(
                        Triple.Elements[0].Text.c_str(), nullptr, 10)),
                    static_cast<unsigned>(std::strtoul(
                        Triple.Elements[1].Text.c_str(), nullptr, 10))};
      E.Units[Shape] = static_cast<unsigned>(
          std::strtoul(Triple.Elements[2].Text.c_str(), nullptr, 10));
    }
  }
  E.FetchRate = V.num("fetch");
  E.ConsumeRate = V.num("consume");
  E.Balance = V.num("balance");
  E.MemOnlyCycles = V.num("mem_cycles");
  E.CompOnlyCycles = V.num("comp_cycles");
  E.BitsTransferred = V.num("bits");
  E.FsmStates = V.uint("fsm");
  return true;
}

/// One journal line -> a record merged into \p C. False on anything
/// malformed (the caller counts it as skipped).
bool parseLine(const std::string &Line, EvaluationJournal::Contents &C) {
  Expected<JsonValue> Parsed = parseJson(Line);
  if (!Parsed.hasValue() || !Parsed.value().isObject())
    return false;
  const JsonValue &V = Parsed.value();
  std::string Type = V.str("type");
  if (Type == "header")
    return versionReadable(V.str("version"));
  if (Type == "eval") {
    std::string Key = V.str("key");
    if (Key.empty())
      return false;
    unsigned Attempts = static_cast<unsigned>(V.uint("attempts", 1));
    if (const JsonValue *Est = V.find("est")) {
      SynthesisEstimate E;
      if (!parseEstimate(*Est, E))
        return false;
      C.Evaluations.emplace_back(
          Key, EstimateCache::Result{Expected<SynthesisEstimate>(E),
                                     Attempts});
      return true;
    }
    if (const JsonValue *Err = V.find("err")) {
      std::string CodeName = Err->str("code");
      if (CodeName.empty())
        return false;
      C.Evaluations.emplace_back(
          Key,
          EstimateCache::Result{
              Expected<SynthesisEstimate>(Status::error(
                  errorCodeFromName(CodeName), Err->str("msg"))),
              Attempts});
      return true;
    }
    return false;
  }
  if (Type == "job") {
    JournalJobRecord J;
    J.Name = V.str("name");
    if (J.Name.empty())
      return false;
    J.Strategy = V.str("strategy");
    J.Selected = V.str("selected");
    J.Cycles = V.uint("cycles");
    J.Slices = V.num("slices");
    J.Evaluations = static_cast<unsigned>(V.uint("evals"));
    J.Degraded = V.boolean("degraded");
    J.Fits = V.boolean("fits", true);
    C.Jobs.push_back(std::move(J));
    return true;
  }
  return false;
}

} // namespace

EvaluationJournal::EvaluationJournal(std::string Path)
    : Path(std::move(Path)) {}

Expected<EvaluationJournal::Contents>
EvaluationJournal::load(const std::string &Path) {
  Contents C;
  std::ifstream In(Path);
  if (!In.is_open())
    return C; // No journal yet: empty resume state.
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    if (!parseLine(Line, C)) {
      ++C.SkippedLines;
      ++NumJournalSkippedLines;
    }
  }
  if (In.bad())
    return Status::error(ErrorCode::InvalidInput,
                         "error reading journal '" + Path + "'");
  // Deduplicate: the cache fulfills each key once, but a compacted
  // journal adopted twice (or a hand-edited file) may repeat records.
  // First evaluation wins; last job record wins.
  Contents Unique;
  Unique.SkippedLines = C.SkippedLines;
  {
    std::map<std::string, bool> SeenEval;
    for (auto &KV : C.Evaluations)
      if (!SeenEval.count(KV.first)) {
        SeenEval[KV.first] = true;
        Unique.Evaluations.push_back(std::move(KV));
      }
  }
  {
    std::map<std::string, size_t> JobIndex;
    for (auto &J : C.Jobs) {
      auto It = JobIndex.find(J.Name);
      if (It == JobIndex.end()) {
        JobIndex[J.Name] = Unique.Jobs.size();
        Unique.Jobs.push_back(std::move(J));
      } else {
        Unique.Jobs[It->second] = std::move(J);
      }
    }
  }
  return Unique;
}

void EvaluationJournal::adopt(const Contents &C) {
  std::lock_guard<std::mutex> Lock(M);
  for (const auto &[Key, R] : C.Evaluations)
    if (Evaluations.emplace(Key, R).second)
      EvalOrder.push_back(Key);
  for (const auto &J : C.Jobs) {
    if (!Jobs.count(J.Name))
      JobOrder.push_back(J.Name);
    Jobs[J.Name] = J;
  }
}

void EvaluationJournal::recordEvaluation(const std::string &Key,
                                         const EstimateCache::Result &R) {
  std::lock_guard<std::mutex> Lock(M);
  if (!Evaluations.emplace(Key, R).second)
    return;
  EvalOrder.push_back(Key);
  ++NumJournalRecords;
  (void)flushLocked();
}

void EvaluationJournal::recordJob(const JournalJobRecord &J) {
  std::lock_guard<std::mutex> Lock(M);
  auto [It, Inserted] = Jobs.try_emplace(J.Name, J);
  if (Inserted) {
    JobOrder.push_back(J.Name);
  } else {
    // A repeat request re-finishes its job with the identical record;
    // the file already holds it, so skip the whole-file rewrite.
    const JournalJobRecord &Old = It->second;
    if (Old.Strategy == J.Strategy && Old.Selected == J.Selected &&
        Old.Cycles == J.Cycles &&
        std::memcmp(&Old.Slices, &J.Slices, sizeof(double)) == 0 &&
        Old.Evaluations == J.Evaluations && Old.Degraded == J.Degraded &&
        Old.Fits == J.Fits)
      return;
    It->second = J;
  }
  (void)flushLocked();
}

std::optional<JournalJobRecord>
EvaluationJournal::jobRecord(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Jobs.find(Name);
  if (It == Jobs.end())
    return std::nullopt;
  return It->second;
}

unsigned EvaluationJournal::replayInto(EstimateCache &Cache) const {
  std::lock_guard<std::mutex> Lock(M);
  unsigned Seeded = 0;
  for (const std::string &Key : EvalOrder) {
    auto It = Evaluations.find(Key);
    if (It != Evaluations.end() && Cache.seed(Key, It->second)) {
      ++Seeded;
      ++NumJournalReplayed;
    }
  }
  return Seeded;
}

size_t EvaluationJournal::numEvaluations() const {
  std::lock_guard<std::mutex> Lock(M);
  return Evaluations.size();
}

size_t EvaluationJournal::numJobs() const {
  std::lock_guard<std::mutex> Lock(M);
  return Jobs.size();
}

Status EvaluationJournal::flush() {
  std::lock_guard<std::mutex> Lock(M);
  return flushLocked();
}

Status EvaluationJournal::flushLocked() {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    if (!Out.is_open())
      return Status::error(ErrorCode::InvalidInput,
                           "cannot write journal temp file '" + Tmp + "'");
    Out << "{\"type\":\"header\",\"version\":" << jsonQuote(JournalVersion)
        << "}\n";
    for (const std::string &Key : EvalOrder) {
      auto It = Evaluations.find(Key);
      if (It != Evaluations.end())
        Out << evalLine(Key, It->second) << '\n';
    }
    for (const std::string &Name : JobOrder) {
      auto It = Jobs.find(Name);
      if (It != Jobs.end())
        Out << jobLine(It->second) << '\n';
    }
    Out.flush();
    if (!Out.good())
      return Status::error(ErrorCode::InvalidInput,
                           "error writing journal temp file '" + Tmp + "'");
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0)
    return Status::error(ErrorCode::InvalidInput,
                         "cannot rename journal '" + Tmp + "' over '" + Path +
                             "'");
  ++NumJournalFlushes;
  return Status::ok();
}
