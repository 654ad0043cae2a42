//===- Trace.cpp - Benchmark-side layer spans -----------------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace perfbench;

size_t Tracer::begin(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Job = CurrentJob;
  Spans.push_back(S);
  Open.push_back(static_cast<int32_t>(Spans.size() - 1));
  // Stamp last so the bookkeeping above is not charged to the span.
  Spans.back().StartNs = nowNs();
  return Spans.size() - 1;
}

void Tracer::end(size_t Index) {
  int64_t Now = nowNs();
  // end() runs from ScopedSpan's destructor, so a broken nesting aborts
  // rather than throws.
  if (Open.empty() || static_cast<size_t>(Open.back()) != Index) {
    std::fprintf(stderr, "perfbench: spans closed out of order\n");
    std::abort();
  }
  Spans[Index].EndNs = Now;
  Open.pop_back();
}

std::vector<int64_t> perfbench::selfTimesNs(const std::vector<Span> &Spans) {
  std::vector<std::vector<size_t>> Children(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    int32_t P = Spans[I].Parent;
    if (P >= 0 && static_cast<size_t>(P) < Spans.size())
      Children[P].push_back(I);
  }
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::vector<std::pair<int64_t, int64_t>> Covered;
    for (size_t C : Children[I]) {
      int64_t Lo = std::max(S.StartNs, Spans[C].StartNs);
      int64_t Hi = std::min(S.EndNs, Spans[C].EndNs);
      if (Lo < Hi)
        Covered.emplace_back(Lo, Hi);
    }
    std::sort(Covered.begin(), Covered.end());
    int64_t CoveredNs = 0, Reach = S.StartNs;
    for (auto [Lo, Hi] : Covered) {
      Lo = std::max(Lo, Reach);
      if (Hi > Lo) {
        CoveredNs += Hi - Lo;
        Reach = Hi;
      }
    }
    Self[I] = (S.EndNs - S.StartNs) - CoveredNs;
  }
  return Self;
}

std::map<std::string, int64_t>
perfbench::selfTimeByName(const std::vector<Span> &Spans) {
  std::vector<int64_t> Self = selfTimesNs(Spans);
  std::map<std::string, int64_t> ByName;
  for (size_t I = 0; I < Spans.size(); ++I)
    ByName[Spans[I].Name] += Self[I];
  return ByName;
}

namespace {

void writeJsonString(std::ostream &OS, const char *Text) {
  OS << '"';
  for (const char *P = Text; *P; ++P) {
    unsigned char C = static_cast<unsigned char>(*P);
    if (C == '"' || C == '\\') {
      OS << '\\' << *P;
    } else if (C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      OS << Buf;
    } else {
      OS << *P;
    }
  }
  OS << '"';
}

} // namespace

void perfbench::writeChromeTrace(std::ostream &OS,
                                 const std::vector<Span> &Spans) {
  int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans)
    Origin = std::min(Origin, S.StartNs);
  char Buf[64];
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << (I ? ",\n" : "\n") << "{\"name\":";
    writeJsonString(OS, S.Name);
    std::snprintf(Buf, sizeof(Buf), "%.3f",
                  static_cast<double>(S.StartNs - Origin) / 1e3);
    OS << ",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << Buf;
    std::snprintf(Buf, sizeof(Buf), "%.3f",
                  static_cast<double>(S.EndNs - S.StartNs) / 1e3);
    OS << ",\"dur\":" << Buf << ",\"args\":{\"span\":" << I
       << ",\"parent\":" << S.Parent << ",\"job\":" << S.Job << "}}";
  }
  OS << "\n]}\n";
}
