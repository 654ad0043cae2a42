//===- ParserFuzzTest.cpp - Hostile-input robustness for ir/Parser --------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays a checked-in corpus of hostile .mlir inputs
/// (tests/corpus/parser: truncations, binary garbage, unterminated
/// tokens, oversized literals, deep region nesting, malformed AXI4MLIR
/// attributes) plus deterministic byte-level mutations of every
/// examples/*.mlir file through parseSourceString. The contract is
/// crash-freedom with clean reporting: every input either parses or
/// fails with a non-empty `<buffer>:<line>:<col>: error:` diagnostic —
/// no aborts, no reads past the buffer (CI runs this under ASan+UBSan).
///
/// AXI4MLIR_FUZZ_SEED / AXI4MLIR_FUZZ_CASES scale the mutation sweep.
///
//===----------------------------------------------------------------------===//

#include "analysis/PlanVerifier.h"
#include "dialects/InitAllDialects.h"
#include "exec/ExecPlan.h"
#include "ir/Operation.h"
#include "ir/Parser.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#ifndef AXI4MLIR_SOURCE_DIR
#define AXI4MLIR_SOURCE_DIR "."
#endif

using namespace axi4mlir;

namespace {

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

std::vector<std::filesystem::path> mlirFilesIn(const std::string &Dir) {
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".mlir")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

/// The invariant under test: parseSourceString either succeeds or fails
/// with a located diagnostic. Anything else (crash, empty error) is a
/// parser bug.
/// \p PlanError: empty when the compiled plan must verify clean, else a
/// fragment of the instruction-located error the plan verifier must give.
void expectCleanOutcome(const std::string &Source, const std::string &Label,
                        bool Verify, const std::string &PlanError = "") {
  SCOPED_TRACE(Label);
  MLIRContext Context;
  registerAllDialects(Context);
  ParserOptions Options;
  Options.Verify = Verify;
  Options.BufferName = Label;
  std::string Error;
  FailureOr<OwningOpRef> Parsed =
      parseSourceString(Source, &Context, &Error, Options);
  if (failed(Parsed)) {
    EXPECT_FALSE(Error.empty()) << "failure without a diagnostic";
    EXPECT_NE(Error.find("error"), std::string::npos)
        << "diagnostic missing the error marker: " << Error;
    return;
  }
  // Accepted inputs must survive a print round (the printer walks the
  // whole tree, catching dangling references the parser let through).
  std::ostringstream OS;
  Parsed->get()->print(OS);
  EXPECT_FALSE(OS.str().empty());
  // And they must survive the static analysis front door: a verified
  // function that compiles to an ExecPlan must be accepted by the plan
  // verifier — the parser/verifier pair must never hand the executor a
  // plan the analysis layer would reject (and neither compile nor verify
  // may crash on fuzzed-but-accepted IR). The only exceptions are corpus
  // files naming the located error the verifier must report instead.
  if (Verify && Parsed->get()->getName() == func::FuncOp::OpName) {
    std::string CompileError;
    auto Plan =
        exec::ExecPlan::compile(func::FuncOp(Parsed->get()), CompileError);
    if (Plan) {
      analysis::VerifyResult Verified = analysis::verifyPlan(*Plan);
      if (PlanError.empty()) {
        EXPECT_TRUE(Verified.Errors.empty()) << Verified.toString();
      } else {
        bool Found = false;
        for (const analysis::PlanDiag &D : Verified.Errors)
          Found = Found || (D.Message.rfind("pc ", 0) == 0 &&
                            D.Message.find(PlanError) != std::string::npos);
        EXPECT_TRUE(Found) << "expected a located '" << PlanError
                           << "' error; got:\n"
                           << Verified.toString();
      }
    } else {
      EXPECT_TRUE(PlanError.empty()) << "plan failed to compile: "
                                     << CompileError;
    }
  }
}

TEST(ParserFuzz, CheckedInCorpus) {
  // Corpus files that parse and compile but whose plan is unsafe: the
  // plan verifier must reject them at the offending instruction.
  const std::map<std::string, std::string> PlanErrors = {
      {"hostile_dma_offset.mlir", "past the largest representable offset"}};
  std::string Dir = std::string(AXI4MLIR_SOURCE_DIR) + "/tests/corpus/parser";
  std::vector<std::filesystem::path> Files = mlirFilesIn(Dir);
  ASSERT_FALSE(Files.empty()) << "corpus missing at " << Dir;
  for (const auto &Path : Files) {
    std::string Source = readFile(Path);
    auto Expected = PlanErrors.find(Path.filename().string());
    expectCleanOutcome(Source, Path.filename().string() + "/verify", true,
                       Expected == PlanErrors.end() ? "" : Expected->second);
    expectCleanOutcome(Source, Path.filename().string() + "/noverify",
                       false);
  }
}

/// Deterministic byte-level mutations of the real example files: single
/// byte substitutions, truncations, span deletions/duplications, and
/// token-boundary splices. Seeds derive from the base seed and the file
/// index, so a failure reproduces from the printed trace alone.
TEST(ParserFuzz, MutatedExamples) {
  uint32_t Seed = 7;
  int MutantsPerFile = 40;
  if (const char *Env = std::getenv("AXI4MLIR_FUZZ_SEED"))
    Seed = static_cast<uint32_t>(std::strtoul(Env, nullptr, 10));
  if (const char *Env = std::getenv("AXI4MLIR_FUZZ_CASES"))
    MutantsPerFile = static_cast<int>(std::strtol(Env, nullptr, 10));

  std::string Dir = std::string(AXI4MLIR_SOURCE_DIR) + "/examples";
  std::vector<std::filesystem::path> Files = mlirFilesIn(Dir);
  ASSERT_FALSE(Files.empty()) << "examples missing at " << Dir;

  const std::string Splices[] = {"%", "^", "\"", "({", "})", "memref<",
                                 "opcode_map<", ":", "->", "\x00\x01"};
  for (size_t FileIdx = 0; FileIdx < Files.size(); ++FileIdx) {
    std::string Original = readFile(Files[FileIdx]);
    ASSERT_FALSE(Original.empty());
    std::mt19937 Rng(Seed + static_cast<uint32_t>(FileIdx) * 7919);
    auto pick = [&](size_t Bound) {
      return std::uniform_int_distribution<size_t>(0, Bound - 1)(Rng);
    };
    for (int M = 0; M < MutantsPerFile; ++M) {
      std::string Mutant = Original;
      switch (pick(5)) {
      case 0: // substitute one byte
        Mutant[pick(Mutant.size())] =
            static_cast<char>(pick(256));
        break;
      case 1: // truncate
        Mutant.resize(pick(Mutant.size()));
        break;
      case 2: { // delete a span
        size_t Begin = pick(Mutant.size());
        size_t Len = 1 + pick(64);
        Mutant.erase(Begin, Len);
        break;
      }
      case 3: { // duplicate a span
        size_t Begin = pick(Mutant.size());
        size_t Len = std::min<size_t>(1 + pick(64), Mutant.size() - Begin);
        Mutant.insert(Begin, Mutant.substr(Begin, Len));
        break;
      }
      default: { // splice a token fragment
        const std::string &Token =
            Splices[pick(sizeof(Splices) / sizeof(Splices[0]))];
        Mutant.insert(pick(Mutant.size()), Token);
        break;
      }
      }
      expectCleanOutcome(Mutant,
                         Files[FileIdx].filename().string() + "/mutant" +
                             std::to_string(M),
                         /*Verify=*/true);
    }
  }
}

} // namespace
