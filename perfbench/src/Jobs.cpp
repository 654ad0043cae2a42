//===- Jobs.cpp - Seeded job generators -----------------------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Jobs.h"

#include <algorithm>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <stdexcept>

using namespace perfbench;
using namespace axi4mlir;
using V = sim::MatMulAccelerator::Version;

namespace {

/// Scaled-down Paper Fig. 16 ResNet18 layers [iHW, iC, fHW, oC, stride]:
/// channels divided by 16 (the 7x7 stem is dropped), each about 0.45M MACs
/// so a conv point costs about as much as a large matmul point.
struct ConvLayer {
  int64_t InHW, InChannels, FilterHW, OutChannels, Stride;
};
const ConvLayer ResNetLayers[] = {
    {13, 16, 1, 32, 2}, {16, 16, 3, 16, 1}, {15, 16, 3, 32, 2},
    {27, 8, 1, 16, 2},  {30, 8, 3, 8, 1},   {29, 8, 3, 16, 2},
    {55, 4, 1, 8, 2},   {57, 4, 3, 8, 2},   {58, 4, 3, 4, 1},
    {9, 32, 3, 32, 1}};
constexpr size_t NumResNetLayers = sizeof(ResNetLayers) / sizeof(ResNetLayers[0]);

int versionNumber(V Version) {
  return Version == V::V1 ? 1 : Version == V::V2 ? 2 : Version == V::V3 ? 3 : 4;
}

} // namespace

//===----------------------------------------------------------------------===//
// fig-sweep
//===----------------------------------------------------------------------===//

std::vector<FigPoint> perfbench::makeFigSweep(uint64_t Seed) {
  // Every Table I accelerator (v1-v4 at sizes 4/8/16) with every flow its
  // micro-ISA supports, at one shape of every size class, so any two seeds
  // cover the same design space. The list is FigRounds rounds; in each
  // round every accelerator+flow appears once, a third of them in each
  // size class, half of them tile-aligned (the manual driver's domain) and
  // half of the rest on Pad vs Peel, plus FigLargePerRound points of the
  // large class (one aligned, one not) and FigConvPerRound conv layers.
  // A shape draws M and N around the class size and picks K so the MAC
  // count stays at the class's cube: seeds change shapes, data and order
  // but hardly the work per round, which keeps host figures comparable
  // across seeds. Three classes put the median job inside the middle one.
  // The large class is the Fig. 11/13 regime: its working set (over
  // 300 KB at 160^3 MACs) no longer fits twice in the 512 KiB L2, so
  // lower-to-accel adds a CPU tiling loop. Its aligned points are multiples
  // of 32, which every accelerator tile and its doubling divide, so the
  // CPU tile divides them too. Its designs are fixed, every seventh design
  // (every version, size and flow kind; a 4x4 tile costs the host about
  // ten times the instructions of a 16x16 one), so seeds change only its
  // shapes.
  static const int64_t ClassSizes[FigRounds] = {32, 56, 80};
  constexpr int64_t LargeClass = 160, LargeAlign = 32;
  struct Design {
    V Version;
    int64_t Size;
    const char *Flow;
  };
  std::vector<Design> Designs;
  for (V Version : {V::V1, V::V2, V::V3, V::V4}) {
    std::vector<const char *> Flows = {"Ns"};
    if (Version != V::V1)
      Flows.insert(Flows.end(), {"As", "Bs"});
    if (Version == V::V3 || Version == V::V4)
      Flows.push_back("Cs");
    for (int64_t Size : {4, 8, 16})
      for (const char *Flow : Flows)
        Designs.push_back({Version, Size, Flow});
  }

  Rng R(Seed * 0x2545f4914f6cdd1dull + 1);
  std::vector<ConvLayer> Layers;
  while (Layers.size() < FigRounds * FigConvPerRound) {
    std::vector<ConvLayer> Batch(ResNetLayers, ResNetLayers + NumResNetLayers);
    R.shuffle(Batch);
    Layers.insert(Layers.end(), Batch.begin(), Batch.end());
  }
  // A matmul point of design \p Des in size class \p Class; \p AlignTo 0
  // leaves the dims as drawn.
  auto matmulPoint = [&R](const Design &Des, int64_t Class, int64_t AlignTo,
                          transforms::RemainderMode Remainder) {
    FigPoint Point;
    exec::MatMulRunConfig &C = Point.MatMul;
    C.Version = Des.Version;
    C.AccelSize = Des.Size;
    C.Flow = Des.Flow;
    auto align = [AlignTo](int64_t X) {
      return AlignTo ? std::max(AlignTo, (X + AlignTo / 2) / AlignTo * AlignTo)
                     : X;
    };
    C.M = align(R.range(Class * 3 / 4, Class * 5 / 4));
    C.N = align(R.range(Class * 3 / 4, Class * 5 / 4));
    C.K = align(std::clamp<int64_t>(
        (Class * Class * Class + C.M * C.N / 2) / (C.M * C.N), 8, 2 * Class));
    C.Remainder = Remainder;
    C.Seed = static_cast<uint32_t>(R.next());
    Point.ManualSupported = C.M % Des.Size == 0 && C.N % Des.Size == 0 &&
                            C.K % Des.Size == 0;
    return Point;
  };
  std::vector<FigPoint> Points;
  for (size_t Round = 0; Round < FigRounds; ++Round) {
    std::vector<FigPoint> RoundPoints;
    for (size_t D = 0; D < Designs.size(); ++D) {
      const Design &Des = Designs[D];
      bool Aligned = (D + Round) % 2 == 0;
      RoundPoints.push_back(matmulPoint(
          Des, ClassSizes[(D + Round) % FigRounds], Aligned ? Des.Size : 0,
          (D / 2 + Round) % 2 ? transforms::RemainderMode::Pad
                              : transforms::RemainderMode::Peel));
    }
    for (size_t I = 0; I < FigLargePerRound; ++I) {
      const Design &Des =
          Designs[(Round * FigLargePerRound + I) * 7 % Designs.size()];
      RoundPoints.push_back(matmulPoint(
          Des, LargeClass, I % 2 == 0 ? LargeAlign : 0,
          (I / 2 + Round) % 2 ? transforms::RemainderMode::Pad
                              : transforms::RemainderMode::Peel));
    }
    for (size_t I = 0; I < FigConvPerRound; ++I) {
      const ConvLayer &L = Layers[Round * FigConvPerRound + I];
      FigPoint Point;
      Point.IsConv = true;
      Point.Conv.InHW = L.InHW;
      Point.Conv.InChannels = L.InChannels;
      Point.Conv.FilterHW = L.FilterHW;
      Point.Conv.OutChannels = L.OutChannels;
      Point.Conv.Stride = L.Stride;
      Point.Conv.Seed = static_cast<uint32_t>(R.next());
      Point.ManualSupported = true;
      RoundPoints.push_back(Point);
    }
    R.shuffle(RoundPoints);
    Points.insert(Points.end(), RoundPoints.begin(), RoundPoints.end());
  }
  return Points;
}

std::string perfbench::describe(const FigPoint &Point) {
  std::ostringstream OS;
  if (Point.IsConv) {
    const exec::ConvRunConfig &C = Point.Conv;
    OS << "conv iHW=" << C.InHW << " iC=" << C.InChannels
       << " fHW=" << C.FilterHW << " oC=" << C.OutChannels
       << " s=" << C.Stride << " seed=" << C.Seed;
  } else {
    const exec::MatMulRunConfig &C = Point.MatMul;
    OS << "matmul v" << versionNumber(C.Version) << "_" << C.AccelSize << " "
       << C.Flow << " " << C.M << "x" << C.N << "x" << C.K << " "
       << (C.Remainder == transforms::RemainderMode::Pad ? "pad" : "peel")
       << " seed=" << C.Seed;
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// driver-gen
//===----------------------------------------------------------------------===//

namespace {

std::vector<SourceText> readDirectory(const std::string &Dir,
                                      const std::string &Suffix) {
  std::vector<SourceText> Files;
  DIR *Handle = opendir(Dir.c_str());
  if (!Handle)
    throw std::runtime_error("cannot open directory '" + Dir + "'");
  while (dirent *Entry = readdir(Handle)) {
    std::string Name = Entry->d_name;
    if (Name.size() <= Suffix.size() ||
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) != 0)
      continue;
    std::ifstream In(Dir + "/" + Name);
    std::ostringstream Text;
    Text << In.rdbuf();
    if (!In)
      continue;
    Files.push_back({Name, Text.str()});
  }
  closedir(Handle);
  if (Files.empty())
    throw std::runtime_error("no *" + Suffix + " files in '" + Dir + "'");
  std::sort(Files.begin(), Files.end(),
            [](const SourceText &A, const SourceText &B) {
              return A.Name < B.Name;
            });
  return Files;
}

} // namespace

DriverGenSources perfbench::readDriverGenSources(const std::string &Root) {
  DriverGenSources Sources;
  Sources.Configs = readDirectory(Root + "/configs", ".json");
  Sources.Examples = readDirectory(Root + "/examples", ".mlir");
  return Sources;
}

std::vector<DriverGenJob>
perfbench::makeDriverGen(uint64_t Seed,
                         const std::vector<std::string> &ConfigKernels,
                         const std::vector<std::string> &ExampleKernels) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 2);
  auto supports = [](const std::string &Has, const std::string &Kernel) {
    return Has == Kernel || Has == "both";
  };
  // Every config gets the same number of jobs per kernel it can lower:
  // each matching checked-in example once, plus built kernels at seeded
  // shapes up to a fixed quota.
  constexpr unsigned JobsPerKernel = 8;
  std::vector<DriverGenJob> Jobs;
  for (size_t C = 0; C < ConfigKernels.size(); ++C) {
    for (const char *Kernel : {"matmul", "conv"}) {
      if (!supports(ConfigKernels[C], Kernel))
        continue;
      unsigned Count = 0;
      for (size_t E = 0; E < ExampleKernels.size(); ++E) {
        if (ExampleKernels[E] != Kernel)
          continue;
        DriverGenJob Job;
        Job.Config = C;
        Job.Example = static_cast<int>(E);
        Jobs.push_back(Job);
        ++Count;
      }
      for (; Count < JobsPerKernel; ++Count) {
        DriverGenJob Job;
        Job.Config = C;
        if (std::string(Kernel) == "conv") {
          const ConvLayer &L = ResNetLayers[R.next() % NumResNetLayers];
          Job.IsConv = true;
          Job.InHW = L.InHW;
          Job.InChannels = L.InChannels;
          Job.FilterHW = L.FilterHW;
          Job.OutChannels = L.OutChannels;
          Job.Stride = L.Stride;
        } else {
          // Alternately tile-aligned for every Table I size, or odd in
          // every dim (padded on every accelerator, which compiles about
          // four times slower); a fixed share of each keeps the mix of
          // work the same for every seed.
          auto dim = [&]() {
            return Count % 2 ? 2 * R.range(8, 63) + 1 : 16 * R.range(1, 8);
          };
          Job.M = dim();
          Job.N = dim();
          Job.K = dim();
        }
        Jobs.push_back(Job);
      }
    }
  }
  R.shuffle(Jobs);
  return Jobs;
}

std::string perfbench::describe(const DriverGenJob &Job) {
  std::ostringstream OS;
  OS << "config#" << Job.Config << " ";
  if (Job.Example >= 0)
    OS << "example#" << Job.Example;
  else if (Job.IsConv)
    OS << "conv iHW=" << Job.InHW << " iC=" << Job.InChannels
       << " fHW=" << Job.FilterHW << " oC=" << Job.OutChannels
       << " s=" << Job.Stride;
  else
    OS << "matmul " << Job.M << "x" << Job.N << "x" << Job.K;
  return OS.str();
}

//===----------------------------------------------------------------------===//
// serve-mixed
//===----------------------------------------------------------------------===//

std::vector<serve::JobRequest> perfbench::makeServeStream(uint64_t Seed) {
  // Four matmul shapes and two conv layers: with two matmul instances and
  // the CPU fallback that is about a dozen plan-cache keys for 144 jobs,
  // so roughly nine jobs in ten hit the shared cache. Every group of 24
  // consecutive jobs (one wave at serve_pool.json's queue depth) holds
  // four of each shape; the seed draws the order within each group and
  // the input data. A fixed mix per wave keeps the slow first wave of a
  // pass (cold plan cache, brown-out) the same for every seed.
  static const int64_t MatMulShapes[][3] = {
      {32, 32, 32}, {48, 48, 48}, {64, 64, 64}, {64, 32, 48}};
  static const int64_t ConvHW[] = {10, 14};
  constexpr unsigned Groups = 6, PerShapePerGroup = 4;
  Rng R(Seed * 0xd1b54a32d192ed03ull + 3);
  std::vector<serve::JobRequest> Stream;
  for (unsigned G = 0; G < Groups; ++G) {
    std::vector<serve::JobRequest> Group;
    for (unsigned I = 0; I < PerShapePerGroup; ++I) {
      for (const int64_t *Shape : MatMulShapes) {
        serve::JobRequest Request;
        Request.M = Shape[0];
        Request.N = Shape[1];
        Request.K = Shape[2];
        Group.push_back(Request);
      }
      for (int64_t HW : ConvHW) {
        serve::JobRequest Request;
        Request.Kind = serve::JobKind::Conv2D;
        Request.InChannels = 8;
        Request.InHW = HW;
        Request.OutChannels = 8;
        Request.FilterHW = 3;
        Request.Stride = 1;
        Group.push_back(Request);
      }
    }
    R.shuffle(Group);
    Stream.insert(Stream.end(), Group.begin(), Group.end());
  }
  for (serve::JobRequest &Request : Stream)
    Request.Seed = static_cast<uint32_t>(R.next());
  return Stream;
}

std::string perfbench::describe(const serve::JobRequest &Request) {
  std::ostringstream OS;
  if (Request.Kind == serve::JobKind::Conv2D)
    OS << "conv iHW=" << Request.InHW << " iC=" << Request.InChannels
       << " oC=" << Request.OutChannels;
  else
    OS << "matmul " << Request.M << "x" << Request.N << "x" << Request.K;
  OS << " seed=" << Request.Seed;
  return OS.str();
}
