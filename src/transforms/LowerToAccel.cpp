//===- LowerToAccel.cpp - Tiling + opcode-flow host code generation -------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heart of AXI4MLIR (paper Fig. 4 steps 4-5): lowers an annotated
/// linalg.generic into
///
///   * an optional outer loop nest tiled for the CPU's last-level cache
///     (temporal locality, DESIGN.md Sec. 5.2),
///   * an inner loop nest tiled to the accelerator size, ordered by the
///     permutation_map (stationary dataflows),
///   * accel-dialect communication ops placed at the loop level dictated
///     by the opcode_flow scopes and each tile's index dependencies
///     (DESIGN.md Sec. 5.1) — e.g. paper Fig. 6b for matmul-As and
///     Fig. 15b for the output-stationary convolution.
///
/// The pass consumes the TilingPlan computed during match-and-annotate
/// instead of re-deriving tiles. Problem extents that are not divisible by
/// the accelerator tile are handled per the plan's remainder strategy:
///
///   * Pad: the iteration space is decomposed into boxes (full-tile
///     segments x partial-tile segments per dimension); partial tiles are
///     staged through a zero-filled full-tile buffer on send and masked
///     through a staging buffer + accumulate-copy on receive, so the
///     accelerator always sees full-size bursts.
///   * Peel: the accelerator runs the full-tile main region only and each
///     partial dimension peels into a host epilogue (a residual
///     linalg.generic over the remainder subviews).
///
//===----------------------------------------------------------------------===//

#include "dialects/Accel.h"
#include "dialects/Arith.h"
#include "dialects/Linalg.h"
#include "dialects/MemRef.h"
#include "transforms/Passes.h"
#include "transforms/TilingPlan.h"
#include "dialects/SCF.h"

#include <algorithm>
#include <map>
#include <set>

using namespace axi4mlir;
using namespace axi4mlir::transforms;
using accel::OpcodeAction;

namespace {

/// Element width in bytes: the AXI stream carries 32-bit words.
constexpr int64_t ElementBytes = 4;

//===----------------------------------------------------------------------===//
// Linear analysis of indexing expressions
//===----------------------------------------------------------------------===//

/// A sum of coeff*dim terms plus a constant: the normal form of every
/// indexing expression we support (projections and strided convolutions).
struct LinearExpr {
  std::vector<std::pair<unsigned, int64_t>> Terms; // (dim, coeff)
  int64_t Constant = 0;
};

bool analyzeLinear(AffineExpr Expr, LinearExpr &Out, int64_t Scale = 1) {
  switch (Expr.getKind()) {
  case AffineExpr::Kind::Constant:
    Out.Constant += Scale * Expr.getConstantValue();
    return true;
  case AffineExpr::Kind::Dim:
    Out.Terms.emplace_back(Expr.getPosition(), Scale);
    return true;
  case AffineExpr::Kind::Add:
    return analyzeLinear(Expr.getLHS(), Out, Scale) &&
           analyzeLinear(Expr.getRHS(), Out, Scale);
  case AffineExpr::Kind::Mul: {
    AffineExpr LHS = Expr.getLHS(), RHS = Expr.getRHS();
    if (RHS.isConstant())
      return analyzeLinear(LHS, Out, Scale * RHS.getConstantValue());
    if (LHS.isConstant())
      return analyzeLinear(RHS, Out, Scale * LHS.getConstantValue());
    return false;
  }
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Per-dimension loop bookkeeping
//===----------------------------------------------------------------------===//

/// Everything the emitter knows about one kernel dimension. The plan-level
/// fields are constant; the region-local fields are reset per emitted
/// iteration-space box.
struct DimInfo {
  // Plan level.
  int64_t Extent = 0;     ///< full problem extent
  int64_t Tile = 1;       ///< accelerator tile (== Extent if not host-looped)
  int64_t Remainder = 0;  ///< partial-tile remainder (plan)
  int64_t MainExtent = 0; ///< extent covered by full tiles
  int64_t CpuTile = 0;    ///< CPU cache tile (0 = no CPU loop; main box only)

  // Region-local.
  int64_t Lower = 0;     ///< box lower bound for this dim
  int64_t Length = 0;    ///< box extent for this dim
  int64_t Footprint = 1; ///< tile footprint inside the box (<= Tile)
  bool HasAccelLoop = false;
  int AccelLoopDepth = -1; ///< depth among emitted accel loops
  Value AccelIV;
  Value CpuIV;
};

/// One segment of a dimension: either the full-tile main range or the
/// partial-tile remainder range.
struct DimSegment {
  int64_t Lower = 0;
  int64_t Length = 0;
  int64_t Footprint = 1;
  bool Partial = false;
};

/// One box of the decomposed iteration space.
struct RegionBox {
  std::vector<DimSegment> Segments; // one per kernel dim
  bool Host = false; ///< peel epilogue: execute on the host CPU
  bool hasPartial() const {
    for (const DimSegment &Segment : Segments)
      if (Segment.Partial)
        return true;
    return false;
  }
  /// A box with a zero-length segment covers no iteration-space points
  /// (e.g. the main box when an extent is below the engine tile).
  bool isEmpty() const {
    for (const DimSegment &Segment : Segments)
      if (Segment.Length == 0)
        return true;
    return false;
  }
};

/// A token placement decision.
struct TokenPlacement {
  const accel::OpcodeEntry *Entry = nullptr;
  unsigned Depth = 0; ///< number of enclosing accel loops
  bool Post = false;  ///< insert after (true) or before (false) the child
                      ///< loop at Depth
};

//===----------------------------------------------------------------------===//
// The emitter
//===----------------------------------------------------------------------===//

class AccelLoweringEmitter {
public:
  AccelLoweringEmitter(linalg::GenericOp Generic,
                       const LoweringOptions &Options, std::string &Error)
      : Generic(Generic), Op(Generic.getOperation()),
        Builder(Op->getContext()), Options(Options), Error(Error) {}

  LogicalResult run();

private:
  LogicalResult analyze();
  void chooseCpuTiles();
  std::vector<RegionBox> buildRegions() const;

  LogicalResult emitAccelRegion(const RegionBox &Box);
  LogicalResult emitHostRegion(const RegionBox &Box);

  LogicalResult placeTokens(const accel::FlowScope &Scope, unsigned Level,
                            std::vector<TokenPlacement> &Placements);
  unsigned innerStartOfLevel(unsigned Level) const;
  unsigned sendTokenDepth(const accel::OpcodeEntry &Entry) const;

  LogicalResult emitInitOpcodes();
  /// The accelerator-tile footprint of result dimension \p ResultDim of
  /// operand \p ArgIndex (what send_dim transmits). Always the plan's full
  /// tile: padded partial tiles ship at full size.
  int64_t operandDimFootprint(int64_t ArgIndex, unsigned ResultDim) const;
  void buildLoopNest();
  LogicalResult emitToken(const TokenPlacement &Placement);
  /// Emits the tile subview of \p ArgIndex visible at \p Depth. Also
  /// reports the subview's sizes and the full accelerator-tile sizes the
  /// engine expects; they differ exactly when the tile is partial.
  Value emitSubview(int64_t ArgIndex, unsigned Depth,
                    std::vector<int64_t> *ActualSizes = nullptr,
                    std::vector<int64_t> *FullSizes = nullptr);
  Value visibleIV(unsigned Dim, unsigned Depth, bool &CoveredByLoop) const;

  /// Stages a partial tile into a fresh zero-filled full-tile buffer
  /// (memref.alloc zero-fills) and returns the staging buffer to send.
  Value emitPadStaging(Value PartialTile,
                       const std::vector<int64_t> &ActualSizes,
                       const std::vector<int64_t> &FullSizes);
  /// Receives into a full-tile staging buffer and accumulates only the
  /// valid region back into \p PartialTile (result masking).
  Value emitMaskedRecv(Value PartialTile,
                       const std::vector<int64_t> &ActualSizes,
                       const std::vector<int64_t> &FullSizes, Value Offset);

  Value constantIndex(int64_t V) {
    return arith::ConstantOp::createIndex(Builder, V).getResult();
  }

  linalg::GenericOp Generic;
  Operation *Op;
  OpBuilder Builder;
  LoweringOptions Options;
  std::string &Error;

  // Analysis results.
  unsigned NumLoops = 0;
  TilingPlan Plan;
  std::vector<DimInfo> Dims;
  std::vector<unsigned> Permutation;
  const accel::OpcodeMapData *OpcodeMap = nullptr;
  const accel::OpcodeFlowData *Flow = nullptr;
  const accel::OpcodeFlowData *InitFlow = nullptr;
  accel::DmaInitConfig DmaConfig;

  /// Dim -> accel-loop depth map and the emitted loops (region-local).
  std::vector<unsigned> AccelLoopDims; // perm-ordered dims with accel loops
  std::vector<scf::ForOp> AccelLoops;
  std::vector<scf::ForOp> CpuLoops;

  /// Per-scope-level maximum send-token depth (for recv/literal placement).
  std::vector<unsigned> LevelSendDepth;

  /// Saved insertion state per (depth, post) while emitting tokens. The
  /// running offset chains consecutive tokens of a slot into one batched
  /// DMA transfer (paper Sec. III-A: "computing the total length and
  /// executing a single send").
  struct SlotState {
    OpBuilder::InsertPoint Point;
    Value ChainOffset;
  };
  std::map<std::pair<unsigned, bool>, SlotState> Points;
};

LogicalResult AccelLoweringEmitter::analyze() {
  NumLoops = Generic.getNumLoops();

  auto AttachedPlan = TilingPlan::fromOp(Op, Error);
  if (failed(AttachedPlan))
    return failure();
  Plan = std::move(*AttachedPlan);

  AffineMap PermMap =
      Op->getAttr(accel::PermutationMapAttrName).getAffineMapValue();
  OpcodeMap = &Op->getAttr(accel::OpcodeMapAttrName).getOpcodeMapValue();
  Flow = &Op->getAttr(accel::OpcodeFlowAttrName).getOpcodeFlowValue();
  if (Op->hasAttr(accel::InitOpcodesAttrName))
    InitFlow = &Op->getAttr(accel::InitOpcodesAttrName).getOpcodeFlowValue();
  DmaConfig = Op->getAttr(accel::DmaInitConfigAttrName).getDmaConfigValue();

  Dims.resize(NumLoops);
  for (unsigned D = 0; D < NumLoops; ++D) {
    const DimPlan &Planned = Plan.Dims[D];
    Dims[D].Extent = Planned.Extent;
    Dims[D].Tile = Planned.Tile;
    Dims[D].Remainder = Planned.Remainder;
    Dims[D].MainExtent = Planned.mainExtent();
  }
  Permutation.clear();
  for (unsigned R = 0; R < PermMap.getNumResults(); ++R)
    Permutation.push_back(PermMap.getResult(R).getPosition());

  chooseCpuTiles();
  return success();
}

void AccelLoweringEmitter::chooseCpuTiles() {
  if (!Options.EnableCpuTiling)
    return;
  // CPU cache tiling applies to the full-tile main region; partial-tile
  // boxes are a thin fringe that gains nothing from an extra loop level.
  // Working set of one CPU tile: sum over operands of the tile footprint
  // under candidate tile sizes (DESIGN.md Sec. 5.2).
  auto workingSetBytes = [&](const std::vector<int64_t> &Tiles) -> int64_t {
    int64_t Total = 0;
    for (unsigned I = 0, E = Op->getNumOperands(); I < E; ++I) {
      AffineMap Map = Generic.getIndexingMap(I);
      int64_t Elements = 1;
      for (const AffineExpr &Result : Map.getResults()) {
        LinearExpr Linear;
        if (!analyzeLinear(Result, Linear))
          return INT64_MAX;
        int64_t Size = 1;
        for (auto [Dim, Coeff] : Linear.Terms)
          Size += std::abs(Coeff) * (Tiles[Dim] - 1);
        Elements *= Size;
      }
      Total += Elements * ElementBytes;
    }
    return Total;
  };

  // Grow tiles by powers of two above the accelerator tile while the
  // working set fits in half the last-level cache and the tile divides the
  // main-region extent.
  std::vector<int64_t> Best(NumLoops);
  for (unsigned D = 0; D < NumLoops; ++D)
    Best[D] = Dims[D].Tile;
  for (int Step = 0; Step < 12; ++Step) {
    bool Changed = false;
    // Round-robin doubling keeps tiles roughly square.
    for (unsigned D = 0; D < NumLoops; ++D) {
      // No main region above one tile -> no room for a CPU loop level.
      if (Dims[D].MainExtent <= Dims[D].Tile)
        continue;
      int64_t Candidate = Best[D] * 2;
      if (Candidate > Dims[D].MainExtent)
        Candidate = Dims[D].MainExtent;
      if (Candidate <= Best[D] || Dims[D].MainExtent % Candidate != 0)
        continue;
      std::vector<int64_t> Trial = Best;
      Trial[D] = Candidate;
      if (workingSetBytes(Trial) * 2 <= Options.CacheBytes) {
        Best = Trial;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }
  for (unsigned D = 0; D < NumLoops; ++D) {
    // A CPU loop is only worthwhile strictly between tile and extent.
    if (Best[D] > Dims[D].Tile && Best[D] < Dims[D].MainExtent)
      Dims[D].CpuTile = Best[D];
  }
}

std::vector<RegionBox> AccelLoweringEmitter::buildRegions() const {
  // The all-full-tiles main box (for divisible problems: the whole space).
  RegionBox Main;
  Main.Segments.resize(NumLoops);
  for (unsigned D = 0; D < NumLoops; ++D)
    Main.Segments[D] = {/*Lower=*/0, Dims[D].MainExtent, Dims[D].Tile,
                        /*Partial=*/false};
  std::vector<RegionBox> Regions = {Main};
  if (!Plan.hasPartialTiles())
    return Regions;

  if (Plan.Mode == RemainderMode::Peel) {
    // Host epilogue boxes: for each partial dim d, the box where d is the
    // first dimension escaping the main region — dims before d stay in
    // their main range, dims after d run their full extent. The boxes are
    // disjoint and together cover exactly the peeled remainder.
    for (unsigned D = 0; D < NumLoops; ++D) {
      if (!Dims[D].Remainder)
        continue;
      RegionBox Box;
      Box.Host = true;
      Box.Segments.resize(NumLoops);
      for (unsigned I = 0; I < NumLoops; ++I) {
        if (I < D)
          Box.Segments[I] = {0, Dims[I].MainExtent, Dims[I].Tile, false};
        else if (I == D)
          Box.Segments[I] = {Dims[I].MainExtent, Dims[I].Remainder,
                             Dims[I].Remainder, true};
        else
          Box.Segments[I] = {0, Dims[I].Extent, Dims[I].Tile, false};
      }
      Regions.push_back(Box);
    }
    return Regions;
  }

  // Pad: the cartesian product of {main, partial} segments per dimension.
  // Every box with at least one partial segment runs on the accelerator
  // with zero-padded staging tiles; static subview sizes stay uniform
  // inside each box.
  std::vector<unsigned> PartialDims;
  for (unsigned D = 0; D < NumLoops; ++D)
    if (Dims[D].Remainder)
      PartialDims.push_back(D);
  for (uint64_t Mask = 1; Mask < (uint64_t(1) << PartialDims.size());
       ++Mask) {
    RegionBox Box = Main;
    for (size_t Bit = 0; Bit < PartialDims.size(); ++Bit) {
      if (!(Mask & (uint64_t(1) << Bit)))
        continue;
      unsigned D = PartialDims[Bit];
      Box.Segments[D] = {Dims[D].MainExtent, Dims[D].Remainder,
                         Dims[D].Remainder, true};
    }
    Regions.push_back(Box);
  }
  return Regions;
}

int64_t AccelLoweringEmitter::operandDimFootprint(int64_t ArgIndex,
                                                  unsigned ResultDim) const {
  AffineMap Map = Generic.getIndexingMap(ArgIndex);
  assert(ResultDim < Map.getNumResults() && "send_dim result out of range");
  LinearExpr Linear;
  [[maybe_unused]] bool Ok = analyzeLinear(Map.getResult(ResultDim), Linear);
  assert(Ok && "non-linear indexing expression in send_dim");
  int64_t Size = 1;
  for (auto [Dim, Coeff] : Linear.Terms)
    Size += std::abs(Coeff) * (Dims[Dim].Tile - 1);
  return Size;
}

unsigned AccelLoweringEmitter::sendTokenDepth(
    const accel::OpcodeEntry &Entry) const {
  unsigned Depth = 0;
  for (const OpcodeAction &Action : Entry.Actions) {
    if (Action.ActionKind != OpcodeAction::Kind::Send)
      continue;
    AffineMap Map = Generic.getIndexingMap(Action.ArgIndex);
    for (unsigned Dim : Map.getAllDimPositions())
      if (Dims[Dim].HasAccelLoop)
        Depth = std::max(Depth,
                         static_cast<unsigned>(Dims[Dim].AccelLoopDepth) + 1);
  }
  return Depth;
}

unsigned AccelLoweringEmitter::innerStartOfLevel(unsigned Level) const {
  // First loop depth owned by scopes deeper than `Level`: one past the
  // deepest send of levels <= Level, or the innermost depth if those
  // levels transfer nothing.
  if (Level < LevelSendDepth.size() && LevelSendDepth[Level] > 0)
    return LevelSendDepth[Level];
  return static_cast<unsigned>(AccelLoops.size());
}

LogicalResult AccelLoweringEmitter::placeTokens(
    const accel::FlowScope &Scope, unsigned Level,
    std::vector<TokenPlacement> &Placements) {
  bool SeenNestedScope = false;
  for (const accel::FlowItem &Item : Scope.Items) {
    if (Item.isScope()) {
      if (failed(placeTokens(*Item.Scope, Level + 1, Placements)))
        return failure();
      SeenNestedScope = true;
      continue;
    }
    const accel::OpcodeEntry *Entry = OpcodeMap->lookup(Item.Token);
    if (!Entry) {
      Error = "flow token '" + Item.Token + "' missing from opcode_map";
      return failure();
    }
    TokenPlacement Placement;
    Placement.Entry = Entry;
    Placement.Post = SeenNestedScope;

    bool HasSend = false, HasRecv = false;
    for (const OpcodeAction &Action : Entry->Actions) {
      HasSend |= Action.ActionKind == OpcodeAction::Kind::Send;
      HasRecv |= Action.ActionKind == OpcodeAction::Kind::Recv;
    }

    if (HasSend) {
      Placement.Depth = sendTokenDepth(*Entry);
    } else if (HasRecv) {
      // Hoisted receives cover the loops owned by deeper scopes: only
      // dimensions of outer loops act as tile offsets.
      unsigned Limit = innerStartOfLevel(Level);
      unsigned Depth = 0;
      for (const OpcodeAction &Action : Entry->Actions) {
        if (Action.ActionKind != OpcodeAction::Kind::Recv)
          continue;
        AffineMap Map = Generic.getIndexingMap(Action.ArgIndex);
        for (unsigned Dim : Map.getAllDimPositions()) {
          if (!Dims[Dim].HasAccelLoop)
            continue;
          unsigned LoopDepth =
              static_cast<unsigned>(Dims[Dim].AccelLoopDepth);
          if (LoopDepth < Limit)
            Depth = std::max(Depth, LoopDepth + 1);
        }
      }
      // A receive never hoists above sends of its own scope: in a flat Ns
      // flow (sA sB cC rC) the rC stays innermost alongside the sends;
      // only when the inner scope owns the reduction loops (Cs / conv-Os)
      // does the receive land outside them.
      if (Level < LevelSendDepth.size())
        Depth = std::max(Depth, LevelSendDepth[Level]);
      Placement.Depth = Depth;
    } else {
      // Literal/config-only tokens (e.g. cC) run at their scope's compute
      // depth: alongside that scope's deepest sends, or innermost.
      unsigned Depth = 0;
      if (Level < LevelSendDepth.size())
        Depth = LevelSendDepth[Level];
      Placement.Depth =
          Depth ? Depth : static_cast<unsigned>(AccelLoops.size());
    }
    Placements.push_back(Placement);
  }
  return success();
}

void AccelLoweringEmitter::buildLoopNest() {
  // CPU-level loops first (permutation order; main box only).
  for (unsigned Dim : Permutation) {
    if (!Dims[Dim].CpuTile)
      continue;
    scf::ForOp Loop = scf::ForOp::create(Builder, constantIndex(0),
                                         constantIndex(Dims[Dim].Length),
                                         constantIndex(Dims[Dim].CpuTile));
    Dims[Dim].CpuIV = Loop.getInductionVar();
    CpuLoops.push_back(Loop);
    Builder.setInsertionPoint(Loop.getBodyTerminator());
  }
  // Accelerator-level loops.
  for (unsigned Dim : AccelLoopDims) {
    Value LowerBound, UpperBound;
    if (Dims[Dim].CpuTile) {
      LowerBound = Dims[Dim].CpuIV;
      UpperBound = arith::BinaryOp::create(Builder, "arith.addi",
                                           Dims[Dim].CpuIV,
                                           constantIndex(Dims[Dim].CpuTile))
                       .getResult();
    } else {
      LowerBound = constantIndex(Dims[Dim].Lower);
      UpperBound = constantIndex(Dims[Dim].Lower + Dims[Dim].Length);
    }
    scf::ForOp Loop = scf::ForOp::create(Builder, LowerBound, UpperBound,
                                         constantIndex(Dims[Dim].Footprint));
    Dims[Dim].AccelIV = Loop.getInductionVar();
    AccelLoops.push_back(Loop);
    Builder.setInsertionPoint(Loop.getBodyTerminator());
  }
}

Value AccelLoweringEmitter::visibleIV(unsigned Dim, unsigned Depth,
                                      bool &CoveredByLoop) const {
  const DimInfo &Info = Dims[Dim];
  CoveredByLoop = false;
  if (Info.HasAccelLoop &&
      static_cast<unsigned>(Info.AccelLoopDepth) < Depth)
    return Info.AccelIV;
  if (Info.HasAccelLoop) {
    // Hoisted over this accel loop: the tile covers its whole range.
    CoveredByLoop = true;
    return Info.CpuIV; // may be null (covers the box range from Lower)
  }
  return Value(); // No loop: tile == box segment, offset = box lower.
}

Value AccelLoweringEmitter::emitSubview(int64_t ArgIndex, unsigned Depth,
                                        std::vector<int64_t> *ActualSizes,
                                        std::vector<int64_t> *FullSizes) {
  Value Operand = Op->getOperand(ArgIndex);
  MemRefType Ty = Operand.getType().cast<MemRefType>();
  AffineMap Map = Generic.getIndexingMap(ArgIndex);

  std::vector<Value> Offsets;
  std::vector<int64_t> Sizes;
  for (unsigned R = 0; R < Map.getNumResults(); ++R) {
    LinearExpr Linear;
    [[maybe_unused]] bool Ok = analyzeLinear(Map.getResult(R), Linear);
    assert(Ok && "non-linear indexing expression");

    // Offset = const + sum coeff * visible-IV; Size = 1 + sum
    // coeff * (per-dim footprint - 1). The full size replaces partial
    // footprints with the plan's full tile (what the engine expects).
    Value Offset;
    int64_t StaticOffset = Linear.Constant;
    int64_t Size = 1, FullSize = 1;
    for (auto [Dim, Coeff] : Linear.Terms) {
      bool Covered = false;
      Value IV = visibleIV(Dim, Depth, Covered);
      int64_t Footprint;
      if (Covered)
        Footprint = Dims[Dim].CpuTile ? Dims[Dim].CpuTile : Dims[Dim].Length;
      else
        Footprint = Dims[Dim].Footprint;
      Size += std::abs(Coeff) * (Footprint - 1);
      // Covered tiles stream tile-by-tile from the engine's perspective;
      // only uncovered partial footprints need padding to the full tile.
      FullSize +=
          std::abs(Coeff) * ((Covered ? Footprint : Dims[Dim].Tile) - 1);
      if (!IV) {
        // No loop (or a covered dim without a CPU loop): the tile starts
        // at the box's lower corner.
        StaticOffset += Coeff * Dims[Dim].Lower;
        continue;
      }
      Value Term = IV;
      if (Coeff != 1)
        Term = arith::BinaryOp::create(Builder, "arith.muli", IV,
                                       constantIndex(Coeff))
                   .getResult();
      Offset = Offset ? arith::BinaryOp::create(Builder, "arith.addi",
                                                Offset, Term)
                            .getResult()
                      : Term;
    }
    if (StaticOffset != 0 || !Offset) {
      Value Const = constantIndex(StaticOffset);
      Offset = Offset ? arith::BinaryOp::create(Builder, "arith.addi",
                                                Offset, Const)
                            .getResult()
                      : Const;
    }
    Offsets.push_back(Offset);
    Sizes.push_back(std::min(Size, Ty.getDimSize(R)));
    if (FullSizes)
      FullSizes->push_back(FullSize);
  }
  if (ActualSizes)
    *ActualSizes = Sizes;
  return memref::SubViewOp::create(Builder, Operand, Offsets, Sizes)
      .getResult();
}

Value AccelLoweringEmitter::emitPadStaging(
    Value PartialTile, const std::vector<int64_t> &ActualSizes,
    const std::vector<int64_t> &FullSizes) {
  MemRefType TileTy = PartialTile.getType().cast<MemRefType>();
  MemRefType StagingTy = MemRefType::get(Builder.getContext(), FullSizes,
                                         TileTy.getElementType());
  // memref.alloc zero-fills, so the elements beyond the valid region are
  // the neutral zeros the accelerator's multiply-accumulate ignores.
  Value Staging = memref::AllocOp::create(Builder, StagingTy).getResult();
  std::vector<Value> Zeros(FullSizes.size(), constantIndex(0));
  Value Dest =
      memref::SubViewOp::create(Builder, Staging, Zeros, ActualSizes)
          .getResult();
  memref::CopyOp::create(Builder, PartialTile, Dest);
  return Staging;
}

Value AccelLoweringEmitter::emitMaskedRecv(
    Value PartialTile, const std::vector<int64_t> &ActualSizes,
    const std::vector<int64_t> &FullSizes, Value Offset) {
  MemRefType TileTy = PartialTile.getType().cast<MemRefType>();
  Type ElemTy = TileTy.getElementType();
  MemRefType StagingTy =
      MemRefType::get(Builder.getContext(), FullSizes, ElemTy);
  Value Staging = memref::AllocOp::create(Builder, StagingTy).getResult();
  Value Result =
      accel::RecvOp::create(Builder, Staging, Offset, "overwrite")
          .getResult();
  // Mask: accumulate only the valid region back into the real tile.
  std::vector<Value> Zeros(FullSizes.size(), constantIndex(0));
  Value Valid =
      memref::SubViewOp::create(Builder, Staging, Zeros, ActualSizes)
          .getResult();
  unsigned Rank = ActualSizes.size();
  const char *AddName = ElemTy.isFloat() ? "arith.addf" : "arith.addi";
  linalg::GenericOp::create(
      Builder, {Valid}, {PartialTile},
      {AffineMap::getMultiDimIdentity(Rank),
       AffineMap::getMultiDimIdentity(Rank)},
      std::vector<std::string>(Rank, linalg::IteratorParallel),
      [&](OpBuilder &B, const std::vector<Value> &Args) {
        Value Sum =
            arith::BinaryOp::create(B, AddName, Args[0], Args[1]).getResult();
        linalg::YieldOp::create(B, {Sum});
      });
  memref::DeallocOp::create(Builder, Staging);
  return Result;
}

LogicalResult AccelLoweringEmitter::emitToken(
    const TokenPlacement &Placement) {
  unsigned Depth = Placement.Depth;
  unsigned NumAccelLoops = AccelLoops.size();

  // Restore (or initialize) the insertion point for this placement slot.
  auto Key = std::make_pair(Depth, Placement.Post);
  auto It = Points.find(Key);
  if (It != Points.end()) {
    Builder.restoreInsertionPoint(It->second.Point);
  } else if (Depth == NumAccelLoops) {
    // Innermost: before the innermost terminator (or at the generic's
    // position when there are no loops at all).
    if (NumAccelLoops > 0)
      Builder.setInsertionPoint(AccelLoops.back().getBodyTerminator());
    else if (!CpuLoops.empty())
      Builder.setInsertionPoint(CpuLoops.back().getBodyTerminator());
    // else: Builder already sits at the generic's position.
  } else if (!Placement.Post) {
    Builder.setInsertionPoint(AccelLoops[Depth].getOperation());
  } else {
    Builder.setInsertionPointAfter(AccelLoops[Depth].getOperation());
  }

  // Emit the token's actions with offset chaining. Consecutive tokens in
  // the same slot continue the chain, so e.g. the whole v3 Ns iteration
  // (sA sB cC rC-opcode) ships as one batched DMA transfer before the
  // receive.
  Value Offset = It != Points.end() && It->second.ChainOffset
                     ? It->second.ChainOffset
                     : constantIndex(0);
  for (const OpcodeAction &Action : Placement.Entry->Actions) {
    switch (Action.ActionKind) {
    case OpcodeAction::Kind::SendLiteral:
      Offset = accel::SendLiteralOp::create(Builder, Action.Literal, Offset)
                   .getResult();
      break;
    case OpcodeAction::Kind::Send: {
      std::vector<int64_t> ActualSizes, FullSizes;
      Value Tile =
          emitSubview(Action.ArgIndex, Depth, &ActualSizes, &FullSizes);
      Value Staging;
      if (ActualSizes != FullSizes)
        Tile = Staging = emitPadStaging(Tile, ActualSizes, FullSizes);
      Offset = accel::SendOp::create(Builder, Tile, Offset).getResult();
      if (Staging)
        memref::DeallocOp::create(Builder, Staging);
      break;
    }
    case OpcodeAction::Kind::SendDim: {
      // send_dim transmits the per-kernel tile footprint of an operand
      // dimension: the conv accelerator's `rst` receives iC and fH (full
      // extents, Fig. 15a); v4's `cfg` receives the selected tM/tK/tN.
      int64_t Arg = Action.ArgIndex >= 0 ? Action.ArgIndex : 0;
      Operation *SendDim =
          accel::SendDimOp::create(Builder, Op->getOperand(Arg),
                                   Action.DimIndex, Offset)
              .getOperation();
      SendDim->setAttr(
          "static_size",
          Attribute::getInteger(operandDimFootprint(
              Arg, static_cast<unsigned>(Action.DimIndex))));
      Offset = SendDim->getResult(0);
      break;
    }
    case OpcodeAction::Kind::SendIdx: {
      unsigned Dim = static_cast<unsigned>(Action.DimIndex);
      if (Dim >= NumLoops) {
        Error = "send_idx dimension out of range";
        return failure();
      }
      bool Covered = false;
      Value IV = visibleIV(Dim, Depth, Covered);
      if (!IV)
        IV = constantIndex(Dims[Dim].Lower);
      Offset = accel::SendIdxOp::create(Builder, IV, Offset).getResult();
      break;
    }
    case OpcodeAction::Kind::Recv: {
      std::vector<int64_t> ActualSizes, FullSizes;
      Value Tile =
          emitSubview(Action.ArgIndex, Depth, &ActualSizes, &FullSizes);
      if (ActualSizes != FullSizes)
        Offset = emitMaskedRecv(Tile, ActualSizes, FullSizes, Offset);
      else
        Offset = accel::RecvOp::create(Builder, Tile, Offset, "accumulate")
                     .getResult();
      break;
    }
    }
  }
  // A receive consumed the in-flight batch; later tokens start a fresh
  // chain at offset 0.
  bool EndsWithRecv = false;
  for (const OpcodeAction &Action : Placement.Entry->Actions)
    EndsWithRecv |= Action.ActionKind == OpcodeAction::Kind::Recv;
  Points[Key] = {Builder.saveInsertionPoint(),
                 EndsWithRecv ? Value() : Offset};
  return success();
}

LogicalResult AccelLoweringEmitter::emitInitOpcodes() {
  if (!InitFlow)
    return success();
  for (const std::string &Token : InitFlow->allTokens()) {
    const accel::OpcodeEntry *Entry = OpcodeMap->lookup(Token);
    if (!Entry) {
      Error = "init opcode '" + Token + "' missing from opcode_map";
      return failure();
    }
    Value Offset = constantIndex(0);
    for (const OpcodeAction &Action : Entry->Actions) {
      switch (Action.ActionKind) {
      case OpcodeAction::Kind::SendLiteral:
        Offset = accel::SendLiteralOp::create(Builder, Action.Literal,
                                              Offset)
                     .getResult();
        break;
      case OpcodeAction::Kind::SendDim: {
        int64_t Arg = Action.ArgIndex >= 0 ? Action.ArgIndex : 0;
        Operation *SendDim =
            accel::SendDimOp::create(Builder, Op->getOperand(Arg),
                                     Action.DimIndex, Offset)
                .getOperation();
        SendDim->setAttr(
            "static_size",
            Attribute::getInteger(operandDimFootprint(
                Arg, static_cast<unsigned>(Action.DimIndex))));
        Offset = SendDim->getResult(0);
        break;
      }
      default:
        Error = "init_opcodes may only use send_literal and send_dim";
        return failure();
      }
    }
  }
  return success();
}

LogicalResult AccelLoweringEmitter::emitAccelRegion(const RegionBox &Box) {
  // Region-local state: bounds, footprints and loop decisions.
  AccelLoopDims.clear();
  AccelLoops.clear();
  CpuLoops.clear();
  LevelSendDepth.clear();
  Points.clear();
  bool Partial = Box.hasPartial();
  for (unsigned D = 0; D < NumLoops; ++D) {
    const DimSegment &Segment = Box.Segments[D];
    DimInfo &Info = Dims[D];
    Info.Lower = Segment.Lower;
    Info.Length = Segment.Length;
    Info.Footprint = Segment.Footprint;
    Info.HasAccelLoop = false;
    Info.AccelLoopDepth = -1;
    Info.AccelIV = Value();
    Info.CpuIV = Value();
    // CPU cache tiling only applies to the all-full-tiles main box.
    if (Partial)
      Info.CpuTile = 0;
  }
  // Decide which dims get accel loops, in permutation order.
  for (unsigned Dim : Permutation) {
    int64_t LoopExtent =
        Dims[Dim].CpuTile ? Dims[Dim].CpuTile : Dims[Dim].Length;
    if (Dims[Dim].Footprint < LoopExtent) {
      Dims[Dim].HasAccelLoop = true;
      Dims[Dim].AccelLoopDepth = static_cast<int>(AccelLoopDims.size());
      AccelLoopDims.push_back(Dim);
    }
  }

  Builder.setInsertionPoint(Op);
  buildLoopNest();

  // Pre-compute per-scope-level deepest send depth (controls hoisted-recv
  // and literal-token placement).
  {
    LevelSendDepth.clear();
    std::function<void(const accel::FlowScope &, unsigned)> Visit =
        [&](const accel::FlowScope &Scope, unsigned Level) {
          if (LevelSendDepth.size() <= Level)
            LevelSendDepth.resize(Level + 1, 0);
          for (const accel::FlowItem &Item : Scope.Items) {
            if (Item.isScope()) {
              Visit(*Item.Scope, Level + 1);
              continue;
            }
            if (const accel::OpcodeEntry *Entry =
                    OpcodeMap->lookup(Item.Token))
              LevelSendDepth[Level] =
                  std::max(LevelSendDepth[Level], sendTokenDepth(*Entry));
          }
        };
    Visit(Flow->Root, 0);
    // Outer levels bound inner levels from below.
    for (size_t L = 1; L < LevelSendDepth.size(); ++L)
      LevelSendDepth[L] = std::max(LevelSendDepth[L], LevelSendDepth[L - 1]);
  }

  std::vector<TokenPlacement> Placements;
  if (failed(placeTokens(Flow->Root, 0, Placements)))
    return failure();
  for (const TokenPlacement &Placement : Placements)
    if (failed(emitToken(Placement)))
      return failure();
  return success();
}

LogicalResult AccelLoweringEmitter::emitHostRegion(const RegionBox &Box) {
  // Peel epilogue: the remainder box executes as a residual linalg.generic
  // on subviews of the operands, interpreted on the host CPU.
  Builder.setInsertionPoint(Op);
  unsigned NumInputs = Generic.getNumInputs();
  std::vector<Value> Inputs, Outputs;
  for (unsigned I = 0, E = Op->getNumOperands(); I < E; ++I) {
    AffineMap Map = Generic.getIndexingMap(I);
    std::vector<Value> Offsets;
    std::vector<int64_t> Sizes;
    for (unsigned R = 0; R < Map.getNumResults(); ++R) {
      LinearExpr Linear;
      if (!analyzeLinear(Map.getResult(R), Linear)) {
        Error = "non-linear indexing expression in peel epilogue";
        return failure();
      }
      // The subview origin absorbs the box lower corner; the map's own
      // constant stays inside the cloned generic's indexing map.
      int64_t Offset = 0, Size = 1;
      for (auto [Dim, Coeff] : Linear.Terms) {
        Offset += Coeff * Box.Segments[Dim].Lower;
        Size += std::abs(Coeff) * (Box.Segments[Dim].Length - 1);
      }
      Offsets.push_back(constantIndex(Offset));
      Sizes.push_back(Size);
    }
    Value View =
        memref::SubViewOp::create(Builder, Op->getOperand(I), Offsets, Sizes)
            .getResult();
    if (I < NumInputs)
      Inputs.push_back(View);
    else
      Outputs.push_back(View);
  }

  // Clone the payload into a fresh generic with identical traits.
  Block &OrigBody = Generic.getBody();
  linalg::GenericOp::create(
      Builder, Inputs, Outputs, Generic.getIndexingMaps(),
      Generic.getIteratorTypes(),
      [&](OpBuilder &B, const std::vector<Value> &Args) {
        std::map<detail::ValueImpl *, Value> Mapping;
        for (unsigned I = 0; I < OrigBody.getNumArguments(); ++I)
          Mapping[OrigBody.getArgument(I).getImpl()] = Args[I];
        for (Operation *BodyOp : OrigBody.getOperations()) {
          std::vector<Value> Operands;
          for (Value Operand : BodyOp->getOperands()) {
            auto Found = Mapping.find(Operand.getImpl());
            Operands.push_back(Found != Mapping.end() ? Found->second
                                                      : Operand);
          }
          std::vector<Type> ResultTypes;
          for (unsigned R = 0; R < BodyOp->getNumResults(); ++R)
            ResultTypes.push_back(BodyOp->getResult(R).getType());
          Operation *Clone = B.create(BodyOp->getName(), Operands,
                                      ResultTypes, BodyOp->getAttrs());
          for (unsigned R = 0; R < BodyOp->getNumResults(); ++R)
            Mapping[BodyOp->getResult(R).getImpl()] = Clone->getResult(R);
        }
      });
  return success();
}

LogicalResult AccelLoweringEmitter::run() {
  if (failed(analyze()))
    return failure();

  // dma_init + init opcodes go right before the loop nest (executed once
  // per kernel; dma_init itself is idempotent in the runtime).
  Builder.setInsertionPoint(Op);
  accel::DmaInitOp::create(Builder, DmaConfig);
  if (failed(emitInitOpcodes()))
    return failure();

  // Emit every box of the (possibly decomposed) iteration space: the main
  // full-tile region first, then the partial-tile fringe. Empty boxes
  // (an extent below the engine tile leaves no full-tile range) vanish.
  for (const RegionBox &Box : buildRegions()) {
    if (Box.isEmpty())
      continue;
    if (Box.Host ? failed(emitHostRegion(Box))
                 : failed(emitAccelRegion(Box)))
      return failure();
  }

  Op->erase();
  return success();
}

} // namespace

LogicalResult transforms::lowerToAccel(func::FuncOp Func,
                                       const LoweringOptions &Options,
                                       std::string &Error) {
  std::vector<Operation *> Annotated;
  Func.getOperation()->walk([&](Operation *Op) {
    if (isa_op<linalg::GenericOp>(Op) &&
        Op->hasAttr(accel::OpcodeFlowAttrName))
      Annotated.push_back(Op);
  });
  for (Operation *Op : Annotated) {
    AccelLoweringEmitter Emitter(linalg::GenericOp(Op), Options, Error);
    if (failed(Emitter.run()))
      return failure();
  }
  return success();
}
