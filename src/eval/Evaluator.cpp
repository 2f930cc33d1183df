//===- Evaluator.cpp - MiniC execution and cost evaluation -------------------===//

#include "src/eval/Evaluator.h"

#include "src/analysis/Affine.h"
#include "src/analysis/Dependence.h"
#include "src/analysis/ParallelSafety.h"
#include "src/cir/AstUtils.h"
#include "src/support/Hashing.h"
#include "src/support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <queue>

namespace locus {
namespace eval {

using namespace cir;

namespace detail {

//===----------------------------------------------------------------------===//
// Compiled representation
//===----------------------------------------------------------------------===//

enum class EK : uint8_t {
  ConstI,
  ConstD,
  VarI,
  VarD,
  LoadI,   ///< int array element
  LoadD,   ///< double array element
  BinI,    ///< both operands int, result int
  BinD,    ///< double arithmetic/comparison (comparison yields 0/1 as double)
  CmpD,    ///< double comparison, result int
  NegI,
  NegD,
  NotI,
  CastID,  ///< int operand used in a double context
  MinI,
  MaxI,
  MinD,
  MaxD,
  Rtclock, ///< harness intrinsic; evaluates to 0.0
};

struct CE {
  EK Kind = EK::ConstI;
  BinOp Op = BinOp::Add;
  int64_t ConstInt = 0;
  double ConstDouble = 0;
  int Slot = -1; ///< scalar slot or array id
  std::vector<CE> Kids;

  bool isDouble() const {
    switch (Kind) {
    case EK::ConstD:
    case EK::VarD:
    case EK::LoadD:
    case EK::BinD:
    case EK::NegD:
    case EK::CastID:
    case EK::MinD:
    case EK::MaxD:
    case EK::Rtclock:
      return true;
    default:
      return false;
    }
  }
};

enum class SK : uint8_t { Block, For, If, AssignScalar, AssignArray, Nop };

/// OpenMP schedule kinds recognized on loops.
enum class Sched : uint8_t { None, Default, Static, Dynamic };

struct CS {
  SK Kind = SK::Nop;

  // For
  int Slot = -1;
  CE Init;
  CE BoundExcl; ///< exclusive upper bound (Le bounds get +1 at compile time)
  int64_t Step = 1;
  std::vector<CS> Body;
  Sched Par = Sched::None;
  int Chunk = 0;
  double VecScale = 1.0; ///< <1 when a SIMD pragma applies

  // If
  CE Cond;
  std::vector<CS> Else;

  // Assign
  cir::AssignOp Op = cir::AssignOp::Set;
  bool TargetDouble = false;
  std::vector<CE> Indices;
  CE Rhs;
};

struct ArrayInfo {
  std::string Name;
  ElemType Elem = ElemType::Double;
  std::vector<int64_t> Dims;
  std::vector<int64_t> Strides;
  int64_t TotalElems = 0;
  uint64_t Base = 0;
};

struct CompiledProgram {
  const cir::Program *Prog = nullptr;
  EvalOptions Opts;

  // Symbols.
  std::map<std::string, int> ScalarSlots;
  std::vector<ElemType> SlotTypes;
  std::map<std::string, int> ArrayIds;
  std::vector<ArrayInfo> Arrays;

  // Initial state.
  std::vector<std::vector<double>> InitDouble; ///< per array (doubles)
  std::vector<std::vector<int64_t>> InitInt;   ///< per array (ints)
  std::vector<double> InitScalarD;
  std::vector<int64_t> InitScalarI;

  std::vector<CS> Body;
  std::string CompileError;
  /// Compile-time model notes surfaced on every RunResult (e.g. OpenMP
  /// speedup not modeled because the loop's safety is unproven).
  std::vector<std::string> Warnings;

  // ---- execution state ----
  std::vector<double> ScalarD;
  std::vector<int64_t> ScalarI;
  std::vector<std::vector<double>> DataD;
  std::vector<std::vector<int64_t>> DataI;
  std::unique_ptr<machine::CacheSim> Cache;
  double Cycles = 0;
  double ArithScale = 1.0;
  int L1HitLatency = 4;
  bool InParallel = false;
  uint64_t Iterations = 0;
  uint64_t ArithOps = 0, MemReads = 0, MemWrites = 0;
  bool Failed = false;
  std::string RunError;

  //===--------------------------------------------------------------------===//
  // Compilation
  //===--------------------------------------------------------------------===//

  void fail(const std::string &Message) {
    if (CompileError.empty())
      CompileError = Message;
  }

  int scalarSlot(const std::string &Name, ElemType Elem, bool Declare) {
    auto It = ScalarSlots.find(Name);
    if (It != ScalarSlots.end())
      return It->second;
    if (!Declare) {
      // Implicitly declared (e.g. a loop variable with no decl): int.
      Elem = ElemType::Int;
    }
    int Slot = static_cast<int>(SlotTypes.size());
    ScalarSlots[Name] = Slot;
    SlotTypes.push_back(Elem);
    return Slot;
  }

  void declareArray(const DeclStmt &D) {
    if (ArrayIds.count(D.Name)) {
      fail("array redeclared: " + D.Name);
      return;
    }
    ArrayInfo Info;
    Info.Name = D.Name;
    Info.Elem = D.Elem;
    Info.Dims = D.Dims;
    Info.Strides.assign(D.Dims.size(), 1);
    int64_t Total = 1;
    for (size_t I = D.Dims.size(); I-- > 0;) {
      Info.Strides[I] = Total;
      Total *= D.Dims[I];
    }
    Info.TotalElems = Total;
    int Id = static_cast<int>(Arrays.size());
    ArrayIds[D.Name] = Id;
    Arrays.push_back(std::move(Info));
  }

  /// Deterministic default contents so checksums are reproducible.
  void buildInitialData() {
    uint64_t Base = 4096;
    InitDouble.resize(Arrays.size());
    InitInt.resize(Arrays.size());
    for (size_t Id = 0; Id < Arrays.size(); ++Id) {
      ArrayInfo &A = Arrays[Id];
      A.Base = Base;
      Base += static_cast<uint64_t>(A.TotalElems) * 8 + 128;
      Base = (Base + 63) & ~63ULL;
      if (A.Elem == ElemType::Double) {
        auto &V = InitDouble[Id];
        V.resize(static_cast<size_t>(A.TotalElems));
        for (size_t I = 0; I < V.size(); ++I)
          V[I] = static_cast<double>((I * 7 + 3) % 1021) / 1021.0;
      } else {
        auto &V = InitInt[Id];
        V.resize(static_cast<size_t>(A.TotalElems));
        for (size_t I = 0; I < V.size(); ++I)
          V[I] = static_cast<int64_t>(I % 13);
      }
    }
    InitScalarD.assign(SlotTypes.size(), 0.0);
    InitScalarI.assign(SlotTypes.size(), 0);
    // Named scalars get stable, nonzero defaults derived from their names so
    // kernels multiplying by alpha/beta do not collapse to zero.
    for (const auto &[Name, Slot] : ScalarSlots) {
      uint64_t H = fnv1a(Name);
      if (SlotTypes[static_cast<size_t>(Slot)] == ElemType::Double)
        InitScalarD[static_cast<size_t>(Slot)] =
            0.5 + static_cast<double>(H % 1000) / 1000.0;
    }
  }

  CE compileExpr(const Expr &E) {
    CE Out;
    switch (E.kind()) {
    case ExprKind::IntLit:
      Out.Kind = EK::ConstI;
      Out.ConstInt = cast<IntLit>(&E)->Value;
      return Out;
    case ExprKind::FloatLit:
      Out.Kind = EK::ConstD;
      Out.ConstDouble = cast<FloatLit>(&E)->Value;
      return Out;
    case ExprKind::VarRef: {
      const std::string &Name = cast<VarRef>(&E)->Name;
      if (ArrayIds.count(Name)) {
        fail("array " + Name + " used without subscripts");
        return Out;
      }
      int Slot = scalarSlot(Name, ElemType::Int, /*Declare=*/false);
      Out.Slot = Slot;
      Out.Kind = SlotTypes[static_cast<size_t>(Slot)] == ElemType::Double
                     ? EK::VarD
                     : EK::VarI;
      return Out;
    }
    case ExprKind::ArrayRef: {
      const auto *A = cast<ArrayRef>(&E);
      auto It = ArrayIds.find(A->Name);
      if (It == ArrayIds.end()) {
        fail("unknown array: " + A->Name);
        return Out;
      }
      const ArrayInfo &Info = Arrays[static_cast<size_t>(It->second)];
      if (A->Indices.size() != Info.Dims.size()) {
        fail("array " + A->Name + " has " + std::to_string(Info.Dims.size()) +
             " dimensions but is subscripted with " +
             std::to_string(A->Indices.size()));
        return Out;
      }
      Out.Kind = Info.Elem == ElemType::Double ? EK::LoadD : EK::LoadI;
      Out.Slot = It->second;
      for (const auto &I : A->Indices) {
        CE Idx = compileExpr(*I);
        if (Idx.isDouble()) {
          fail("array subscript of " + A->Name + " has floating type");
          return Out;
        }
        Out.Kids.push_back(std::move(Idx));
      }
      return Out;
    }
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      CE Operand = compileExpr(*U->Operand);
      if (U->Op == UnOp::Not) {
        if (Operand.isDouble()) {
          fail("logical not applied to a floating value");
          return Out;
        }
        Out.Kind = EK::NotI;
      } else {
        Out.Kind = Operand.isDouble() ? EK::NegD : EK::NegI;
      }
      Out.Kids.push_back(std::move(Operand));
      return Out;
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(&E);
      CE L = compileExpr(*B->Lhs);
      CE R = compileExpr(*B->Rhs);
      bool AnyDouble = L.isDouble() || R.isDouble();
      bool IsCompare = B->Op == BinOp::Lt || B->Op == BinOp::Le ||
                       B->Op == BinOp::Gt || B->Op == BinOp::Ge ||
                       B->Op == BinOp::Eq || B->Op == BinOp::Ne;
      bool IsLogic = B->Op == BinOp::And || B->Op == BinOp::Or;
      if (B->Op == BinOp::Mod && AnyDouble) {
        fail("modulo on floating values");
        return Out;
      }
      if (AnyDouble && !IsLogic) {
        if (!L.isDouble()) {
          CE C;
          C.Kind = EK::CastID;
          C.Kids.push_back(std::move(L));
          L = std::move(C);
        }
        if (!R.isDouble()) {
          CE C;
          C.Kind = EK::CastID;
          C.Kids.push_back(std::move(R));
          R = std::move(C);
        }
        Out.Kind = IsCompare ? EK::CmpD : EK::BinD;
      } else {
        if (IsLogic && (L.isDouble() || R.isDouble())) {
          fail("logical operator on floating values");
          return Out;
        }
        Out.Kind = EK::BinI;
      }
      Out.Op = B->Op;
      Out.Kids.push_back(std::move(L));
      Out.Kids.push_back(std::move(R));
      return Out;
    }
    case ExprKind::Call: {
      const auto *C = cast<CallExpr>(&E);
      if ((C->Callee == "min" || C->Callee == "max") && C->Args.size() == 2) {
        CE L = compileExpr(*C->Args[0]);
        CE R = compileExpr(*C->Args[1]);
        bool AnyDouble = L.isDouble() || R.isDouble();
        if (AnyDouble) {
          if (!L.isDouble()) {
            CE Cast;
            Cast.Kind = EK::CastID;
            Cast.Kids.push_back(std::move(L));
            L = std::move(Cast);
          }
          if (!R.isDouble()) {
            CE Cast;
            Cast.Kind = EK::CastID;
            Cast.Kids.push_back(std::move(R));
            R = std::move(Cast);
          }
        }
        Out.Kind = C->Callee == "min" ? (AnyDouble ? EK::MinD : EK::MinI)
                                      : (AnyDouble ? EK::MaxD : EK::MaxI);
        Out.Kids.push_back(std::move(L));
        Out.Kids.push_back(std::move(R));
        return Out;
      }
      if (C->Callee == "rtclock" && C->Args.empty()) {
        Out.Kind = EK::Rtclock;
        return Out;
      }
      fail("unknown function in expression: " + C->Callee);
      return Out;
    }
    }
    return Out;
  }

  /// Parses OpenMP / vectorization pragmas attached to a loop.
  void compileLoopPragmas(const ForStmt &For, CS &Out) {
    bool Vector = false;
    for (const std::string &P : For.Pragmas) {
      std::string_view Text = trimString(P);
      if (startsWith(Text, "omp parallel for")) {
        Out.Par = Sched::Default;
        size_t SchedPos = Text.find("schedule(");
        if (SchedPos != std::string_view::npos) {
          std::string_view Spec = Text.substr(SchedPos + 9);
          size_t Close = Spec.find(')');
          if (Close != std::string_view::npos)
            Spec = Spec.substr(0, Close);
          std::vector<std::string> Parts = splitString(std::string(Spec), ',');
          std::string Kind(trimString(Parts[0]));
          if (Kind == "dynamic")
            Out.Par = Sched::Dynamic;
          else
            Out.Par = Sched::Static;
          if (Parts.size() > 1)
            Out.Chunk = std::atoi(std::string(trimString(Parts[1])).c_str());
        }
      } else if (startsWith(Text, "ivdep") || startsWith(Text, "vector")) {
        Vector = true;
      }
    }
    if (!Opts.CountCost)
      return;
    // OpenMP schedule model gate: only loops the parallel-safety analyzer
    // proves race-free get modeled speedup. Unproven or racy loops still
    // execute (sequentially, so checksums stay exact) but are costed
    // sequentially with a warning — a racy parallelization must not be
    // rewarded by the model. TrustParallel restores the old behavior.
    if (Out.Par != Sched::None && !Opts.TrustParallel) {
      analysis::ParallelSafetyReport Rep = analysis::analyzeParallelLoop(For);
      if (Rep.Verdict != analysis::ParallelVerdict::Safe) {
        Out.Par = Sched::None;
        Out.Chunk = 0;
        Warnings.push_back("not modeling parallel speedup for loop '" +
                           For.Var + "': " + Rep.summary());
      }
    }
    // SIMD model, mirroring an optimizing compiler (the paper's ICC -O3):
    //  - only innermost loops vectorize;
    //  - a loop with a *proven* carried dependence never vectorizes, even
    //    under ivdep;
    //  - a loop whose independence is proven auto-vectorizes without any
    //    pragma;
    //  - an unanalyzable loop vectorizes only when the programmer asserts
    //    independence with ivdep / vector always.
    bool HasInnerLoop = false;
    forEachStmt(*For.Body, [&](const Stmt &S) {
      if (isa<ForStmt>(&S))
        HasInnerLoop = true;
    });
    if (HasInnerLoop)
      return;
    std::optional<analysis::DependenceInfo> Deps =
        analysis::DependenceInfo::compute(For);
    if (Deps) {
      for (const analysis::Dependence &D : Deps->deps())
        if (D.mayBeCarriedBy(0))
          return; // proven carried dependence: no SIMD
      // Proven independent: auto-vectorize.
    } else if (!Vector) {
      return; // unprovable and no ivdep: the compiler stays scalar
    }
    bool AllUnitStride = true;
    // Only the subscripts of outermost array references are judged.
    visitExprs(*For.Body, [&](const Expr &E) {
      const auto *A = dyn_cast<ArrayRef>(&E);
      if (!A)
        return true;
      for (size_t I = 0; I < A->Indices.size(); ++I) {
        std::optional<analysis::AffineExpr> Aff =
            analysis::toAffine(*A->Indices[I]);
        int64_t Coeff = Aff ? Aff->coeff(For.Var) : 1;
        if (!Aff && referencesVar(*A->Indices[I], For.Var))
          AllUnitStride = false;
        else if (I + 1 == A->Indices.size()) {
          if (Coeff != 0 && Coeff != 1)
            AllUnitStride = false;
        } else if (Coeff != 0) {
          AllUnitStride = false;
        }
      }
      return false;
    });
    double W = static_cast<double>(Opts.Machine.VectorWidthDoubles);
    Out.VecScale = AllUnitStride ? 1.0 / W : 2.0 / W;
    if (Out.VecScale > 1.0)
      Out.VecScale = 1.0;
  }

  void compileStmt(const Stmt &S, std::vector<CS> &Out) {
    switch (S.kind()) {
    case StmtKind::Block:
      for (const auto &Sub : cast<Block>(&S)->Stmts)
        compileStmt(*Sub, Out);
      return;
    case StmtKind::Decl: {
      const auto *D = cast<DeclStmt>(&S);
      if (D->isArray()) {
        declareArray(*D);
        return;
      }
      int Slot = scalarSlot(D->Name, D->Elem, /*Declare=*/true);
      if (D->Init) {
        CS A;
        A.Kind = SK::AssignScalar;
        A.Slot = Slot;
        A.Op = AssignOp::Set;
        A.TargetDouble = SlotTypes[static_cast<size_t>(Slot)] == ElemType::Double;
        A.Rhs = compileExpr(*D->Init);
        Out.push_back(std::move(A));
      }
      return;
    }
    case StmtKind::For: {
      const auto *F = cast<ForStmt>(&S);
      CS L;
      L.Kind = SK::For;
      L.Slot = scalarSlot(F->Var, ElemType::Int, /*Declare=*/false);
      if (SlotTypes[static_cast<size_t>(L.Slot)] != ElemType::Int) {
        fail("loop variable " + F->Var + " must be an int");
        return;
      }
      L.Init = compileExpr(*F->Init);
      CE Bound = compileExpr(*F->Bound);
      if (L.Init.isDouble() || Bound.isDouble()) {
        fail("loop bounds of " + F->Var + " must be integers");
        return;
      }
      if (F->Op == BoundOp::Le) {
        CE Plus;
        Plus.Kind = EK::BinI;
        Plus.Op = BinOp::Add;
        Plus.Kids.push_back(std::move(Bound));
        CE One;
        One.Kind = EK::ConstI;
        One.ConstInt = 1;
        Plus.Kids.push_back(std::move(One));
        Bound = std::move(Plus);
      }
      L.BoundExcl = std::move(Bound);
      L.Step = F->Step;
      compileLoopPragmas(*F, L);
      for (const auto &Sub : F->Body->Stmts)
        compileStmt(*Sub, L.Body);
      Out.push_back(std::move(L));
      return;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(&S);
      CS C;
      C.Kind = SK::If;
      C.Cond = compileExpr(*I->Cond);
      if (C.Cond.isDouble()) {
        CE Cmp;
        Cmp.Kind = EK::CmpD;
        Cmp.Op = BinOp::Ne;
        Cmp.Kids.push_back(std::move(C.Cond));
        CE Zero;
        Zero.Kind = EK::ConstD;
        Cmp.Kids.push_back(std::move(Zero));
        C.Cond = std::move(Cmp);
      }
      for (const auto &Sub : I->Then->Stmts)
        compileStmt(*Sub, C.Body);
      if (I->Else)
        for (const auto &Sub : I->Else->Stmts)
          compileStmt(*Sub, C.Else);
      Out.push_back(std::move(C));
      return;
    }
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      CS C;
      C.Op = A->Op;
      C.Rhs = compileExpr(*A->Rhs);
      if (const auto *V = dyn_cast<VarRef>(A->Lhs.get())) {
        C.Kind = SK::AssignScalar;
        // The first assignment of an undeclared scalar fixes its type from
        // the RHS (harness temporaries like t_start).
        bool Known = ScalarSlots.count(V->Name) != 0;
        C.Slot = scalarSlot(
            V->Name, C.Rhs.isDouble() ? ElemType::Double : ElemType::Int,
            /*Declare=*/!Known);
        C.TargetDouble =
            SlotTypes[static_cast<size_t>(C.Slot)] == ElemType::Double;
      } else if (const auto *Arr = dyn_cast<ArrayRef>(A->Lhs.get())) {
        auto It = ArrayIds.find(Arr->Name);
        if (It == ArrayIds.end()) {
          fail("unknown array: " + Arr->Name);
          return;
        }
        const ArrayInfo &Info = Arrays[static_cast<size_t>(It->second)];
        if (Arr->Indices.size() != Info.Dims.size()) {
          fail("array " + Arr->Name + " subscript arity mismatch");
          return;
        }
        C.Kind = SK::AssignArray;
        C.Slot = It->second;
        C.TargetDouble = Info.Elem == ElemType::Double;
        for (const auto &I : Arr->Indices) {
          CE Idx = compileExpr(*I);
          if (Idx.isDouble()) {
            fail("array subscript of " + Arr->Name + " has floating type");
            return;
          }
          C.Indices.push_back(std::move(Idx));
        }
      } else {
        fail("unsupported assignment target");
        return;
      }
      Out.push_back(std::move(C));
      return;
    }
    case StmtKind::CallStmt: {
      const auto *C = cast<CallStmt>(&S);
      const auto *Call = cast<CallExpr>(C->Call.get());
      static const char *Harness[] = {"init_array", "print_array", "printf",
                                      "rtclock", "free"};
      for (const char *H : Harness)
        if (Call->Callee == H)
          return; // no-op
      fail("unknown call statement: " + Call->Callee +
           " (was a placeholder left unexpanded?)");
      return;
    }
    }
  }

  Status compile(const cir::Program &P) {
    Prog = &P;
    std::vector<CS> GlobalInit;
    for (const auto &G : P.Globals) {
      if (G->isArray())
        declareArray(*G);
      else {
        int Slot = scalarSlot(G->Name, G->Elem, /*Declare=*/true);
        if (G->Init) {
          CS A;
          A.Kind = SK::AssignScalar;
          A.Slot = Slot;
          A.Op = AssignOp::Set;
          A.TargetDouble =
              SlotTypes[static_cast<size_t>(Slot)] == ElemType::Double;
          A.Rhs = compileExpr(*G->Init);
          GlobalInit.push_back(std::move(A));
        }
      }
    }
    std::vector<CS> MainBody;
    for (const auto &S : P.Body->Stmts)
      compileStmt(*S, MainBody);
    Body = std::move(GlobalInit);
    for (auto &S : MainBody)
      Body.push_back(std::move(S));
    if (!CompileError.empty())
      return Status::error(CompileError);
    buildInitialData();
    L1HitLatency =
        Opts.Machine.Levels.empty() ? 0 : Opts.Machine.Levels[0].HitLatency;
    return Status::success();
  }

  //===--------------------------------------------------------------------===//
  // Execution
  //===--------------------------------------------------------------------===//

  void runtimeFail(const std::string &Message) {
    if (!Failed) {
      Failed = true;
      RunError = Message;
    }
  }

  int64_t flatIndex(const CS &S) {
    const ArrayInfo &A = Arrays[static_cast<size_t>(S.Slot)];
    int64_t Flat = 0;
    for (size_t I = 0; I < S.Indices.size(); ++I) {
      int64_t Idx = evalI(S.Indices[I]);
      if (Idx < 0 || Idx >= A.Dims[I]) {
        runtimeFail("index " + std::to_string(Idx) + " out of bounds for " +
                    A.Name + " dim " + std::to_string(I) + " (size " +
                    std::to_string(A.Dims[I]) + ")");
        return 0;
      }
      Flat += Idx * A.Strides[I];
    }
    return Flat;
  }

  int64_t flatIndexCE(const CE &E) {
    const ArrayInfo &A = Arrays[static_cast<size_t>(E.Slot)];
    int64_t Flat = 0;
    for (size_t I = 0; I < E.Kids.size(); ++I) {
      int64_t Idx = evalI(E.Kids[I]);
      if (Idx < 0 || Idx >= A.Dims[I]) {
        runtimeFail("index " + std::to_string(Idx) + " out of bounds for " +
                    A.Name + " dim " + std::to_string(I) + " (size " +
                    std::to_string(A.Dims[I]) + ")");
        return 0;
      }
      Flat += Idx * A.Strides[I];
    }
    return Flat;
  }

  void chargeMemory(int ArrayId, int64_t Flat, bool IsWrite) {
    if (IsWrite)
      ++MemWrites;
    else
      ++MemReads;
    if (!Cache)
      return;
    const ArrayInfo &A = Arrays[static_cast<size_t>(ArrayId)];
    uint64_t Address = A.Base + static_cast<uint64_t>(Flat) * 8;
    int Latency = Cache->access(Address, IsWrite);
    // Vectorization hides latency only for cache-resident data.
    if (Latency <= L1HitLatency)
      Cycles += Latency * ArithScale;
    else
      Cycles += Latency;
  }

  void chargeArith(bool IsDouble) {
    if (IsDouble)
      ++ArithOps;
    if (Cache) // CountCost proxy: Cache is only created when counting
      Cycles += (IsDouble ? Opts.Machine.ArithCost
                          : Opts.Machine.ArithCost * 0.5) *
                ArithScale;
  }

  int64_t evalI(const CE &E) {
    switch (E.Kind) {
    case EK::ConstI:
      return E.ConstInt;
    case EK::VarI:
      return ScalarI[static_cast<size_t>(E.Slot)];
    case EK::LoadI: {
      int64_t Flat = flatIndexCE(E);
      if (Failed)
        return 0;
      chargeMemory(E.Slot, Flat, /*IsWrite=*/false);
      return DataI[static_cast<size_t>(E.Slot)][static_cast<size_t>(Flat)];
    }
    case EK::BinI: {
      // Short-circuit logic first.
      if (E.Op == BinOp::And) {
        if (evalI(E.Kids[0]) == 0)
          return 0;
        return evalI(E.Kids[1]) != 0;
      }
      if (E.Op == BinOp::Or) {
        if (evalI(E.Kids[0]) != 0)
          return 1;
        return evalI(E.Kids[1]) != 0;
      }
      int64_t L = evalI(E.Kids[0]);
      int64_t R = evalI(E.Kids[1]);
      chargeArith(false);
      switch (E.Op) {
      case BinOp::Add:
        return L + R;
      case BinOp::Sub:
        return L - R;
      case BinOp::Mul:
        return L * R;
      case BinOp::Div:
        if (R == 0) {
          runtimeFail("integer division by zero");
          return 0;
        }
        return L / R;
      case BinOp::Mod:
        if (R == 0) {
          runtimeFail("integer modulo by zero");
          return 0;
        }
        return L % R;
      case BinOp::Lt:
        return L < R;
      case BinOp::Le:
        return L <= R;
      case BinOp::Gt:
        return L > R;
      case BinOp::Ge:
        return L >= R;
      case BinOp::Eq:
        return L == R;
      case BinOp::Ne:
        return L != R;
      default:
        return 0;
      }
    }
    case EK::CmpD: {
      double L = evalD(E.Kids[0]);
      double R = evalD(E.Kids[1]);
      chargeArith(true);
      switch (E.Op) {
      case BinOp::Lt:
        return L < R;
      case BinOp::Le:
        return L <= R;
      case BinOp::Gt:
        return L > R;
      case BinOp::Ge:
        return L >= R;
      case BinOp::Eq:
        return L == R;
      case BinOp::Ne:
        return L != R;
      default:
        return 0;
      }
    }
    case EK::NegI:
      chargeArith(false);
      return -evalI(E.Kids[0]);
    case EK::NotI:
      return evalI(E.Kids[0]) == 0;
    case EK::MinI: {
      int64_t L = evalI(E.Kids[0]);
      int64_t R = evalI(E.Kids[1]);
      chargeArith(false);
      return std::min(L, R);
    }
    case EK::MaxI: {
      int64_t L = evalI(E.Kids[0]);
      int64_t R = evalI(E.Kids[1]);
      chargeArith(false);
      return std::max(L, R);
    }
    default:
      runtimeFail("internal: double expression in int context");
      return 0;
    }
  }

  double evalD(const CE &E) {
    switch (E.Kind) {
    case EK::ConstD:
      return E.ConstDouble;
    case EK::VarD:
      return ScalarD[static_cast<size_t>(E.Slot)];
    case EK::LoadD: {
      int64_t Flat = flatIndexCE(E);
      if (Failed)
        return 0;
      chargeMemory(E.Slot, Flat, /*IsWrite=*/false);
      return DataD[static_cast<size_t>(E.Slot)][static_cast<size_t>(Flat)];
    }
    case EK::BinD: {
      double L = evalD(E.Kids[0]);
      double R = evalD(E.Kids[1]);
      chargeArith(true);
      switch (E.Op) {
      case BinOp::Add:
        return L + R;
      case BinOp::Sub:
        return L - R;
      case BinOp::Mul:
        return L * R;
      case BinOp::Div:
        return L / R;
      default:
        return 0;
      }
    }
    case EK::NegD:
      chargeArith(true);
      return -evalD(E.Kids[0]);
    case EK::CastID:
      return static_cast<double>(evalI(E.Kids[0]));
    case EK::MinD: {
      double L = evalD(E.Kids[0]);
      double R = evalD(E.Kids[1]);
      chargeArith(true);
      return std::min(L, R);
    }
    case EK::MaxD: {
      double L = evalD(E.Kids[0]);
      double R = evalD(E.Kids[1]);
      chargeArith(true);
      return std::max(L, R);
    }
    case EK::Rtclock:
      return 0.0;
    default:
      return static_cast<double>(evalI(E));
    }
  }

  /// Models the parallel execution time of a loop from per-iteration costs.
  double scheduleTime(const std::vector<double> &IterCosts, Sched Par,
                      int Chunk) {
    int Cores = std::max(1, Opts.Machine.Cores);
    size_t N = IterCosts.size();
    if (N == 0)
      return 0;
    if (Cores == 1) {
      double Sum = 0;
      for (double C : IterCosts)
        Sum += C;
      return Sum;
    }
    if (Par == Sched::Dynamic) {
      int C = Chunk > 0 ? Chunk : 1;
      // Greedy list scheduling: each core takes the next chunk when free.
      std::priority_queue<double, std::vector<double>, std::greater<double>>
          CoreTimes;
      for (int I = 0; I < Cores; ++I)
        CoreTimes.push(0.0);
      for (size_t Begin = 0; Begin < N; Begin += static_cast<size_t>(C)) {
        double ChunkCost = Opts.Machine.DynamicChunkOverhead;
        for (size_t I = Begin; I < std::min(N, Begin + static_cast<size_t>(C));
             ++I)
          ChunkCost += IterCosts[I];
        double T = CoreTimes.top();
        CoreTimes.pop();
        CoreTimes.push(T + ChunkCost);
      }
      double Max = 0;
      while (!CoreTimes.empty()) {
        Max = std::max(Max, CoreTimes.top());
        CoreTimes.pop();
      }
      return Max;
    }
    // Static: chunked round-robin; default schedule = one contiguous block
    // per core.
    size_t C = Chunk > 0 ? static_cast<size_t>(Chunk)
                         : (N + static_cast<size_t>(Cores) - 1) /
                               static_cast<size_t>(Cores);
    std::vector<double> CoreSums(static_cast<size_t>(Cores), 0.0);
    size_t Core = 0;
    for (size_t Begin = 0; Begin < N; Begin += C) {
      for (size_t I = Begin; I < std::min(N, Begin + C); ++I)
        CoreSums[Core] += IterCosts[I];
      Core = (Core + 1) % static_cast<size_t>(Cores);
    }
    double Max = 0;
    for (double T : CoreSums)
      Max = std::max(Max, T);
    return Max;
  }

  void execBlock(const std::vector<CS> &Stmts) {
    for (const CS &S : Stmts) {
      if (Failed)
        return;
      execStmt(S);
    }
  }

  void execStmt(const CS &S) {
    switch (S.Kind) {
    case SK::Nop:
      return;
    case SK::Block:
      execBlock(S.Body);
      return;
    case SK::If:
      if (evalI(S.Cond) != 0)
        execBlock(S.Body);
      else
        execBlock(S.Else);
      return;
    case SK::AssignScalar: {
      if (S.TargetDouble) {
        double V = evalD(S.Rhs);
        double &Slot = ScalarD[static_cast<size_t>(S.Slot)];
        switch (S.Op) {
        case AssignOp::Set:
          Slot = V;
          break;
        case AssignOp::Add:
          chargeArith(true);
          Slot += V;
          break;
        case AssignOp::Sub:
          chargeArith(true);
          Slot -= V;
          break;
        case AssignOp::Mul:
          chargeArith(true);
          Slot *= V;
          break;
        }
      } else {
        if (S.Rhs.isDouble()) {
          runtimeFail("assigning a floating value to int scalar");
          return;
        }
        int64_t V = evalI(S.Rhs);
        int64_t &Slot = ScalarI[static_cast<size_t>(S.Slot)];
        switch (S.Op) {
        case AssignOp::Set:
          Slot = V;
          break;
        case AssignOp::Add:
          chargeArith(false);
          Slot += V;
          break;
        case AssignOp::Sub:
          chargeArith(false);
          Slot -= V;
          break;
        case AssignOp::Mul:
          chargeArith(false);
          Slot *= V;
          break;
        }
      }
      return;
    }
    case SK::AssignArray: {
      int64_t Flat = flatIndex(S);
      if (Failed)
        return;
      if (S.TargetDouble) {
        double V = evalD(S.Rhs);
        if (Failed)
          return;
        double &Elem =
            DataD[static_cast<size_t>(S.Slot)][static_cast<size_t>(Flat)];
        if (S.Op != AssignOp::Set) {
          chargeMemory(S.Slot, Flat, /*IsWrite=*/false);
          chargeArith(true);
        }
        switch (S.Op) {
        case AssignOp::Set:
          Elem = V;
          break;
        case AssignOp::Add:
          Elem += V;
          break;
        case AssignOp::Sub:
          Elem -= V;
          break;
        case AssignOp::Mul:
          Elem *= V;
          break;
        }
        chargeMemory(S.Slot, Flat, /*IsWrite=*/true);
      } else {
        if (S.Rhs.isDouble()) {
          runtimeFail("assigning a floating value to int array");
          return;
        }
        int64_t V = evalI(S.Rhs);
        if (Failed)
          return;
        int64_t &Elem =
            DataI[static_cast<size_t>(S.Slot)][static_cast<size_t>(Flat)];
        if (S.Op != AssignOp::Set) {
          chargeMemory(S.Slot, Flat, /*IsWrite=*/false);
          chargeArith(false);
        }
        switch (S.Op) {
        case AssignOp::Set:
          Elem = V;
          break;
        case AssignOp::Add:
          Elem += V;
          break;
        case AssignOp::Sub:
          Elem -= V;
          break;
        case AssignOp::Mul:
          Elem *= V;
          break;
        }
        chargeMemory(S.Slot, Flat, /*IsWrite=*/true);
      }
      return;
    }
    case SK::For: {
      int64_t Lo = evalI(S.Init);
      int64_t Hi = evalI(S.BoundExcl);
      if (Failed)
        return;
      bool Parallel = S.Par != Sched::None && Cache && !InParallel;
      bool Vector = S.VecScale < 1.0 && Cache;
      double SavedScale = ArithScale;
      if (Vector)
        ArithScale *= S.VecScale;

      if (!Parallel) {
        for (int64_t V = Lo; V < Hi; V += S.Step) {
          ScalarI[static_cast<size_t>(S.Slot)] = V;
          if (++Iterations > Opts.MaxIterations) {
            runtimeFail("iteration budget exceeded");
            break;
          }
          if (Cache)
            Cycles += Opts.Machine.LoopOverhead * ArithScale;
          execBlock(S.Body);
          if (Failed)
            break;
        }
        ArithScale = SavedScale;
        return;
      }

      // Parallel loop: execute sequentially, recording per-iteration cost,
      // then rewind the clock to the modeled parallel time.
      InParallel = true;
      double LoopStart = Cycles;
      std::vector<double> IterCosts;
      for (int64_t V = Lo; V < Hi; V += S.Step) {
        ScalarI[static_cast<size_t>(S.Slot)] = V;
        if (++Iterations > Opts.MaxIterations) {
          runtimeFail("iteration budget exceeded");
          break;
        }
        double Mark = Cycles;
        Cycles += Opts.Machine.LoopOverhead * ArithScale;
        execBlock(S.Body);
        IterCosts.push_back(Cycles - Mark);
        if (Failed)
          break;
      }
      InParallel = false;
      ArithScale = SavedScale;
      if (Failed)
        return;
      double ParTime = scheduleTime(IterCosts, S.Par, S.Chunk) +
                       Opts.Machine.ParallelSpawnOverhead;
      Cycles = LoopStart + ParTime;
      return;
    }
    }
  }

  RunResult run() {
    // Reset state.
    ScalarD = InitScalarD;
    ScalarI = InitScalarI;
    DataD = InitDouble;
    DataI = InitInt;
    Cycles = 0;
    ArithScale = 1.0;
    InParallel = false;
    Iterations = ArithOps = MemReads = MemWrites = 0;
    Failed = false;
    RunError.clear();
    if (Opts.CountCost) {
      Cache = std::make_unique<machine::CacheSim>(Opts.Machine);
    } else {
      Cache.reset();
    }

    execBlock(Body);

    RunResult R;
    R.Ok = !Failed;
    R.Error = RunError;
    R.Cycles = Cycles;
    R.ArithOps = ArithOps;
    R.MemReads = MemReads;
    R.MemWrites = MemWrites;
    R.LoopIterations = Iterations;
    if (Cache)
      R.Cache = Cache->stats();
    double Sum = 0;
    for (const auto &V : DataD)
      for (double X : V)
        Sum += X;
    for (const auto &V : DataI)
      for (int64_t X : V)
        Sum += static_cast<double>(X);
    R.Checksum = Sum;
    R.Warnings = Warnings;
    return R;
  }
};

} // namespace detail

//===----------------------------------------------------------------------===//
// Public interface
//===----------------------------------------------------------------------===//

ProgramEvaluator::ProgramEvaluator(const cir::Program &P, EvalOptions Opts)
    : Prog(P), Opts(std::move(Opts)) {}

ProgramEvaluator::~ProgramEvaluator() = default;

Status ProgramEvaluator::prepare() {
  Compiled = std::make_unique<detail::CompiledProgram>();
  Compiled->Opts = Opts;
  return Compiled->compile(Prog);
}

Status ProgramEvaluator::setDoubleArray(const std::string &Name,
                                        std::vector<double> Values) {
  assert(Compiled && "prepare() must run first");
  auto It = Compiled->ArrayIds.find(Name);
  if (It == Compiled->ArrayIds.end())
    return Status::error("unknown array: " + Name);
  auto &Init = Compiled->InitDouble[static_cast<size_t>(It->second)];
  if (Values.size() != Init.size())
    return Status::error("size mismatch for array " + Name);
  Init = std::move(Values);
  return Status::success();
}

Status ProgramEvaluator::setIntArray(const std::string &Name,
                                     std::vector<int64_t> Values) {
  assert(Compiled && "prepare() must run first");
  auto It = Compiled->ArrayIds.find(Name);
  if (It == Compiled->ArrayIds.end())
    return Status::error("unknown array: " + Name);
  auto &Init = Compiled->InitInt[static_cast<size_t>(It->second)];
  if (Values.size() != Init.size())
    return Status::error("size mismatch for array " + Name);
  Init = std::move(Values);
  return Status::success();
}

Status ProgramEvaluator::setScalar(const std::string &Name, double Value) {
  assert(Compiled && "prepare() must run first");
  auto It = Compiled->ScalarSlots.find(Name);
  if (It == Compiled->ScalarSlots.end())
    return Status::error("unknown scalar: " + Name);
  size_t Slot = static_cast<size_t>(It->second);
  if (Compiled->SlotTypes[Slot] == cir::ElemType::Double)
    Compiled->InitScalarD[Slot] = Value;
  else
    Compiled->InitScalarI[Slot] = static_cast<int64_t>(Value);
  return Status::success();
}

RunResult ProgramEvaluator::run() {
  assert(Compiled && "prepare() must run first");
  return Compiled->run();
}

Expected<std::vector<double>>
ProgramEvaluator::doubleArray(const std::string &Name) const {
  assert(Compiled && "prepare() must run first");
  auto It = Compiled->ArrayIds.find(Name);
  if (It == Compiled->ArrayIds.end())
    return Expected<std::vector<double>>::error("unknown array: " + Name);
  size_t Id = static_cast<size_t>(It->second);
  if (Id >= Compiled->DataD.size() || Compiled->DataD[Id].empty())
    return Expected<std::vector<double>>::error(Name + " is not a double array");
  return Compiled->DataD[Id];
}

RunResult evaluateProgram(const cir::Program &P, const EvalOptions &Opts) {
  ProgramEvaluator Eval(P, Opts);
  Status S = Eval.prepare();
  if (!S.ok()) {
    RunResult R;
    R.Error = S.message();
    return R;
  }
  return Eval.run();
}

} // namespace eval
} // namespace locus
