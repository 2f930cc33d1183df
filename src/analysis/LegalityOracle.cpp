//===- LegalityOracle.cpp - Static legality classification ----------------===//

#include "src/analysis/LegalityOracle.h"

#include "src/cir/AstUtils.h"

#include <set>
#include <variant>

namespace locus {
namespace analysis {

namespace {

bool isPow2(int64_t X) { return X > 0 && (X & (X - 1)) == 0; }

/// True when block \p Inner is \p Outer or appears anywhere inside it.
bool blockContains(const cir::Block &Outer, const cir::Block &Inner) {
  if (&Outer == &Inner)
    return true;
  bool Found = false;
  cir::forEachStmt(Outer, [&](const cir::Stmt &S) {
    Found = Found || &S == &Inner;
    return !Found;
  });
  return Found;
}

/// Stable text key of a resolved PlanArg (cache keys only).
void renderArg(const PlanArg &A, std::string &Out) {
  switch (A.K) {
  case PlanArg::Kind::Unknown:
    Out += "?";
    return;
  case PlanArg::Kind::Int:
    Out += std::to_string(A.Int);
    return;
  case PlanArg::Kind::Float:
    Out += std::to_string(A.Float);
    return;
  case PlanArg::Kind::Str:
    Out += "'" + A.Str + "'";
    return;
  case PlanArg::Kind::Param:
    Out += "$" + A.Str;
    return;
  case PlanArg::Kind::List:
    Out += "[";
    for (const PlanArg &I : A.List) {
      renderArg(I, Out);
      Out += ",";
    }
    Out += "]";
    return;
  }
}

enum class GuardState { Sat, Unsat, Unknown };

} // namespace

struct LegalityOracle::RegionState {
  std::unique_ptr<cir::Program> Prog;
};

LegalityOracle::LegalityOracle(const cir::Program &Baseline,
                               const search::Space &Space, TransformPlan Plan,
                               ModuleInvoker Invoker)
    : Baseline(Baseline), Space(Space), Plan(std::move(Plan)),
      Invoker(std::move(Invoker)) {
  // Drop entries the extractor's single-execution model cannot vouch for:
  // everything after the first CodeReg whose name matches several regions
  // (its own entries still describe the first execution and stay).
  std::set<std::string> Dropped;
  bool SawMulti = false;
  for (const std::string &Name : this->Plan.CodeRegOrder) {
    if (SawMulti)
      Dropped.insert(Name);
    if (Baseline.findRegions(Name).size() > 1)
      SawMulti = true;
  }
  if (!Dropped.empty()) {
    auto &Entries = this->Plan.Entries;
    for (size_t I = 0; I < Entries.size(); ++I) {
      if (Dropped.count(Entries[I].Region)) {
        Entries.resize(I);
        break;
      }
    }
  }

  // Replay is modeled per region on independent clones; that is only valid
  // for regions instantiated exactly once and not overlapping any other
  // replayed region.
  std::map<std::string, const cir::Block *> Blocks;
  for (const PlanEntry &E : this->Plan.Entries)
    if (E.K == PlanEntry::Kind::ModuleCall &&
        !RegionReplayable.count(E.Region)) {
      std::vector<const cir::Block *> Regions = Baseline.findRegions(E.Region);
      RegionReplayable[E.Region] = Regions.size() == 1;
      if (Regions.size() == 1)
        Blocks[E.Region] = Regions[0];
    }
  for (auto &[NameA, BlockA] : Blocks)
    for (auto &[NameB, BlockB] : Blocks)
      if (NameA != NameB && blockContains(*BlockA, *BlockB)) {
        RegionReplayable[NameA] = false;
        RegionReplayable[NameB] = false;
      }

  // Symbolic pre-classification of every RangeCheck: evaluate the check over
  // the parameter value intervals once, here, instead of once per point.
  RCInfo.resize(this->Plan.Entries.size());
  for (size_t I = 0; I < this->Plan.Entries.size(); ++I) {
    const PlanEntry &E = this->Plan.Entries[I];
    if (E.K != PlanEntry::Kind::RangeCheck)
      continue;
    RangeCheckInfo &Info = RCInfo[I];

    auto ArgInterval = [&](const PlanArg &A) -> Interval {
      switch (A.K) {
      case PlanArg::Kind::Int:
        return Interval::point(A.Int);
      case PlanArg::Kind::Param: {
        const search::ParamDef *D = this->Space.find(A.Str);
        return D ? paramValueInterval(*D) : Interval::full();
      }
      default:
        return Interval::full();
      }
    };
    const search::ParamDef *VD = this->Space.find(E.ParamId);
    Interval V = VD ? paramValueInterval(*VD) : Interval::full();
    Interval LoI = ArgInterval(E.Lo);
    Interval HiI = ArgInterval(E.Hi);
    // Passes for every point iff the smallest value clears the largest
    // possible lower bound and the largest clears the smallest upper bound.
    if (V.bounded() && LoI.Hi != INT64_MAX && HiI.Lo != INT64_MIN &&
        V.Lo >= LoI.Hi && V.Hi <= HiI.Lo &&
        (!E.IsPow2 || (VD && paramValuesAllPow2(*VD)))) {
      Info.AlwaysPasses = true;
      ++RangeChecksElided;
      continue;
    }

    // Otherwise the verdict is a pure function of the point's values of the
    // guards, the checked parameter, and every parameter reachable from the
    // bound expressions (enum options and permutation items included, since
    // Resolve() consults them).
    std::set<std::string> Keys;
    std::function<void(const PlanArg &)> CollectKeys =
        [&](const PlanArg &A) {
          for (const PlanArg &Sub : A.List)
            CollectKeys(Sub);
          if (A.K != PlanArg::Kind::Param || !Keys.insert(A.Str).second)
            return;
          const search::ParamDef *D = this->Space.find(A.Str);
          if (!D)
            return;
          if (D->Kind == search::ParamKind::Enum) {
            auto It = this->Plan.EnumValues.find(A.Str);
            if (It != this->Plan.EnumValues.end())
              for (const PlanArg &Opt : It->second)
                CollectKeys(Opt);
          } else if (D->Kind == search::ParamKind::Permutation) {
            auto It = this->Plan.PermItems.find(A.Str);
            if (It != this->Plan.PermItems.end())
              for (const PlanArg &Item : It->second)
                CollectKeys(Item);
          }
        };
    for (const PlanGuard &G : E.Guards)
      Keys.insert(G.ParamId);
    Keys.insert(E.ParamId);
    CollectKeys(E.Lo);
    CollectKeys(E.Hi);
    Info.Memoizable = true;
    Info.KeyParams.assign(Keys.begin(), Keys.end());
  }
}

Interval paramValueInterval(const search::ParamDef &Def) {
  using search::ParamKind;
  switch (Def.Kind) {
  case ParamKind::Bool:
  case ParamKind::IntRange:
  case ParamKind::Pow2:
  case ParamKind::LogInt: {
    std::vector<search::PointValue> Vals = search::enumerateValues(Def);
    if (Vals.empty())
      return Interval::full();
    Interval I = Interval::none();
    for (const search::PointValue &V : Vals) {
      if (!std::holds_alternative<int64_t>(V))
        return Interval::full();
      I = join(I, Interval::point(std::get<int64_t>(V)));
    }
    return I;
  }
  default:
    return Interval::full();
  }
}

bool paramValuesAllPow2(const search::ParamDef &Def) {
  using search::ParamKind;
  if (Def.Kind != ParamKind::Bool && Def.Kind != ParamKind::IntRange &&
      Def.Kind != ParamKind::Pow2 && Def.Kind != ParamKind::LogInt)
    return false;
  std::vector<search::PointValue> Vals = search::enumerateValues(Def);
  if (Vals.empty())
    return false;
  for (const search::PointValue &V : Vals)
    if (!std::holds_alternative<int64_t>(V) || !isPow2(std::get<int64_t>(V)))
      return false;
  return true;
}

LegalityOracle::~LegalityOracle() = default;

std::optional<search::EvalOutcome>
LegalityOracle::classify(const search::Point &P) {
  using search::EvalOutcome;
  using search::FailureKind;

  // Bound the caches (correctness is unaffected: states are rebuilt from the
  // baseline on demand).
  if (PrefixCache.size() > 256)
    PrefixCache.clear();
  if (FailCache.size() > 4096)
    FailCache.clear();

  auto PointInt = [&](const std::string &Id, int64_t &Out) {
    auto It = P.Values.find(Id);
    if (It == P.Values.end() || !std::holds_alternative<int64_t>(It->second))
      return false;
    Out = std::get<int64_t>(It->second);
    return true;
  };

  // Resolves a PlanArg against the point; false when any part is Unknown or
  // a referenced parameter cannot be pinned to a concrete value.
  std::function<bool(const PlanArg &, PlanArg &)> Resolve =
      [&](const PlanArg &A, PlanArg &Out) -> bool {
    switch (A.K) {
    case PlanArg::Kind::Unknown:
      return false;
    case PlanArg::Kind::Int:
    case PlanArg::Kind::Float:
    case PlanArg::Kind::Str:
      Out = A;
      return true;
    case PlanArg::Kind::List: {
      PlanArg L;
      L.K = PlanArg::Kind::List;
      for (const PlanArg &I : A.List) {
        PlanArg R;
        if (!Resolve(I, R))
          return false;
        L.List.push_back(std::move(R));
      }
      Out = std::move(L);
      return true;
    }
    case PlanArg::Kind::Param: {
      const search::ParamDef *Def = Space.find(A.Str);
      auto It = P.Values.find(A.Str);
      if (!Def || It == P.Values.end())
        return false;
      switch (Def->Kind) {
      case search::ParamKind::Enum: {
        auto EIt = Plan.EnumValues.find(A.Str);
        if (EIt == Plan.EnumValues.end() ||
            !std::holds_alternative<int64_t>(It->second))
          return false;
        int64_t Choice = std::get<int64_t>(It->second);
        if (Choice < 0 || static_cast<size_t>(Choice) >= EIt->second.size())
          return false;
        return Resolve(EIt->second[static_cast<size_t>(Choice)], Out);
      }
      case search::ParamKind::Permutation: {
        auto PIt = Plan.PermItems.find(A.Str);
        if (PIt == Plan.PermItems.end() ||
            !std::holds_alternative<std::vector<int>>(It->second))
          return false;
        const auto &Perm = std::get<std::vector<int>>(It->second);
        if (Perm.size() != PIt->second.size())
          return false;
        PlanArg L;
        L.K = PlanArg::Kind::List;
        for (int I : Perm) {
          if (I < 0 || static_cast<size_t>(I) >= PIt->second.size())
            return false;
          PlanArg R;
          if (!Resolve(PIt->second[static_cast<size_t>(I)], R))
            return false;
          L.List.push_back(std::move(R));
        }
        Out = std::move(L);
        return true;
      }
      case search::ParamKind::FloatRange:
      case search::ParamKind::LogFloat:
        if (std::holds_alternative<double>(It->second))
          Out = PlanArg::ofFloat(std::get<double>(It->second));
        else if (std::holds_alternative<int64_t>(It->second))
          Out = PlanArg::ofFloat(
              static_cast<double>(std::get<int64_t>(It->second)));
        else
          return false;
        return true;
      default:
        if (!std::holds_alternative<int64_t>(It->second))
          return false;
        Out = PlanArg::ofInt(std::get<int64_t>(It->second));
        return true;
      }
    }
    }
    return false;
  };

  // Per-classify replay cursor: region -> applied-call-prefix key and the
  // cached state it denotes.
  std::map<std::string, std::string> PrefixKey;
  std::map<std::string, RegionState *> CurState;
  std::set<std::string> Poisoned;

  for (size_t EIdx = 0; EIdx < Plan.Entries.size(); ++EIdx) {
    const PlanEntry &E = Plan.Entries[EIdx];
    GuardState G = GuardState::Sat;
    for (const PlanGuard &Guard : E.Guards) {
      int64_t V;
      if (!PointInt(Guard.ParamId, V)) {
        G = GuardState::Unknown;
      } else if (V != Guard.Alt) {
        G = GuardState::Unsat;
        break;
      }
    }
    if (G == GuardState::Unsat)
      continue;
    bool Certain = G == GuardState::Sat && !E.UnderUnknownCond;

    if (E.K == PlanEntry::Kind::RangeCheck) {
      const RangeCheckInfo &Info = RCInfo[EIdx];
      if (Info.AlwaysPasses)
        continue; // proven over the whole parameter box at construction

      // Sub-box memo: the verdict is a pure function of the point's values
      // of KeyParams, so one resolution serves the whole sub-box sharing
      // that projection. Non-integer values cannot influence the verdict
      // beyond their kind, so they key as "?".
      std::string BoxKey;
      if (Info.Memoizable) {
        BoxKey = std::to_string(EIdx);
        for (const std::string &Id : Info.KeyParams) {
          auto It = P.Values.find(Id);
          BoxKey += "|" + Id + "=";
          if (It != P.Values.end() &&
              std::holds_alternative<int64_t>(It->second))
            BoxKey += std::to_string(std::get<int64_t>(It->second));
          else
            BoxKey += "?";
        }
        auto Hit = RangeBoxVerdicts.find(BoxKey);
        if (Hit != RangeBoxVerdicts.end()) {
          ++RangeBoxHits;
          if (Hit->second) {
            ++Pruned;
            ++RangePruned;
            return Hit->second;
          }
          continue;
        }
      }
      auto Remember = [&](const std::optional<EvalOutcome> &Out) {
        if (!Info.Memoizable)
          return;
        if (RangeBoxVerdicts.size() > 65536)
          RangeBoxVerdicts.clear();
        RangeBoxVerdicts.emplace(BoxKey, Out);
      };

      if (!Certain) { // may not execute: cannot prove a failure
        Remember(std::nullopt);
        continue;
      }
      int64_t V, Lo, Hi;
      PlanArg RLo, RHi;
      if (!PointInt(E.ParamId, V) || !Resolve(E.Lo, RLo) ||
          !Resolve(E.Hi, RHi) || RLo.K != PlanArg::Kind::Int ||
          RHi.K != PlanArg::Kind::Int) {
        Remember(std::nullopt);
        continue;
      }
      Lo = RLo.Int;
      Hi = RHi.Int;
      // Wording matches the interpreter's dynamic invalidation exactly.
      if (V < Lo || V > Hi) {
        EvalOutcome Out = EvalOutcome::fail(
            FailureKind::InvalidPoint, E.ParamId + "=" + std::to_string(V) +
                                           " violates range " +
                                           std::to_string(Lo) + ".." +
                                           std::to_string(Hi));
        Remember(Out);
        ++Pruned;
        ++RangePruned;
        return Out;
      }
      if (E.IsPow2 && !isPow2(V)) {
        EvalOutcome Out = EvalOutcome::fail(FailureKind::InvalidPoint,
                                            E.ParamId + "=" +
                                                std::to_string(V) +
                                                " is not a power of two");
        Remember(Out);
        ++Pruned;
        ++RangePruned;
        return Out;
      }
      Remember(std::nullopt);
      continue;
    }

    // ModuleCall replay.
    const std::string &R = E.Region;
    auto Rep = RegionReplayable.find(R);
    bool Replayable = Rep != RegionReplayable.end() && Rep->second;
    if (!Certain || !Replayable || Poisoned.count(R) || !Invoker) {
      Poisoned.insert(R);
      continue;
    }

    std::map<std::string, PlanArg> Resolved;
    bool ArgsOk = true;
    for (const auto &[Key, Arg] : E.Args) {
      PlanArg RA;
      if (!Resolve(Arg, RA)) {
        ArgsOk = false;
        break;
      }
      Resolved.emplace(Key, std::move(RA));
    }
    if (!ArgsOk) {
      Poisoned.insert(R);
      continue;
    }

    std::string CallKey = E.Module + "." + E.Member + "(";
    for (const auto &[Key, Arg] : Resolved) {
      CallKey += Key + "=";
      renderArg(Arg, CallKey);
      CallKey += ",";
    }
    CallKey += ");";
    std::string NewPrefix = R + "|" + PrefixKey[R] + CallKey;

    auto FIt = FailCache.find(NewPrefix);
    if (FIt != FailCache.end()) {
      ++Pruned;
      return FIt->second;
    }
    auto PIt = PrefixCache.find(NewPrefix);
    if (PIt != PrefixCache.end()) {
      PrefixKey[R] += CallKey;
      CurState[R] = PIt->second.get();
      continue;
    }

    // Materialize the predecessor state on first use.
    RegionState *Cur = CurState.count(R) ? CurState[R] : nullptr;
    if (!Cur) {
      std::string BaseKey = R + "|";
      auto BIt = PrefixCache.find(BaseKey);
      if (BIt == PrefixCache.end()) {
        auto S = std::make_unique<RegionState>();
        S->Prog = Baseline.clone();
        BIt = PrefixCache.emplace(BaseKey, std::move(S)).first;
      }
      Cur = BIt->second.get();
    }

    auto Next = std::make_unique<RegionState>();
    Next->Prog = Cur->Prog->clone();
    std::vector<cir::Block *> Regions = Next->Prog->findRegions(R);
    if (Regions.size() != 1) {
      Poisoned.insert(R);
      continue;
    }
    transform::TransformResult TR =
        Invoker(E.Module, E.Member, Resolved, *Regions[0], *Next->Prog);
    switch (TR.Status) {
    case transform::TransformStatus::Success:
    case transform::TransformStatus::NoOp: {
      PrefixKey[R] += CallKey;
      CurState[R] = Next.get();
      PrefixCache.emplace(NewPrefix, std::move(Next));
      continue;
    }
    case transform::TransformStatus::Illegal: {
      // Wording matches the interpreter's concrete-mode invalidation.
      EvalOutcome Out = EvalOutcome::fail(
          FailureKind::TransformIllegal,
          E.Module + "." + E.Member + " illegal: " + TR.Message);
      FailCache.emplace(NewPrefix, Out);
      ++Pruned;
      return Out;
    }
    case transform::TransformStatus::Error: {
      EvalOutcome Out = EvalOutcome::fail(
          FailureKind::InvalidPoint,
          E.Module + "." + E.Member + " error: " + TR.Message);
      FailCache.emplace(NewPrefix, Out);
      ++Pruned;
      return Out;
    }
    }
  }
  return std::nullopt;
}

} // namespace analysis
} // namespace locus
