//===- AstUtils.h - MiniC AST manipulation helpers -------------*- C++ -*-===//
///
/// \file
/// Shared AST utilities: the one traversal of the tree (each node kind's
/// children are listed here and nowhere else), perfect-nest discovery,
/// variable substitution, structural equality, constant folding of
/// index/bound expressions, and code-region hashing (used for the
/// source-coherence check of Section II).
///
/// Traversal contract. detail::exprChildSlots and detail::stmtChildSlots are
/// the only lists of which children a node kind has. Every walk built on
/// them visits in one order: pre-order, left to right, and a statement's own
/// expressions before its sub-statements. Analyses and transforms keep their
/// per-kind actions but reach the children only through forEachChild,
/// visitExpr, visitExprs, rewriteExpr, forEachStmt and forEachExpr, so the
/// order of every report, dependence list and generated temporary follows
/// from this file. Semantic per-kind switches (printing, parsing, cloning,
/// equality, constant evaluation, affine conversion, the evaluator's
/// compiler) still switch on the kind themselves.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_CIR_ASTUTILS_H
#define LOCUS_CIR_ASTUTILS_H

#include "src/cir/Ast.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

namespace locus {
namespace cir {

//===----------------------------------------------------------------------===//
// Traversal
//===----------------------------------------------------------------------===//

namespace detail {

/// The one list of each expression kind's children, left to right: an
/// ArrayRef's indices, a Binary's Lhs then Rhs, a Unary's operand, a Call's
/// arguments. \p Fn receives each child's owning slot (`ExprPtr &`, or
/// `const ExprPtr &` when \p ExprT is const).
template <typename ExprT, typename FnT> void exprChildSlots(ExprT &E, FnT &Fn) {
  switch (E.kind()) {
  case ExprKind::IntLit:
  case ExprKind::FloatLit:
  case ExprKind::VarRef:
    return;
  case ExprKind::ArrayRef:
    for (auto &I : cast<ArrayRef>(&E)->Indices)
      Fn(I);
    return;
  case ExprKind::Binary: {
    auto *B = cast<BinaryExpr>(&E);
    Fn(B->Lhs);
    Fn(B->Rhs);
    return;
  }
  case ExprKind::Unary:
    Fn(cast<UnaryExpr>(&E)->Operand);
    return;
  case ExprKind::Call:
    for (auto &A : cast<CallExpr>(&E)->Args)
      Fn(A);
    return;
  }
}

/// The one list of each statement kind's children: first its own expression
/// slots (to \p OnExpr), then its sub-statements (to \p OnStmt, each as a
/// `StmtT &`), left to right:
///   Block: its statements;        For: Init, Bound; Body;
///   If: Cond; Then, Else if any;  Assign: Lhs, Rhs;
///   Decl: Init if any;            CallStmt: Call.
template <typename StmtT, typename ExprFn, typename StmtFn>
void stmtChildSlots(StmtT &S, ExprFn &OnExpr, StmtFn &OnStmt) {
  switch (S.kind()) {
  case StmtKind::Block:
    for (auto &Sub : cast<Block>(&S)->Stmts)
      OnStmt(static_cast<StmtT &>(*Sub));
    return;
  case StmtKind::For: {
    auto *F = cast<ForStmt>(&S);
    OnExpr(F->Init);
    OnExpr(F->Bound);
    OnStmt(static_cast<StmtT &>(*F->Body));
    return;
  }
  case StmtKind::If: {
    auto *I = cast<IfStmt>(&S);
    OnExpr(I->Cond);
    OnStmt(static_cast<StmtT &>(*I->Then));
    if (I->Else)
      OnStmt(static_cast<StmtT &>(*I->Else));
    return;
  }
  case StmtKind::Assign: {
    auto *A = cast<AssignStmt>(&S);
    OnExpr(A->Lhs);
    OnExpr(A->Rhs);
    return;
  }
  case StmtKind::Decl:
    if (auto *D = cast<DeclStmt>(&S); D->Init)
      OnExpr(D->Init);
    return;
  case StmtKind::CallStmt:
    OnExpr(cast<CallStmt>(&S)->Call);
    return;
  }
}

/// Calls \p Fn on \p Node; returns whether a walk descends below it. A
/// callback returning void always descends; one returning bool decides.
template <typename FnT, typename NodeT> bool descends(FnT &Fn, NodeT &Node) {
  if constexpr (std::is_void_v<std::invoke_result_t<FnT &, NodeT &>>) {
    Fn(Node);
    return true;
  } else {
    return Fn(Node);
  }
}

/// Callback that ignores its argument.
struct Ignore {
  template <typename T> void operator()(T &&) const {}
};

template <typename StmtT, typename FnT> void walkStmts(StmtT &S, FnT &Fn) {
  if (!descends(Fn, S))
    return;
  Ignore NoExpr;
  auto Sub = [&](StmtT &Child) { walkStmts(Child, Fn); };
  stmtChildSlots(S, NoExpr, Sub);
}

} // namespace detail

/// Calls \p Fn(ExprPtr &) on each direct child slot of \p E, left to right;
/// \p Fn may replace the child.
template <typename FnT> void forEachChild(Expr &E, FnT &&Fn) {
  detail::exprChildSlots(E, Fn);
}

/// Calls \p Fn(const Expr &) on each direct child of \p E, left to right.
template <typename FnT> void forEachChild(const Expr &E, FnT &&Fn) {
  auto Deref = [&](const ExprPtr &C) { Fn(static_cast<const Expr &>(*C)); };
  detail::exprChildSlots(E, Deref);
}

/// Calls \p OnExpr(ExprPtr &) on each of \p S's own expression slots, then
/// \p OnStmt(Stmt &) on each of its sub-statements (see
/// detail::stmtChildSlots for the per-kind list). Neither call recurses.
template <typename ExprFn, typename StmtFn = detail::Ignore>
void forEachChild(Stmt &S, ExprFn &&OnExpr, StmtFn &&OnStmt = StmtFn()) {
  detail::stmtChildSlots(S, OnExpr, OnStmt);
}

/// Const form: \p OnExpr receives `const Expr &`, \p OnStmt `const Stmt &`.
template <typename ExprFn, typename StmtFn = detail::Ignore>
void forEachChild(const Stmt &S, ExprFn &&OnExpr, StmtFn &&OnStmt = StmtFn()) {
  auto Deref = [&](const ExprPtr &C) {
    OnExpr(static_cast<const Expr &>(*C));
  };
  detail::stmtChildSlots(S, Deref, OnStmt);
}

/// Pre-order walk of the expression tree rooted at \p E, left to right.
/// \p Fn(const Expr &) returns void, or bool: false skips the node's
/// children (the walk goes on with its next sibling).
template <typename FnT> void visitExpr(const Expr &E, FnT &&Fn) {
  if (detail::descends(Fn, E))
    forEachChild(E, [&](const Expr &C) { visitExpr(C, Fn); });
}

/// Top-down rewrite of the tree held in slot \p E: \p Fn(ExprPtr &) sees
/// each slot before its children and may replace the expression in it. It
/// returns void, or bool: false leaves the (possibly new) node's children
/// unvisited, which is what a callback that just substituted a subtree wants.
template <typename FnT> void rewriteExpr(ExprPtr &E, FnT &&Fn) {
  if (detail::descends(Fn, E))
    forEachChild(*E, [&](ExprPtr &C) { rewriteExpr(C, Fn); });
}

/// Pre-order walk of every statement in the subtree of \p S, \p S
/// included, left to right. \p Fn(Stmt &) returns void, or bool: false
/// skips the statement's sub-statements.
template <typename FnT> void forEachStmt(Stmt &S, FnT &&Fn) {
  detail::walkStmts<Stmt>(S, Fn);
}

/// Const form of forEachStmt: \p Fn receives `const Stmt &`.
template <typename FnT> void forEachStmt(const Stmt &S, FnT &&Fn) {
  detail::walkStmts<const Stmt>(S, Fn);
}

/// Calls \p Fn on every statement's own top-level expressions in the subtree
/// of \p S, in forEachStmt order: `ExprPtr &` slots for a mutable \p S,
/// `const Expr &` for a const one. Combine with visitExpr or rewriteExpr to
/// reach every subexpression.
template <typename FnT> void forEachExpr(Stmt &S, FnT &&Fn) {
  forEachStmt(S, [&](Stmt &Sub) { forEachChild(Sub, Fn); });
}

template <typename FnT> void forEachExpr(const Stmt &S, FnT &&Fn) {
  forEachStmt(S, [&](const Stmt &Sub) { forEachChild(Sub, Fn); });
}

/// Every expression node in the subtree of \p S: visitExpr over each of
/// forEachExpr's expressions, in that order. \p Fn as in visitExpr.
template <typename FnT> void visitExprs(const Stmt &S, FnT &&Fn) {
  forEachExpr(S, [&](const Expr &Top) { visitExpr(Top, Fn); });
}

//===----------------------------------------------------------------------===//
// Loop nests, substitution, equality, folding
//===----------------------------------------------------------------------===//

/// Returns the chain of perfectly nested loops rooted at \p Root: Root, then
/// its only-statement child loop, and so on. Always contains at least Root.
std::vector<ForStmt *> perfectNest(ForStmt &Root);

/// Returns the full nesting depth of the loop nest rooted at \p Root: the
/// longest chain of loops reachable by descending through bodies (not
/// necessarily perfectly nested).
int loopNestDepth(const ForStmt &Root);

/// Returns true when the nest rooted at \p Root is perfectly nested: every
/// body down to the innermost loop contains exactly one statement, a loop.
bool isPerfectNest(const ForStmt &Root);

/// Replaces every VarRef to \p Name inside \p E with a clone of \p
/// Replacement, returning the (possibly new) expression.
ExprPtr substituteVar(ExprPtr E, const std::string &Name,
                      const Expr &Replacement);

/// Replaces VarRefs in all expressions of the statement subtree.
void substituteVarInStmt(Stmt &S, const std::string &Name,
                         const Expr &Replacement);

/// Structural expression equality.
bool exprEquals(const Expr &A, const Expr &B);

/// Structural statement equality: pragmas and region names are compared,
/// source locations are ignored. Blocks are compared modulo redundant
/// nesting — a block whose only statement is an unnamed, pragma-free block
/// is equivalent to that inner block (the unparser/parser pair introduces
/// such wrappers around region bodies).
bool stmtEquals(const Stmt &A, const Stmt &B);

/// Program equality used by the verifier's unparse→reparse round-trip check.
/// Globals and main-body statements are compared as one combined sequence
/// because reparsing printed output may reclassify leading body declarations
/// as globals.
bool programEquals(const Program &A, const Program &B);

/// Collects the names of all scalar variables referenced in \p E.
void collectVars(const Expr &E, std::set<std::string> &Out);

/// Collects names of arrays referenced in \p E.
void collectArrays(const Expr &E, std::set<std::string> &Out);

/// Returns true if expression \p E references variable \p Name.
bool referencesVar(const Expr &E, const std::string &Name);

/// Returns true if the statement subtree mentions \p Name: an expression
/// references it, or a loop variable or a declaration is named \p Name.
bool stmtReferencesVar(const Stmt &S, const std::string &Name);

/// Evaluates \p E when it is a compile-time integer constant.
std::optional<int64_t> evalConstInt(const Expr &E);

/// Folds constant subexpressions and algebraic identities (x+0, x*1, 1*x,
/// min/max of constants). Transformation-generated bounds go through this so
/// emitted code stays readable.
ExprPtr foldExpr(ExprPtr E);

/// Collects the outermost loops inside \p B in source order, descending
/// through nested plain blocks but not into loop bodies. (Shared by the CLI
/// workflows and region discovery; formerly private to locus_cli.)
void collectOuterLoops(const Block &B, std::vector<const ForStmt *> &Out);

/// Collects every loop inside \p B — nest roots and nested loops alike —
/// descending through blocks, loop bodies and both if branches.
void collectAllLoops(const Block &B, std::vector<const ForStmt *> &Out);

/// Stable hash of a code region's unparsed text; Section II uses this key to
/// warn when the source drifted under a saved optimization program.
uint64_t hashRegion(const Block &Region);

} // namespace cir
} // namespace locus

#endif // LOCUS_CIR_ASTUTILS_H
