// Engine abstraction for the Table V comparison.
//
// The paper compares the RLC index against three graph engines (two
// anonymized commercial systems and Virtuoso). Those systems are not
// runnable offline, so this module provides three engine *archetypes* that
// bracket how real engines evaluate recursive property paths — a global
// fixpoint, tuple-at-a-time and set-at-a-time evaluation. They reproduce
// the evaluation strategies the paper compares against, not any one
// system's absolute speed:
//
//   RecursiveJoinEngine   relational semi-naive fixpoint (recursive CTE /
//                         SPARQL transitive-closure style): computes the
//                         reachable relation globally, then probes (s,t).
//   VolcanoEngine         tuple-at-a-time iterator pipeline with per-tuple
//                         virtual dispatch over the product automaton.
//   FrontierEngine        set-at-a-time frontier materialization with
//                         hash-set deduplication (Virtuoso-style property
//                         path evaluation).
//   RlcHybridEngine       the paper's approach: a single index lookup for
//                         RLC constraints; index + online traversal for
//                         extended constraints such as Q4 = a+ ∘ b+ (§VI-C).
//
// All engines answer the same PathConstraint queries, so the bench can
// report the paper's SU (speed-up) and BEP (break-even point) metrics.

#pragma once

#include <memory>
#include <string>

#include "rlc/automaton/path_constraint.h"
#include "rlc/graph/digraph.h"

namespace rlc {

/// A query engine bound to one graph.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Human-readable engine name for benchmark tables.
  virtual std::string name() const = 0;

  /// Evaluates the boolean reachability query (s, t, constraint).
  virtual bool Evaluate(VertexId s, VertexId t, const PathConstraint& constraint) = 0;
};

}  // namespace rlc
