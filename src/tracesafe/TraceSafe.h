//===----------------------------------------------------------------------===//
///
/// \file
/// Umbrella header: the whole TraceSafe public API.
///
/// TraceSafe is an executable model of Ševčík's PLDI 2011 "Safe
/// Optimisations for Shared-Memory Concurrent Programs": trace semantics,
/// the semantic elimination/reordering transformations and their decision
/// procedures, the simple concurrent language with the Fig 10/11 syntactic
/// rules, the verification harness for the DRF and out-of-thin-air
/// guarantees, and the TSO/PSO machines of the §8 extension.
///
/// Typical entry points:
///  - parseProgram / printProgram               (lang/Parser.h, Printer.h)
///  - programTraceset, and the SC queries on it:
///    programBehaviours / isProgramDrf          (lang/Explore.h)
///  - checkElimination / checkReordering /
///    checkEliminationThenReordering            (semantics/*.h)
///  - findRewriteSites / applyRewrite           (opt/Rewrite.h)
///  - checkDrfGuarantee / checkThinAir          (verify/Checks.h)
///  - checkTheoremsOnChain                      (verify/Theorems.h)
///  - tsoBehaviours / explainTsoByTransformations (tso/*.h)
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_TRACESAFE_H
#define TRACESAFE_TRACESAFE_H

#include "lang/Ast.h"
#include "lang/Explore.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "lang/SmallStep.h"
#include "opt/Pipeline.h"
#include "opt/Rewrite.h"
#include "opt/Unsafe.h"
#include "semantics/Eliminable.h"
#include "semantics/Elimination.h"
#include "semantics/Reorderable.h"
#include "semantics/Reordering.h"
#include "semantics/Unelimination.h"
#include "support/Rng.h"
#include "support/Symbol.h"
#include "trace/Action.h"
#include "trace/Enumerate.h"
#include "trace/HappensBefore.h"
#include "trace/Interleaving.h"
#include "trace/Trace.h"
#include "trace/Traceset.h"
#include "tso/Litmus.h"
#include "tso/TsoExplain.h"
#include "tso/TsoMachine.h"
#include "verify/Checks.h"
#include "verify/ProgramGen.h"
#include "verify/Theorems.h"

#endif // TRACESAFE_TRACESAFE_H
