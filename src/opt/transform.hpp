#pragma once
// The generalized resubstitution transform IR.
//
// A Transform is one proposed structural edit: a target *site* (a stem, or
// a single fanout branch of a stem), an ordered *divisor set* (the existing
// signals the replacement reads, in pin order), and a *replacement
// function* — a constant, a (possibly inverted) single divisor, or a
// library cell instantiated over the divisors. The four paper classes are
// instances of this IR:
//
//   OS2(a,b)      stem site,   1 divisor,  kSignal replacement
//   IS2(a,b)      branch site, 1 divisor,  kSignal replacement
//   OS3(a,b,c)    stem site,   2 divisors, kTwoInput replacement
//   IS3(a,b,c)    branch site, 2 divisors, kTwoInput replacement
//
// and the framework adds two more:
//
//   OSK/ISK       stem/branch site, k >= 3 divisors, kCell replacement
//                 (a new k-input library gate over the divisor set)
//
// Everything downstream of harvesting — the journal, the ATPG/SAT proof
// dispatch, the WAL codec, and the audit log — consumes this IR: they
// iterate `num_divisors()`/`divisor(i)` and switch on `rep.kind`, never on
// the class tag. The class tag survives only as provenance for per-class
// economics (reports, metrics, audit records).

#include <optional>

#include "atpg/atpg.hpp"
#include "netlist/netlist.hpp"

namespace powder {

/// Provenance tag: which harvest pass proposed the transform. The first
/// four values are the paper's classes and are wire-stable — they are
/// persisted in WAL frames and report JSON, so new classes append only.
enum class ResubClass : std::uint8_t {
  kOS2,      ///< stem := existing signal (paper Definition 1)
  kIS2,      ///< branch := existing signal (paper Definition 2)
  kOS3,      ///< stem := new 2-input gate
  kIS3,      ///< branch := new 2-input gate
  kOSK,      ///< stem := new k-input gate, k >= 3
  kISK,      ///< branch := new k-input gate, k >= 3
  /// Retired slot with no producer: the functional-reduction pre-pass
  /// that proposed it is gone. It keeps its column (all zero) in reports,
  /// attribution and the per-class meters until the next format bump.
  kFuncRed,
};

inline constexpr int kNumResubClasses = 7;

const char* resub_class_name(ResubClass c);

/// Backward-compatible alias: the paper-era name for the class tag.
using SubstClass = ResubClass;

/// Memo stamp of a value never computed.
inline constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};
/// Transform::memo_slot of a candidate the selection memo does not track.
inline constexpr std::uint16_t kNoMemoSlot = 0xFFFF;

struct Transform {
  ResubClass cls = ResubClass::kOS2;
  /// Selection memo: pg_c was computed at `gains_epoch`, and the
  /// candidate's slot in the SelectionMemo of its list (kNoMemoSlot before
  /// the first round scores it, and past the memo's capacity). Declared
  /// here so they fill padding — a harvest holds every candidate at once.
  bool pg_c_memo = false;
  std::uint16_t memo_slot = kNoMemoSlot;
  GateId target = kNullGate;            ///< substituted stem signal
  std::optional<FanoutRef> branch;      ///< set for input substitutions
  CellId new_cell = kInvalidCell;       ///< library cell for OS3/IS3/OSK/ISK
  ReplacementFunction rep;              ///< what replaces the signal
  // Pin order note: `new_cell` is instantiated with the ordered divisor
  // set as fanins ({rep.b, rep.c} for kTwoInput, rep.divisors for kCell).

  // Pre-selection gains (paper §3.3/§3.5), refreshed before every use.
  double pg_a = 0.0;  ///< >= 0, removed capacitance
  double pg_b = 0.0;  ///< <= 0, added load on the substituting signal(s)
  double pg_c = 0.0;  ///< TFO re-estimation; filled for the shortlist only

  /// Selection memo (select_power_red_subst): the Netlist::epoch() at which
  /// validity and pg_a/pg_b were last computed. Only meaningful against
  /// the netlist the candidate was harvested from.
  std::uint64_t gains_epoch = kNoEpoch;

  double preselect_gain() const { return pg_a + pg_b; }
  double total_gain() const { return pg_a + pg_b + pg_c; }

  ReplacementSite site() const { return ReplacementSite{target, branch}; }

  /// Ordered divisor set of the replacement (empty for constants).
  int num_divisors() const { return rep.num_sources(); }
  GateId divisor(int i) const { return rep.source(i); }
};

/// Backward-compatible alias: the paper-era name for the IR.
using CandidateSub = Transform;

const char* subst_class_name(SubstClass c);

}  // namespace powder
