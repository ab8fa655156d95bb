// The paper's Figure-1 workload: a structured mesh (Multiblock Parti)
// coupled to an unstructured mesh (Chaos) through an interface mapping.
//
// Section 5.1 instantiates it with a 256x256 regular mesh and a 65536-point
// irregular mesh — equal counts, i.e. the interface remaps the *whole* mesh
// between its regular (i,j) numbering and an irregular point numbering.
// This header packages that workload for the single-program experiments
// (Tables 1 and 2) and the examples; the two-program variant (Tables 3/4)
// reuses the same pieces on each side.
//
// Phases (Figure 1):
//   Loop 1: 4-point stencil sweep over the regular mesh      (Parti)
//   Loop 2: copy regular mesh -> irregular mesh              (Meta-Chaos)
//   Loop 3: edge sweep over the unstructured mesh            (Chaos)
//   Loop 4: copy irregular mesh -> regular mesh              (Meta-Chaos)
#pragma once

#include <memory>
#include <optional>

#include "chaos/irreg_copy.h"
#include "chaos/irregular_loop.h"
#include "chaos/partition.h"
#include "core/data_move.h"
#include "meshgen/meshgen.h"
#include "parti/section_copy.h"
#include "parti/stencil.h"

namespace mc::workloads {

struct CoupledMeshConfig {
  layout::Index rows = 256;
  layout::Index cols = 256;
  std::uint64_t seed = 12345;
  chaos::TranslationTable::Storage storage =
      chaos::TranslationTable::Storage::kDistributed;
  /// Era-calibrated per-element Chaos dereference cost charged to the
  /// virtual clock (~30us/element reproduces the per-element schedule cost
  /// the paper's Table 2 implies for the SP2).  Zero disables the model.
  double derefCostSeconds = 30e-6;
};

/// Single-program coupled meshes with all inspectors and executors.
class CoupledMesh {
 public:
  /// Collective constructor: builds the meshes, fills initial values, and
  /// generates the interface mapping and edge list (deterministic in seed).
  CoupledMesh(transport::Comm& comm, const CoupledMeshConfig& config);

  layout::Index meshPoints() const { return config_.rows * config_.cols; }
  transport::Comm& comm() const { return *comm_; }
  parti::BlockDistArray<double>& regular() { return *a_; }
  chaos::IrregArray<double>& irregularX() { return *x_; }
  chaos::IrregArray<double>& irregularY() { return *y_; }

  // --- inspectors -----------------------------------------------------------
  /// Parti inspector: ghost-fill schedule for the stencil sweep.
  void buildRegularInspector();
  /// Chaos inspector: localize the edge endpoint references.
  void buildIrregularInspector();
  /// Meta-Chaos schedules for Loops 2 and 4 (forward + reverse).
  void buildMetaChaosCopySchedules(core::Method method);
  /// Chaos-native baseline for the same copies: builds a translation table
  /// describing the regular mesh pointwise plus the copy schedules
  /// (the Table 2 baseline).
  void buildChaosCopySchedules();

  // --- executors (per time-step pieces) --------------------------------------
  /// Loop 1: stencil sweep over the regular mesh.
  void regularSweep();
  /// Loop 3: edge sweep over the unstructured mesh.
  void irregularSweep();
  /// Loops 2 and 4 using the Meta-Chaos schedules.
  void copyRegToIrregMC();
  void copyIrregToRegMC();
  /// Loops 2 and 4 using the Chaos-native schedules.
  void copyRegToIrregChaos();
  void copyIrregToRegChaos();

  /// One full Figure-1 time-step using Meta-Chaos copies.
  void timeStepMC();

  /// Global checksum of both meshes (collective); pins down correctness of
  /// benchmark configurations across methods.
  double checksum();

 private:
  transport::Comm* comm_;
  CoupledMeshConfig config_;
  std::shared_ptr<const chaos::TranslationTable> table_;
  std::unique_ptr<parti::BlockDistArray<double>> a_;
  std::unique_ptr<chaos::IrregArray<double>> x_;
  std::unique_ptr<chaos::IrregArray<double>> y_;
  std::vector<layout::Index> myIa_, myIb_;  // my slice of the edge arrays
  meshgen::InterfaceMapping mapping_;       // full remap (replicated)

  // Inspector products, built once and kept for the run.  The Meta-Chaos
  // copy schedules come from the rank's core::ScheduleCache (rebuilding
  // with unchanged inputs is a hit that hands back the same run-compressed
  // schedule).  The ghost schedule lives in its exchanger, whose persistent
  // split-phase executor lets steady-state sweeps overlap the halo traffic
  // with the interior update and recycle message buffers.
  std::optional<parti::GhostExchanger<double>> ghosts_;
  std::optional<chaos::EdgeSweep<double>> edgeSweep_;
  std::shared_ptr<const core::McSchedule> mcRegToIrreg_;
  std::shared_ptr<const core::McSchedule> mcIrregToReg_;
  // Chaos-native baseline state: shadow unpadded copy of the regular mesh
  // plus its pointwise translation table (the extra memory the paper says
  // Meta-Chaos avoids).
  std::shared_ptr<const chaos::TranslationTable> regTable_;
  std::vector<double> regShadow_;
  std::vector<layout::Index> shadowPaddedOffsets_;  // shadow[i] <-> padded[off]
  std::shared_ptr<const sched::Schedule> chRegToIrreg_;
  std::shared_ptr<const sched::Schedule> chIrregToReg_;
  std::vector<double> scratch_;

  void syncShadowFromMesh();
  void syncMeshFromShadow();
};

}  // namespace mc::workloads
