#include "workloads/coupled_mesh.h"

#include "core/adapters/chaos_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/schedule_cache.h"

namespace mc::workloads {

using layout::Index;
using layout::Point;
using layout::RegularSection;
using layout::Shape;

CoupledMesh::CoupledMesh(transport::Comm& comm,
                         const CoupledMeshConfig& config)
    : comm_(&comm), config_(config) {
  const Index n = meshPoints();
  // Regular mesh: BLOCK x BLOCK with a one-cell halo for the stencil.
  a_ = std::make_unique<parti::BlockDistArray<double>>(
      comm, Shape::of({config.rows, config.cols}), /*ghost=*/1);
  a_->fillByPoint([&](const Point& p) {
    return 1.0 + 1e-3 * static_cast<double>(p[0] * config_.cols + p[1]);
  });

  // Irregular mesh: the same points under a random renumbering, randomly
  // partitioned (a stand-in for a partitioned CFD mesh).
  const auto perm = meshgen::nodePermutation(n, config.seed);
  const auto mine =
      chaos::randomPartition(n, comm.size(), comm.rank(), config.seed + 1);
  table_ = std::make_shared<const chaos::TranslationTable>(
      chaos::TranslationTable::build(comm, mine, n, config.storage,
                                     config.derefCostSeconds));
  x_ = std::make_unique<chaos::IrregArray<double>>(comm, table_, mine);
  y_ = std::make_unique<chaos::IrregArray<double>>(comm, table_, mine);
  x_->fillByGlobal([](Index) { return 0.0; });
  y_->fillByGlobal([](Index) { return 0.0; });

  // Unstructured connectivity: grid-graph edges under the renumbering,
  // block-distributed by edge id.
  const meshgen::EdgeList edges = meshgen::renumberNodes(
      meshgen::gridEdges(config.rows, config.cols), perm);
  const auto myEdges =
      chaos::blockPartition(edges.numEdges(), comm.size(), comm.rank());
  myIa_.reserve(myEdges.size());
  myIb_.reserve(myEdges.size());
  for (Index e : myEdges) {
    myIa_.push_back(edges.ia[static_cast<size_t>(e)]);
    myIb_.push_back(edges.ib[static_cast<size_t>(e)]);
  }

  // Interface: full remap, regular point k <-> irregular point perm[k].
  mapping_ = meshgen::regToIrregMapping(config.rows, config.cols, perm);
}

void CoupledMesh::buildRegularInspector() {
  // The exchanger builds the ghost schedule (no communication) and binds
  // the persistent split-phase executor the steady-state sweeps run on.
  comm_->compute([&] { ghosts_.emplace(*a_); });
}

void CoupledMesh::buildIrregularInspector() {
  edgeSweep_.emplace(*comm_, *table_, myIa_, myIb_);
}

void CoupledMesh::buildMetaChaosCopySchedules(core::Method method) {
  // Source set: the whole regular mesh in row-major order (= mapping order).
  core::SetOfRegions regSet;
  regSet.add(core::Region::section(
      RegularSection::box({0, 0}, {config_.rows - 1, config_.cols - 1})));
  // Destination set: the irregular points in mapping order.
  core::SetOfRegions irregSet;
  irregSet.add(core::Region::indices(mapping_.irreg));
  core::DistObject chaosObj = core::ChaosAdapter::describe(*x_);
  if (method == core::Method::kDuplication &&
      table_->storage() == chaos::TranslationTable::Storage::kDistributed) {
    // The duplication method's "exchange data descriptors" step: every
    // processor obtains the full translation table.  This replication is
    // charged to the schedule-build time — it is the cost that makes
    // duplication unattractive for Chaos data.
    auto replicated = std::make_shared<const chaos::TranslationTable>(
        chaos::TranslationTable::replicatedFromEntries(
            table_->gatherFull(*comm_), comm_->size(),
            table_->modeledQueryCost()));
    chaosObj = core::DistObject("chaos", std::move(replicated));
  }
  mcRegToIrreg_ = core::defaultScheduleCache().getOrBuild(
      *comm_, core::PartiAdapter::describe(*a_), regSet, chaosObj, irregSet,
      method);
  mcIrregToReg_ = std::make_shared<const core::McSchedule>(
      core::reverseSchedule(*mcRegToIrreg_));
}

void CoupledMesh::buildChaosCopySchedules() {
  // The Chaos-only route (paper Section 5.1): treat the regular mesh
  // pointwise.  Build a translation table describing the regular mesh's
  // distribution over an *unpadded* shadow buffer, then compute both copy
  // schedules with Chaos dereferences.
  const RegularSection box = a_->ownedBox();
  std::vector<Index> regMine;
  regMine.reserve(static_cast<size_t>(box.numElements()));
  box.forEach([&](const Point& p, Index) {
    regMine.push_back(p[0] * config_.cols + p[1]);
  });
  regTable_ = std::make_shared<const chaos::TranslationTable>(
      chaos::TranslationTable::build(*comm_, regMine, meshPoints(),
                                     config_.storage,
                                     config_.derefCostSeconds));
  regShadow_.assign(regMine.size(), 0.0);
  // Cache the padded offsets for the shadow<->mesh copies once.
  const parti::PartiAddr addr = a_->desc().addrOf(comm_->rank());
  shadowPaddedOffsets_.clear();
  shadowPaddedOffsets_.reserve(regMine.size());
  box.forEach([&](const Point& p, Index) {
    shadowPaddedOffsets_.push_back(addr.offsetOf(p));
  });

  // reg -> irreg: my mapping entries are the regular points I own.
  std::vector<Index> srcOffsets;
  std::vector<Index> dstGlobals;
  srcOffsets.reserve(regMine.size());
  dstGlobals.reserve(regMine.size());
  for (size_t i = 0; i < regMine.size(); ++i) {
    srcOffsets.push_back(static_cast<Index>(i));
    dstGlobals.push_back(
        mapping_.irreg[static_cast<size_t>(regMine[i])]);
  }
  chRegToIrreg_ = std::make_shared<const sched::Schedule>(
      chaos::buildIrregCopySchedule(*comm_, *table_, srcOffsets, dstGlobals));
  // irreg -> reg reuses the reversed schedule — one dereference pass in
  // total, which is why the paper finds the Chaos build and the Meta-Chaos
  // cooperation build "very similar" in cost.
  chIrregToReg_ =
      std::make_shared<const sched::Schedule>(sched::reverse(*chRegToIrreg_));
}

void CoupledMesh::regularSweep() {
  MC_REQUIRE(ghosts_.has_value(), "buildRegularInspector first");
  parti::stencilSweep(*a_, *ghosts_, scratch_);
}

void CoupledMesh::irregularSweep() {
  MC_REQUIRE(edgeSweep_.has_value(), "buildIrregularInspector first");
  edgeSweep_->run(*x_, *y_);
}

void CoupledMesh::copyRegToIrregMC() {
  MC_REQUIRE(mcRegToIrreg_ != nullptr, "buildMetaChaosCopySchedules first");
  core::dataMove<double>(*comm_, *mcRegToIrreg_, a_->raw(), x_->raw());
}

void CoupledMesh::copyIrregToRegMC() {
  MC_REQUIRE(mcIrregToReg_ != nullptr, "buildMetaChaosCopySchedules first");
  core::dataMove<double>(*comm_, *mcIrregToReg_, x_->raw(), a_->raw());
}

void CoupledMesh::syncShadowFromMesh() {
  comm_->compute([&] {
    const std::span<const double> padded = a_->raw();
    for (size_t i = 0; i < regShadow_.size(); ++i) {
      regShadow_[i] =
          padded[static_cast<size_t>(shadowPaddedOffsets_[i])];
    }
  });
}

void CoupledMesh::syncMeshFromShadow() {
  comm_->compute([&] {
    const std::span<double> padded = a_->raw();
    for (size_t i = 0; i < regShadow_.size(); ++i) {
      padded[static_cast<size_t>(shadowPaddedOffsets_[i])] = regShadow_[i];
    }
  });
}

void CoupledMesh::copyRegToIrregChaos() {
  MC_REQUIRE(chRegToIrreg_ != nullptr, "buildChaosCopySchedules first");
  // The extra copy + extra indirection the paper attributes to the Chaos
  // data-copy path: mesh -> shadow, then the Chaos executor.
  syncShadowFromMesh();
  chaos::executeChaosCopy<double>(*comm_, *chRegToIrreg_, regShadow_,
                                  x_->raw(), comm_->nextUserTag());
}

void CoupledMesh::copyIrregToRegChaos() {
  MC_REQUIRE(chIrregToReg_ != nullptr, "buildChaosCopySchedules first");
  chaos::executeChaosCopy<double>(*comm_, *chIrregToReg_, x_->raw(),
                                  regShadow_, comm_->nextUserTag());
  syncMeshFromShadow();
}

void CoupledMesh::timeStepMC() {
  regularSweep();
  copyRegToIrregMC();
  irregularSweep();
  copyIrregToRegMC();
}

double CoupledMesh::checksum() {
  double local = 0.0;
  comm_->compute([&] {
    const RegularSection box = a_->ownedBox();
    box.forEach([&](const Point& p, Index) { local += a_->at(p); });
    for (double v : x_->raw()) local += v;
    for (double v : y_->raw()) local += v;
  });
  return comm_->allreduceSum(local);
}

}  // namespace mc::workloads
