// MultiblockArray: the "multiblock" in Multiblock Parti.
//
// Multiblock codes decompose a complex geometry into several logically
// rectangular blocks (grids); each block is independently distributed over
// the processors, and the blocks are stitched together by *interfaces* —
// conformant section pairs copied at every time-step (the paper's Section
// 5.3 scenario: "a multiblock computational fluid dynamics code, where
// inter-block boundaries must be updated at every time-step").
//
// The class packages: per-block distributed arrays with halos, ghost
// schedules, and registered interfaces with their section-copy schedules —
// inspector (buildSchedules) / executor (updateInterfaces, exchangeGhosts)
// style, all schedules reusable across steps.
#pragma once

#include <memory>

#include "parti/ghost.h"
#include "parti/section_copy.h"

namespace mc::parti {

template <typename T>
class MultiblockArray {
 public:
  /// Collective: every block is distributed over the whole program.
  MultiblockArray(transport::Comm& comm,
                  std::vector<layout::Shape> blockShapes, int ghost)
      : comm_(&comm) {
    MC_REQUIRE(!blockShapes.empty(), "a multiblock array needs blocks");
    blocks_.reserve(blockShapes.size());
    for (const layout::Shape& shape : blockShapes) {
      blocks_.push_back(
          std::make_unique<BlockDistArray<T>>(comm, shape, ghost));
    }
  }

  int numBlocks() const { return static_cast<int>(blocks_.size()); }
  BlockDistArray<T>& block(int b) {
    return *blocks_.at(static_cast<size_t>(b));
  }
  const BlockDistArray<T>& block(int b) const {
    return *blocks_.at(static_cast<size_t>(b));
  }
  transport::Comm& comm() const { return *comm_; }

  /// Registers an interface: at update time, `srcSec` of block `srcBlock`
  /// is copied onto `dstSec` of block `dstBlock` (conformant sections,
  /// dimension-wise pairing).  Call before buildSchedules.
  void addInterface(int srcBlock, layout::RegularSection srcSec, int dstBlock,
                    layout::RegularSection dstSec) {
    MC_REQUIRE(!built_, "interfaces must be registered before buildSchedules");
    MC_REQUIRE(srcBlock >= 0 && srcBlock < numBlocks() && dstBlock >= 0 &&
               dstBlock < numBlocks());
    interfaces_.push_back(Interface{srcBlock, dstBlock, srcSec, dstSec, {}});
  }

  /// Inspector: builds the ghost schedules and every interface's
  /// section-copy schedule.  Collective; call once.
  void buildSchedules() {
    MC_REQUIRE(!built_, "buildSchedules must run once");
    ghostScheds_.reserve(blocks_.size());
    for (const auto& blk : blocks_) {
      ghostScheds_.push_back(buildGhostSchedule(*blk));
    }
    for (Interface& iface : interfaces_) {
      iface.sched = buildSectionCopySchedule(
          block(iface.srcBlock).desc(), iface.srcSec,
          block(iface.dstBlock).desc(), iface.dstSec, comm_->rank());
    }
    built_ = true;
  }

  /// Executor: runs every registered interface copy, in registration order.
  /// Collective.
  void updateInterfaces() {
    MC_REQUIRE(built_, "buildSchedules first");
    for (const Interface& iface : interfaces_) {
      sectionCopy(iface.sched, block(iface.srcBlock), block(iface.dstBlock));
    }
  }

  /// Executor: fills every block's halo from its own block's owners.
  /// Collective.
  void exchangeAllGhosts() {
    MC_REQUIRE(built_, "buildSchedules first");
    for (size_t b = 0; b < blocks_.size(); ++b) {
      exchangeGhosts(*blocks_[b], ghostScheds_[b]);
    }
  }

  /// Collective checksum over all owned elements of all blocks.
  double checksum() const {
    double local = 0;
    for (const auto& blk : blocks_) {
      blk->ownedBox().forEach([&](const layout::Point& p, layout::Index) {
        local += static_cast<double>(blk->at(p));
      });
    }
    return comm_->allreduceSum(local);
  }

 private:
  struct Interface {
    int srcBlock;
    int dstBlock;
    layout::RegularSection srcSec;
    layout::RegularSection dstSec;
    Schedule sched;
  };

  transport::Comm* comm_;
  std::vector<std::unique_ptr<BlockDistArray<T>>> blocks_;
  std::vector<Schedule> ghostScheds_;
  std::vector<Interface> interfaces_;
  bool built_ = false;
};

}  // namespace mc::parti
