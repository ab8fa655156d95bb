#include "oracle/elementwise_builder.h"

#include <algorithm>

#include "core/builder_internal.h"
#include "oracle/run_reference.h"

namespace mc::core::elementwise {
namespace {

using namespace core::detail;
using layout::Index;

/// One chunk's ownership table: one (owner, offset) entry per position.
struct ChunkInfo {
  Index lo = 0;
  Index size = 0;
  // at[k] = {owner, offset} for position lo + k; owner -1 = unset.
  std::vector<int> owner;
  std::vector<Index> offset;

  explicit ChunkInfo(Index lo_, Index size_)
      : lo(lo_),
        size(size_),
        owner(static_cast<size_t>(size_), -1),
        offset(static_cast<size_t>(size_), 0) {}

  void put(Index lin, int who, Index off, const char* side) {
    MC_REQUIRE(lin >= lo && lin < lo + size,
               "%s element at position %lld routed to the wrong chunk", side,
               static_cast<long long>(lin));
    const auto k = static_cast<size_t>(lin - lo);
    MC_REQUIRE(owner[k] == -1, "%s linearization visits position %lld twice",
               side, static_cast<long long>(lin));
    owner[k] = who;
    offset[k] = off;
  }

  void fillFromRuns(const std::vector<std::vector<LinRun>>& rows,
                    const char* side) {
    for (size_t sender = 0; sender < rows.size(); ++sender) {
      for (const LinRun& run : rows[sender]) {
        for (Index k = 0; k < run.count; ++k) {
          put(run.lin + k, static_cast<int>(sender),
              run.off + k * run.offStride, side);
        }
      }
    }
  }

  void checkComplete(const char* side) const {
    for (Index k = 0; k < size; ++k) {
      MC_REQUIRE(owner[static_cast<size_t>(k)] != -1,
                 "%s linearization skips position %lld", side,
                 static_cast<long long>(lo + k));
    }
  }

  std::size_t tableBytes() const {
    return static_cast<size_t>(size) * (sizeof(int) + sizeof(Index));
  }
};

// The assemblers expand each marching order into per-element offsets and
// compress the lists last (sched::reference::laneOf / compressPairs).  Rows
// arrive chunk-ordered, so per-peer lanes stay in linearization order.

void assembleSends(const std::vector<std::vector<SendRun>>& rows, int me,
                   bool allowLocal, sched::Schedule& plan,
                   std::vector<SendSeg>* segs = nullptr) {
  std::vector<std::vector<Index>> byPeer;
  std::vector<std::pair<Index, Index>> pairs;
  for (const auto& row : rows) {
    for (const SendRun& run : row) {
      if (segs) appendSendRun(*segs, run);
      if (allowLocal && run.dstOwner == me) {
        for (Index k = 0; k < run.count; ++k) {
          pairs.emplace_back(run.srcOff + k * run.srcStride,
                             run.dstOff + k * run.dstStride);
        }
        continue;
      }
      if (byPeer.size() <= static_cast<size_t>(run.dstOwner)) {
        byPeer.resize(static_cast<size_t>(run.dstOwner) + 1);
      }
      auto& offsets = byPeer[static_cast<size_t>(run.dstOwner)];
      for (Index k = 0; k < run.count; ++k) {
        offsets.push_back(run.srcOff + k * run.srcStride);
      }
    }
  }
  plan.sends = sched::reference::laneOf(byPeer);
  plan.localRuns = sched::reference::compressPairs(pairs);
}

void assembleRecvs(const std::vector<std::vector<RecvRun>>& rows,
                   sched::Schedule& plan,
                   std::vector<RecvSeg>* segs = nullptr) {
  std::vector<std::vector<Index>> byPeer;
  for (const auto& row : rows) {
    for (const RecvRun& run : row) {
      if (segs) appendRecvRun(*segs, run);
      if (byPeer.size() <= static_cast<size_t>(run.srcOwner)) {
        byPeer.resize(static_cast<size_t>(run.srcOwner) + 1);
      }
      auto& offsets = byPeer[static_cast<size_t>(run.srcOwner)];
      for (Index k = 0; k < run.count; ++k) {
        offsets.push_back(run.dstOff + k * run.dstStride);
      }
    }
  }
  plan.recvs = sched::reference::laneOf(byPeer);
}

/// Obtains one side's ownership info for this processor's chunk: local
/// enumeration when the descriptor allows it, else the collective owned-
/// element enumeration routed to the chunk owners.  Must be called by every
/// processor of the program.
ChunkInfo chunkInfoIntra(transport::Comm& comm, const LibraryAdapter& lib,
                         const DistObject& obj, const SetOfRegions& set,
                         Index n, Index chunk, const char* side,
                         std::size_t& tableBytes) {
  const int me = comm.rank();
  const Index lo = chunk * me;
  const Index size = std::max<Index>(0, std::min(n, lo + chunk) - lo);
  ChunkInfo info(lo, size);
  if (lib.supportsLocalEnumeration(obj)) {
    comm.compute([&] {
      lib.enumerateRange(obj, set, lo, lo + size,
                         [&](Index lin, int owner, Index off) {
                           info.put(lin, owner, off, side);
                         });
    });
  } else {
    const std::vector<LinLoc> owned = lib.enumerateOwned(obj, set, comm);
    auto rows = comm.alltoall(comm.computeValue(
        [&] { return routeToChunks(owned, chunk, comm.size()); }));
    comm.compute([&] { info.fillFromRuns(rows, side); });
  }
  comm.compute([&] { info.checkComplete(side); });
  tableBytes += info.tableBytes();
  return info;
}

McSchedule buildIntraCooperation(transport::Comm& comm,
                                 const LibraryAdapter& srcLib,
                                 const DistObject& srcObj,
                                 const SetOfRegions& srcSet,
                                 const LibraryAdapter& dstLib,
                                 const DistObject& dstObj,
                                 const SetOfRegions& dstSet, Index n,
                                 std::size_t& tableBytes) {
  McSchedule out;
  out.numElements = n;
  out.plan.bufferLocalCopies = false;
  const int np = comm.size();
  const int me = comm.rank();
  const Index chunk = (n + np - 1) / np;

  const ChunkInfo src = chunkInfoIntra(comm, srcLib, srcObj, srcSet, n, chunk,
                                       "source", tableBytes);
  const ChunkInfo dst = chunkInfoIntra(comm, dstLib, dstObj, dstSet, n, chunk,
                                       "destination", tableBytes);

  std::vector<std::vector<SendRun>> sendTo(static_cast<size_t>(np));
  std::vector<std::vector<RecvRun>> recvTo(static_cast<size_t>(np));
  comm.compute([&] {
    for (Index k = 0; k < src.size; ++k) {
      const auto kk = static_cast<size_t>(k);
      const int sOwner = src.owner[kk];
      const int dOwner = dst.owner[kk];
      emitSend(sendTo[static_cast<size_t>(sOwner)], src.lo + k, src.offset[kk],
               dst.offset[kk], dOwner);
      if (dOwner != sOwner) {
        emitRecv(recvTo[static_cast<size_t>(dOwner)], src.lo + k,
                 dst.offset[kk], sOwner);
      }
    }
  });
  auto mySends = comm.alltoall(sendTo);
  auto myRecvs = comm.alltoall(recvTo);
  comm.compute([&] {
    assembleSends(mySends, me, /*allowLocal=*/true, out.plan, &out.sendSegs);
    assembleRecvs(myRecvs, out.plan, &out.recvSegs);
  });
  out.hasProvenance = true;
  return out;
}

McSchedule buildIntraDuplication(transport::Comm& comm,
                                 const LibraryAdapter& srcLib,
                                 const DistObject& srcObj,
                                 const SetOfRegions& srcSet,
                                 const LibraryAdapter& dstLib,
                                 const DistObject& dstObj,
                                 const SetOfRegions& dstSet, Index n,
                                 std::size_t& tableBytes) {
  MC_REQUIRE(srcLib.supportsLocalEnumeration(srcObj) &&
                 dstLib.supportsLocalEnumeration(dstObj),
             "the duplication method requires locally enumerable "
             "descriptors on both sides; use cooperation instead");
  McSchedule out;
  out.numElements = n;
  out.plan.bufferLocalCopies = false;
  comm.advance(2.0 *
               (srcLib.modeledElementDereferenceCost(srcObj) +
                dstLib.modeledElementDereferenceCost(dstObj)) *
               static_cast<double>(n) / comm.size());
  const int me = comm.rank();
  comm.compute([&] {
    std::vector<int> srcOwner(static_cast<size_t>(n));
    std::vector<Index> srcOff(static_cast<size_t>(n));
    std::vector<int> dstOwner(static_cast<size_t>(n));
    std::vector<Index> dstOff(static_cast<size_t>(n));
    tableBytes += 2 * static_cast<size_t>(n) * (sizeof(int) + sizeof(Index));
    srcLib.enumerateAll(srcObj, srcSet, [&](Index lin, int owner, Index off) {
      srcOwner[static_cast<size_t>(lin)] = owner;
      srcOff[static_cast<size_t>(lin)] = off;
    });
    dstLib.enumerateAll(dstObj, dstSet, [&](Index lin, int owner, Index off) {
      dstOwner[static_cast<size_t>(lin)] = owner;
      dstOff[static_cast<size_t>(lin)] = off;
    });
    std::vector<std::vector<Index>> sendBy;
    std::vector<std::vector<Index>> recvBy;
    std::vector<std::pair<Index, Index>> pairs;
    for (Index lin = 0; lin < n; ++lin) {
      const auto ll = static_cast<size_t>(lin);
      const int s = srcOwner[ll];
      const int d = dstOwner[ll];
      if (s == me) {
        emitSend(out.sendSegs, lin, srcOff[ll], dstOff[ll],
                 static_cast<Index>(d));
      } else if (d == me) {
        emitRecv(out.recvSegs, lin, dstOff[ll], static_cast<Index>(s));
      }
      if (s == me && d == me) {
        pairs.emplace_back(srcOff[ll], dstOff[ll]);
      } else if (s == me) {
        if (sendBy.size() <= static_cast<size_t>(d)) {
          sendBy.resize(static_cast<size_t>(d) + 1);
        }
        sendBy[static_cast<size_t>(d)].push_back(srcOff[ll]);
      } else if (d == me) {
        if (recvBy.size() <= static_cast<size_t>(s)) {
          recvBy.resize(static_cast<size_t>(s) + 1);
        }
        recvBy[static_cast<size_t>(s)].push_back(dstOff[ll]);
      }
    }
    out.plan.sends = sched::reference::laneOf(sendBy);
    out.plan.recvs = sched::reference::laneOf(recvBy);
    out.plan.localRuns = sched::reference::compressPairs(pairs);
  });
  out.hasProvenance = true;
  return out;
}

McSchedule buildInterCooperationSend(transport::Comm& comm,
                                     const LibraryAdapter& srcLib,
                                     const DistObject& srcObj,
                                     const SetOfRegions& srcSet,
                                     int remoteProgram) {
  McSchedule out;
  out.remoteProgram = remoteProgram;
  out.isSender = true;
  out.plan.bufferLocalCopies = false;
  const Index n = srcSet.numElements();
  out.numElements = n;
  handshakeCount(comm, remoteProgram, n);

  // Ship my ownership info to the destination-side chunk owners.
  const int pd = comm.programInfo(remoteProgram).nprocs;
  const Index chunk = (n + pd - 1) / pd;
  const std::vector<LinLoc> srcOwned =
      srcLib.enumerateOwned(srcObj, srcSet, comm);
  (void)interAlltoall(comm, remoteProgram, comm.computeValue([&] {
                        return routeToChunks(srcOwned, chunk, pd);
                      }));

  // Receive my marching orders back.
  const std::vector<std::vector<SendRun>> empty(static_cast<size_t>(pd));
  auto mySends = interAlltoall(comm, remoteProgram, empty);
  comm.compute([&] {
    assembleSends(mySends, comm.rank(), /*allowLocal=*/false, out.plan);
  });
  return out;
}

McSchedule buildInterCooperationRecv(transport::Comm& comm,
                                     const LibraryAdapter& dstLib,
                                     const DistObject& dstObj,
                                     const SetOfRegions& dstSet,
                                     int remoteProgram,
                                     std::size_t& tableBytes) {
  McSchedule out;
  out.remoteProgram = remoteProgram;
  out.isSender = false;
  out.plan.bufferLocalCopies = false;
  const Index n = dstSet.numElements();
  out.numElements = n;
  handshakeCount(comm, remoteProgram, n);

  const int me = comm.rank();
  const int np = comm.size();
  const int ps = comm.programInfo(remoteProgram).nprocs;
  const Index chunk = (n + np - 1) / np;

  const std::vector<std::vector<LinRun>> emptyInfo(static_cast<size_t>(ps));
  auto srcRows = interAlltoall(comm, remoteProgram, emptyInfo);
  const Index lo = chunk * me;
  const Index size = std::max<Index>(0, std::min(n, lo + chunk) - lo);
  ChunkInfo src(lo, size);
  comm.compute([&] {
    src.fillFromRuns(srcRows, "source");
    src.checkComplete("source");
  });
  tableBytes += src.tableBytes();
  const ChunkInfo dst = chunkInfoIntra(comm, dstLib, dstObj, dstSet, n, chunk,
                                       "destination", tableBytes);

  std::vector<std::vector<SendRun>> sendTo(static_cast<size_t>(ps));
  std::vector<std::vector<RecvRun>> recvTo(static_cast<size_t>(np));
  comm.compute([&] {
    for (Index k = 0; k < size; ++k) {
      const auto kk = static_cast<size_t>(k);
      emitSend(sendTo[static_cast<size_t>(src.owner[kk])], lo + k,
               src.offset[kk], dst.offset[kk], dst.owner[kk]);
      emitRecv(recvTo[static_cast<size_t>(dst.owner[kk])], lo + k,
               dst.offset[kk], src.owner[kk]);
    }
  });
  (void)interAlltoall(comm, remoteProgram, sendTo);
  auto myRecvs = comm.alltoall(recvTo);
  comm.compute([&] { assembleRecvs(myRecvs, out.plan); });
  return out;
}

McSchedule buildInterDuplication(transport::Comm& comm,
                                 const LibraryAdapter& myLib,
                                 const DistObject& myObj,
                                 const SetOfRegions& mySet, int remoteProgram,
                                 bool isSender, std::size_t& tableBytes) {
  MC_REQUIRE(myLib.supportsLocalEnumeration(myObj),
             "the duplication method requires locally enumerable "
             "descriptors; use cooperation instead");
  McSchedule out;
  out.remoteProgram = remoteProgram;
  out.isSender = isSender;
  out.plan.bufferLocalCopies = false;
  const Index n = mySet.numElements();
  out.numElements = n;
  handshakeCount(comm, remoteProgram, n);

  // Ship descriptors + sets both ways, then work entirely locally.
  const std::vector<std::byte> theirsBytes = exchangeBlob(
      comm, remoteProgram, packRemoteBundle(myLib, myObj, mySet, comm));
  auto [remoteObj, remoteSet] = unpackRemoteBundle(theirsBytes);
  const LibraryAdapter& remoteLib = adapterFor(remoteObj);
  MC_REQUIRE(remoteSet.numElements() == n,
             "remote set size %lld != local %lld",
             static_cast<long long>(remoteSet.numElements()),
             static_cast<long long>(n));
  comm.advance(2.0 *
               (myLib.modeledElementDereferenceCost(myObj) +
                remoteLib.modeledElementDereferenceCost(remoteObj)) *
               static_cast<double>(n) / comm.size());

  const int me = comm.rank();
  comm.compute([&] {
    std::vector<int> myOwner(static_cast<size_t>(n));
    std::vector<Index> myOff(static_cast<size_t>(n));
    std::vector<int> theirOwner(static_cast<size_t>(n));
    std::vector<Index> theirOff(static_cast<size_t>(n));
    tableBytes += 2 * static_cast<size_t>(n) * (sizeof(int) + sizeof(Index));
    myLib.enumerateAll(myObj, mySet, [&](Index lin, int owner, Index off) {
      myOwner[static_cast<size_t>(lin)] = owner;
      myOff[static_cast<size_t>(lin)] = off;
    });
    remoteLib.enumerateAll(remoteObj, remoteSet,
                           [&](Index lin, int owner, Index off) {
                             theirOwner[static_cast<size_t>(lin)] = owner;
                             theirOff[static_cast<size_t>(lin)] = off;
                           });
    std::vector<std::vector<Index>> byPeer;
    for (Index lin = 0; lin < n; ++lin) {
      const auto ll = static_cast<size_t>(lin);
      if (myOwner[ll] != me) continue;
      const int peer = theirOwner[ll];
      if (byPeer.size() <= static_cast<size_t>(peer)) {
        byPeer.resize(static_cast<size_t>(peer) + 1);
      }
      // Senders pack their own (source) offsets; receivers unpack into
      // their own (destination) offsets.
      byPeer[static_cast<size_t>(peer)].push_back(myOff[ll]);
    }
    (isSender ? out.plan.sends : out.plan.recvs) =
        sched::reference::laneOf(byPeer);
  });
  return out;
}

}  // namespace

McSchedule computeSchedule(transport::Comm& comm, const DistObject& srcObj,
                           const SetOfRegions& srcSet,
                           const DistObject& dstObj,
                           const SetOfRegions& dstSet, Method method,
                           std::size_t* tableBytes) {
  const LibraryAdapter& srcLib = adapterFor(srcObj);
  const LibraryAdapter& dstLib = adapterFor(dstObj);
  srcLib.validate(srcObj, srcSet);
  dstLib.validate(dstObj, dstSet);
  const Index n = srcSet.numElements();
  MC_REQUIRE(n == dstSet.numElements(),
             "source and destination sets differ in size (%lld vs %lld)",
             static_cast<long long>(n),
             static_cast<long long>(dstSet.numElements()));
  std::size_t bytes = 0;
  McSchedule out =
      method == Method::kDuplication
          ? buildIntraDuplication(comm, srcLib, srcObj, srcSet, dstLib, dstObj,
                                  dstSet, n, bytes)
          : buildIntraCooperation(comm, srcLib, srcObj, srcSet, dstLib, dstObj,
                                  dstSet, n, bytes);
  if (tableBytes != nullptr) *tableBytes = bytes;
  return out;
}

McSchedule computeScheduleSend(transport::Comm& comm, const DistObject& srcObj,
                               const SetOfRegions& srcSet, int remoteProgram,
                               Method method, std::size_t* tableBytes) {
  const LibraryAdapter& srcLib = adapterFor(srcObj);
  srcLib.validate(srcObj, srcSet);
  std::size_t bytes = 0;
  McSchedule out =
      method == Method::kDuplication
          ? buildInterDuplication(comm, srcLib, srcObj, srcSet, remoteProgram,
                                  /*isSender=*/true, bytes)
          : buildInterCooperationSend(comm, srcLib, srcObj, srcSet,
                                      remoteProgram);
  if (tableBytes != nullptr) *tableBytes = bytes;
  return out;
}

McSchedule computeScheduleRecv(transport::Comm& comm, const DistObject& dstObj,
                               const SetOfRegions& dstSet, int remoteProgram,
                               Method method, std::size_t* tableBytes) {
  const LibraryAdapter& dstLib = adapterFor(dstObj);
  dstLib.validate(dstObj, dstSet);
  std::size_t bytes = 0;
  McSchedule out =
      method == Method::kDuplication
          ? buildInterDuplication(comm, dstLib, dstObj, dstSet, remoteProgram,
                                  /*isSender=*/false, bytes)
          : buildInterCooperationRecv(comm, dstLib, dstObj, dstSet,
                                      remoteProgram, bytes);
  if (tableBytes != nullptr) *tableBytes = bytes;
  return out;
}

sched::Schedule buildRedistMove(transport::Comm& comm,
                                const DistObject& oldObj,
                                const DistObject& newObj,
                                const SetOfRegions& set,
                                const layout::DistDelta& delta) {
  const Index n = set.numElements();
  std::vector<int> oldOwner(static_cast<size_t>(n));
  std::vector<Index> oldOff(static_cast<size_t>(n));
  std::vector<int> newOwner(static_cast<size_t>(n));
  std::vector<Index> newOff(static_cast<size_t>(n));
  adapterFor(oldObj).enumerateAll(oldObj, set,
                                  [&](Index lin, int owner, Index off) {
                                    oldOwner[static_cast<size_t>(lin)] = owner;
                                    oldOff[static_cast<size_t>(lin)] = off;
                                  });
  adapterFor(newObj).enumerateAll(newObj, set,
                                  [&](Index lin, int owner, Index off) {
                                    newOwner[static_cast<size_t>(lin)] = owner;
                                    newOff[static_cast<size_t>(lin)] = off;
                                  });
  const int me = comm.rank();
  sched::Schedule plan;
  plan.bufferLocalCopies = false;
  std::vector<std::vector<Index>> sendBy;
  std::vector<std::vector<Index>> recvBy;
  std::vector<std::pair<Index, Index>> pairs;
  for (const layout::LinInterval& iv : delta.intervals()) {
    for (Index lin = std::max<Index>(0, iv.lo); lin < std::min(n, iv.hi);
         ++lin) {
      const auto ll = static_cast<size_t>(lin);
      const int s = oldOwner[ll];
      const int d = newOwner[ll];
      if (s == me && d == me) {
        pairs.emplace_back(oldOff[ll], newOff[ll]);
      } else if (s == me) {
        if (sendBy.size() <= static_cast<size_t>(d)) {
          sendBy.resize(static_cast<size_t>(d) + 1);
        }
        sendBy[static_cast<size_t>(d)].push_back(oldOff[ll]);
      } else if (d == me) {
        if (recvBy.size() <= static_cast<size_t>(s)) {
          recvBy.resize(static_cast<size_t>(s) + 1);
        }
        recvBy[static_cast<size_t>(s)].push_back(newOff[ll]);
      }
    }
  }
  plan.sends = sched::reference::laneOf(sendBy);
  plan.recvs = sched::reference::laneOf(recvBy);
  plan.localRuns = sched::reference::compressPairs(pairs);
  return plan;
}

}  // namespace mc::core::elementwise
