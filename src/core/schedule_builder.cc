#include "core/schedule_builder.h"

#include <algorithm>

#include "core/builder_internal.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/blob_io.h"

namespace mc::core {

using layout::Index;
using sched::LocalRun;
using sched::OffsetRun;

namespace {

thread_local BuildStats g_buildStats;
thread_local PatchStats g_patchStats;
// Monotone per-rank build telemetry for the obs registry (g_buildStats
// itself resets per build, so it cannot serve snapshot/diff accounting).
thread_local std::uint64_t g_buildCount = 0;
thread_local std::uint64_t g_tableBytesTotal = 0;
thread_local std::uint64_t g_patchCount = 0;
thread_local std::uint64_t g_patchElementsTotal = 0;

/// Registers the builder's counters into the rank's registry (idempotent;
/// called from every build entry point so the metrics exist as soon as a
/// rank builds anything).
void ensureBuildMetrics() {
  obs::MetricsRegistry& reg = obs::threadRegistry();
  if (reg.has("build.count")) return;
  reg.registerCounter("build.count",
                      [] { return static_cast<double>(g_buildCount); });
  reg.registerCounter("build.ownership_table_bytes_total", [] {
    return static_cast<double>(g_tableBytesTotal);
  });
  reg.registerCounter("build.patch_count",
                      [] { return static_cast<double>(g_patchCount); });
  reg.registerCounter("build.patch_elements_total", [] {
    return static_cast<double>(g_patchElementsTotal);
  });
}

/// Accounts one finished build into the monotone counters.
void noteBuildDone() {
  ++g_buildCount;
  g_tableBytesTotal += g_buildStats.ownershipTableBytes;
}

}  // namespace

namespace detail {

const LibraryAdapter& adapterFor(const DistObject& obj) {
  registerBuiltinAdapters();
  return Registry::instance().get(obj.library());
}

std::vector<std::byte> packRemoteBundle(const LibraryAdapter& lib,
                                        const DistObject& obj,
                                        const SetOfRegions& set,
                                        transport::Comm& comm) {
  std::vector<std::byte> out;
  blob::putStr(out, lib.name());
  blob::putBytes(out, lib.serializeDesc(obj, comm));
  blob::putBytes(out, serializeSet(set));
  return out;
}

std::pair<DistObject, SetOfRegions> unpackRemoteBundle(
    std::span<const std::byte> bytes) {
  blob::ByteReader r(bytes);
  const std::string name = r.str();
  const std::span<const std::byte> desc = r.bytes();
  const std::span<const std::byte> set = r.bytes();
  r.requireEnd("remote bundle");
  registerBuiltinAdapters();
  DistObject obj = Registry::instance().get(name).deserializeDesc(desc);
  return {std::move(obj), deserializeSet(set)};
}

std::vector<std::byte> exchangeBlob(transport::Comm& comm, int remoteProgram,
                                    const std::vector<std::byte>& mine) {
  const int tag = comm.nextInterTag(remoteProgram);
  std::vector<std::byte> theirs;
  if (comm.rank() == 0) {
    comm.sendBytesTo(remoteProgram, 0, tag, mine);
    theirs = comm.recvMsgFrom(remoteProgram, 0, tag).payload;
  }
  comm.bcastBytes(theirs, 0);
  return theirs;
}

void handshakeCount(transport::Comm& comm, int remoteProgram, Index n) {
  const int tag = comm.nextInterTag(remoteProgram);
  if (comm.rank() == 0) {
    comm.sendValueTo(remoteProgram, 0, tag, n);
    const Index other = comm.recvValueFrom<Index>(remoteProgram, 0, tag);
    MC_REQUIRE(other == n,
               "source and destination sets differ in size (%lld vs %lld)",
               static_cast<long long>(n), static_cast<long long>(other));
  }
  comm.barrier();  // everyone learns that the check passed (or the world died)
}

}  // namespace detail

using namespace detail;

namespace {

// ---------------------------------------------------------------------------
// Wire formats.
//
// The cooperation method ships ownership information and marching orders
// between processors.  All streams are run-length encoded with strides:
// regular data produces long arithmetic runs (whole section rows), so the
// shipped volume stays proportional to the number of *blocks*, not the
// number of elements — matching the compact descriptors the original
// Meta-Chaos shipped for regular sections.  Fully irregular data degrades
// to count-1 runs, whose cost profile the paper's Chaos experiments show.
//
// Ownership runs ship as core::LinRun (the adapter inquiry type — the
// sender is implied by the lane).  Every stream grows through
// sched::appendRun, so its bytes do not depend on how its elements were
// cut into runs.
// ---------------------------------------------------------------------------

/// Routes a processor's owned elements (sorted by position) into per-chunk
/// LinRun streams of `chunk` positions each, coalescing as it goes.
std::vector<std::vector<LinRun>> routeToChunks(const std::vector<LinLoc>& owned,
                                               Index chunk, int nChunks) {
  std::vector<std::vector<LinRun>> to(static_cast<size_t>(nChunks));
  for (const LinLoc& ll : owned) {
    sched::appendRun(to[static_cast<size_t>(ll.lin / chunk)],
                     LinRun{ll.lin, ll.offset, 1, 0});
  }
  return to;
}

/// Routes a processor's owned runs into per-chunk LinRun streams, splitting
/// runs at chunk boundaries (runs never cross chunks on the wire).
std::vector<std::vector<LinRun>> routeRunsToChunks(
    const std::vector<LinRun>& owned, Index chunk, int nChunks) {
  std::vector<std::vector<LinRun>> to(static_cast<size_t>(nChunks));
  for (LinRun run : owned) {
    while (run.count > 0) {
      const Index c = run.lin / chunk;
      const Index take = std::min(run.count, (c + 1) * chunk - run.lin);
      sched::appendRun(to[static_cast<size_t>(c)],
                       LinRun{run.lin, run.off, take, run.offStride});
      run.lin += take;
      run.off += take * run.offStride;
      run.count -= take;
    }
  }
  return to;
}

// ---------------------------------------------------------------------------
// Ownership tables.
//
// ChunkTable is a sorted interval table of (positions, owner, offsets)
// runs covering the chunk exactly, filled straight from LinRun streams
// without per-element expansion — O(runs) memory.
// ---------------------------------------------------------------------------

/// One ownership run of a chunk: positions [lin, lin+count) owned by
/// `owner` at offsets off + k*offStride.
struct OwnedRun {
  Index lin;
  Index off;
  Index count;
  Index offStride;
  int owner;
};

struct ChunkTable {
  Index lo = 0;
  Index size = 0;
  std::vector<OwnedRun> runs;  // sorted by lin, covering [lo, lo+size)

  ChunkTable(Index lo_, Index size_) : lo(lo_), size(size_) {}

  /// Streaming fill for locally enumerated chunks: runs must arrive in
  /// linearization order (the enumerateRangeRuns contract).
  void append(Index lin, int owner, Index off, Index count, Index offStride,
              const char* side) {
    const Index expected = runs.empty() ? lo : runs.back().lin + runs.back().count;
    MC_REQUIRE(lin >= expected, "%s linearization visits position %lld twice",
               side, static_cast<long long>(lin));
    MC_REQUIRE(lin >= lo && lin + count <= lo + size,
               "%s element at position %lld routed to the wrong chunk", side,
               static_cast<long long>(lin));
    runs.push_back(OwnedRun{lin, off, count, offStride, owner});
  }

  /// Fill from per-sender wire streams.  Every sender's stream is already
  /// sorted by position, so a k-way merge over per-sender cursors rebuilds
  /// the interval table without a global sort.  Exhausted streams are
  /// dropped from the cursor set, so the scan stays tight.  The rows may be
  /// another program's bytes: a run must hold at least one position, all
  /// of them inside the chunk, past every position already filled.
  void fillFromRows(const std::vector<std::vector<LinRun>>& rows,
                    const char* side) {
    struct Cursor {
      const LinRun* p;
      const LinRun* end;
      Index lin;  // == p->lin, cached so the min-scan stays in this array
      int sender;
    };
    std::vector<Cursor> cur;
    size_t total = 0;
    cur.reserve(rows.size());
    for (size_t sender = 0; sender < rows.size(); ++sender) {
      total += rows[sender].size();
      if (!rows[sender].empty()) {
        cur.push_back(Cursor{rows[sender].data(),
                             rows[sender].data() + rows[sender].size(),
                             rows[sender].front().lin,
                             static_cast<int>(sender)});
      }
    }
    runs.reserve(total);
    Index pos = lo;
    while (!cur.empty()) {
      size_t best = 0;
      for (size_t k = 1; k < cur.size(); ++k) {
        if (cur[k].lin < cur[best].lin) best = k;
      }
      const LinRun& run = *cur[best].p;
      MC_REQUIRE(run.count >= 1, "%s run at position %lld holds %lld elements",
                 side, static_cast<long long>(run.lin),
                 static_cast<long long>(run.count));
      MC_REQUIRE(run.lin >= lo && run.count <= lo + size - run.lin,
                 "%s element at position %lld routed to the wrong chunk",
                 side, static_cast<long long>(run.lin));
      MC_REQUIRE(run.lin >= pos, "%s linearization visits position %lld twice",
                 side, static_cast<long long>(run.lin));
      pos = run.lin + run.count;
      runs.push_back(OwnedRun{run.lin, run.off, run.count, run.offStride,
                              cur[best].sender});
      if (++cur[best].p == cur[best].end) {
        cur[best] = cur.back();
        cur.pop_back();
      } else {
        cur[best].lin = cur[best].p->lin;
      }
    }
  }

  /// Verifies the table covers the chunk with no gaps.
  void checkComplete(const char* side) const {
    Index pos = lo;
    for (const OwnedRun& run : runs) {
      MC_REQUIRE(run.lin == pos, "%s linearization skips position %lld", side,
                 static_cast<long long>(pos));
      pos = run.lin + run.count;
    }
    MC_REQUIRE(pos == lo + size, "%s linearization skips position %lld", side,
               static_cast<long long>(pos));
  }

  std::size_t tableBytes() const { return runs.size() * sizeof(OwnedRun); }
};

/// The one local table fill: a checked run table for positions [lo, hi) of
/// `set`, by local enumeration of `obj`.  Serves the cooperation build's
/// locally enumerable chunks, both duplication builds, the fresh-segment
/// pass and computeDelta.
ChunkTable localTable(const LibraryAdapter& lib, const DistObject& obj,
                      const SetOfRegions& set, Index lo, Index hi,
                      const char* side) {
  ChunkTable table(lo, hi - lo);
  lib.enumerateRangeRuns(
      obj, set, lo, hi,
      [&](Index lin, int owner, Index off, Index count, Index offStride) {
        table.append(lin, owner, off, count, offStride, side);
      });
  table.checkComplete(side);
  return table;
}

/// Two-pointer interval join over two ownership tables covering the same
/// position range: fn(srcRun, dstRun, pos, count) is called once per
/// maximal segment on which both owners (and both offset progressions) are
/// fixed — runs are split exactly at each other's boundaries, never
/// expanded.  O(|src runs| + |dst runs|).
template <typename F>
void joinTables(const ChunkTable& src, const ChunkTable& dst, F&& fn) {
  size_t i = 0;
  size_t j = 0;
  Index pos = src.lo;
  const Index end = src.lo + src.size;
  while (pos < end) {
    const OwnedRun& s = src.runs[i];
    const OwnedRun& d = dst.runs[j];
    const Index sEnd = s.lin + s.count;
    const Index dEnd = d.lin + d.count;
    const Index stop = std::min(sEnd, dEnd);
    fn(s, d, pos, stop - pos);
    pos = stop;
    if (stop == sEnd) ++i;
    if (stop == dEnd) ++j;
  }
}

/// Offset of position `pos` within run `r`.
Index offAt(const OwnedRun& r, Index pos) {
  return r.off + (pos - r.lin) * r.offStride;
}

// ---------------------------------------------------------------------------
// Segments: the one join and the one assembler.
//
// Every build ends in the same two steps.  A join turns two ownership
// tables into this rank's SendSeg/RecvSeg provenance; the assembler turns
// provenance into runs-first OffsetPlans without ever expanding an offset
// list.  Every lane grows through the canonical greedy (sched::appendRun),
// so its bits depend only on its element sequence, never on how the
// segments are cut.
// ---------------------------------------------------------------------------

/// Joins two tables covering the same positions into this rank's
/// provenance: a SendSeg for every segment it sources (owner `srcMe`,
/// local copies included) and a RecvSeg for every other segment it
/// receives (owner `dstMe`).  -1 marks the side that lives in the other
/// program.
void joinSegs(const ChunkTable& src, const ChunkTable& dst, int srcMe,
              int dstMe, std::vector<SendSeg>& sends,
              std::vector<RecvSeg>& recvs) {
  joinTables(src, dst, [&](const OwnedRun& s, const OwnedRun& d, Index pos,
                           Index count) {
    if (s.owner == srcMe) {
      sched::appendRun(sends, SendSeg{pos, offAt(s, pos), offAt(d, pos), count,
                                      s.offStride, d.offStride,
                                      static_cast<Index>(d.owner)});
    } else if (d.owner == dstMe) {
      sched::appendRun(recvs, RecvSeg{pos, offAt(d, pos), count, d.offStride,
                                      static_cast<Index>(s.owner)});
    }
  });
}

/// Re-cuts the marching-order rows a cooperation build receives (one row
/// per chunk owner, chunk-ordered, each lin-sorted) into the canonical
/// segment stream: re-appending coalesces across chunk seams.
template <typename Seg>
std::vector<Seg> segsFromRows(const std::vector<std::vector<Seg>>& rows) {
  std::vector<Seg> segs;
  for (const auto& row : rows) {
    for (const Seg& run : row) sched::appendRun(segs, run);
  }
  return segs;
}

/// The one assembler: turns lin-sorted provenance into runs-first plans.
/// Send segments bound for `localMe` become local copies (-1 for
/// inter-program halves, which have none); every other segment extends its
/// peer's pack or unpack lane, in linearization order.
void assembleFromSegs(const std::vector<SendSeg>& sendSegs,
                      const std::vector<RecvSeg>& recvSegs, int localMe,
                      sched::Schedule& plan) {
  std::vector<std::vector<OffsetRun>> sendBy;
  std::vector<std::vector<OffsetRun>> recvBy;
  for (const SendSeg& g : sendSegs) {
    if (g.dstOwner == static_cast<Index>(localMe)) {
      sched::appendRun(plan.localRuns, LocalRun{g.srcOff, g.dstOff, g.count,
                                                g.srcStride, g.dstStride});
      continue;
    }
    if (sendBy.size() <= static_cast<size_t>(g.dstOwner)) {
      sendBy.resize(static_cast<size_t>(g.dstOwner) + 1);
    }
    sched::appendRun(sendBy[static_cast<size_t>(g.dstOwner)],
                     OffsetRun{g.srcOff, g.count, g.srcStride});
  }
  for (const RecvSeg& g : recvSegs) {
    if (recvBy.size() <= static_cast<size_t>(g.srcOwner)) {
      recvBy.resize(static_cast<size_t>(g.srcOwner) + 1);
    }
    sched::appendRun(recvBy[static_cast<size_t>(g.srcOwner)],
                     OffsetRun{g.dstOff, g.count, g.dstStride});
  }
  for (size_t p = 0; p < sendBy.size(); ++p) {
    if (sendBy[p].empty()) continue;
    plan.sends.push_back(
        sched::OffsetPlan{static_cast<int>(p), {}, std::move(sendBy[p])});
  }
  for (size_t p = 0; p < recvBy.size(); ++p) {
    if (recvBy[p].empty()) continue;
    plan.recvs.push_back(
        sched::OffsetPlan{static_cast<int>(p), {}, std::move(recvBy[p])});
  }
}

// ---------------------------------------------------------------------------
// Chunk ownership acquisition and the cooperation join.
// ---------------------------------------------------------------------------

/// Obtains one side's ownership info for this processor's chunk as a run
/// table.  When the descriptor is locally enumerable the chunk owner
/// computes it directly (no communication); otherwise the side performs the
/// collective owned-runs enumeration and routes the results to chunk owners
/// (Chaos with a distributed table — the expensive path the paper
/// measures).  Must be called by every processor of the program in either
/// case.
ChunkTable chunkTableIntra(transport::Comm& comm, const LibraryAdapter& lib,
                           const DistObject& obj, const SetOfRegions& set,
                           Index n, Index chunk, const char* side) {
  const int me = comm.rank();
  const Index lo = chunk * me;
  const Index size = std::max<Index>(0, std::min(n, lo + chunk) - lo);
  if (lib.supportsLocalEnumeration(obj)) {
    ChunkTable table = comm.computeValue(
        [&] { return localTable(lib, obj, set, lo, lo + size, side); });
    g_buildStats.ownershipTableBytes += table.tableBytes();
    return table;
  }
  // Element routing coalesces into the identical LinRun wire stream that
  // enumerateOwnedRuns + routeRunsToChunks would produce (the same greedy
  // rule), in one pass instead of two — on fully irregular data the
  // coalesce passes are the dominant build cost.
  const std::vector<LinLoc> owned = lib.enumerateOwned(obj, set, comm);
  auto rows = comm.alltoall(comm.computeValue(
      [&] { return routeToChunks(owned, chunk, comm.size()); }));
  ChunkTable table(lo, size);
  comm.compute([&] {
    table.fillFromRows(rows, side);
    table.checkComplete(side);
  });
  g_buildStats.ownershipTableBytes += table.tableBytes();
  return table;
}

/// The cooperation join at a chunk owner: pairs its two chunk tables and
/// writes every source owner's marching orders into sendTo and every
/// destination owner's into recvTo — whole segments at a time, split only
/// where a source or destination run boundary falls.  Within one program a
/// segment whose two owners coincide is a local copy and gets no receive
/// order; across programs the rank spaces are distinct, so every segment
/// gets both.
void joinOrders(const ChunkTable& src, const ChunkTable& dst,
                bool sameProgram, std::vector<std::vector<SendRun>>& sendTo,
                std::vector<std::vector<RecvRun>>& recvTo) {
  joinTables(src, dst, [&](const OwnedRun& s, const OwnedRun& d, Index pos,
                           Index count) {
    const Index dstOff = offAt(d, pos);
    sched::appendRun(sendTo[static_cast<size_t>(s.owner)],
                     SendRun{pos, offAt(s, pos), dstOff, count, s.offStride,
                             d.offStride, static_cast<Index>(d.owner)});
    if (!sameProgram || d.owner != s.owner) {
      sched::appendRun(recvTo[static_cast<size_t>(d.owner)],
                       RecvRun{pos, dstOff, count, d.offStride,
                               static_cast<Index>(s.owner)});
    }
  });
}

// ---------------------------------------------------------------------------
// Intra-program builds
// ---------------------------------------------------------------------------

McSchedule buildIntraCooperation(transport::Comm& comm,
                                 const LibraryAdapter& srcLib,
                                 const DistObject& srcObj,
                                 const SetOfRegions& srcSet,
                                 const LibraryAdapter& dstLib,
                                 const DistObject& dstObj,
                                 const SetOfRegions& dstSet, Index n) {
  McSchedule out;
  out.numElements = n;
  out.plan.bufferLocalCopies = false;
  const int np = comm.size();
  const int me = comm.rank();
  const Index chunk = (n + np - 1) / np;

  const ChunkTable src =
      chunkTableIntra(comm, srcLib, srcObj, srcSet, n, chunk, "source");
  const ChunkTable dst =
      chunkTableIntra(comm, dstLib, dstObj, dstSet, n, chunk, "destination");

  // Join and emit marching orders for the processors that own the data.
  std::vector<std::vector<SendRun>> sendTo(static_cast<size_t>(np));
  std::vector<std::vector<RecvRun>> recvTo(static_cast<size_t>(np));
  comm.compute(
      [&] { joinOrders(src, dst, /*sameProgram=*/true, sendTo, recvTo); });
  auto mySends = comm.alltoall(sendTo);
  auto myRecvs = comm.alltoall(recvTo);
  comm.compute([&] {
    out.sendSegs = segsFromRows(mySends);
    out.recvSegs = segsFromRows(myRecvs);
    assembleFromSegs(out.sendSegs, out.recvSegs, me, out.plan);
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
                                 const SetOfRegions& dstSet, Index n) {
  MC_REQUIRE(srcLib.supportsLocalEnumeration(srcObj) &&
                 dstLib.supportsLocalEnumeration(dstObj),
             "the duplication method requires locally enumerable "
             "descriptors on both sides; use cooperation instead");
  McSchedule out;
  out.numElements = n;
  out.plan.bufferLocalCopies = false;
  // Duplication pays the library dereference machinery twice over the set
  // (paper Section 5.1), the work split across processors.
  comm.advance(2.0 *
               (srcLib.modeledElementDereferenceCost(srcObj) +
                dstLib.modeledElementDereferenceCost(dstObj)) *
               static_cast<double>(n) / comm.size());
  const int me = comm.rank();
  comm.compute([&] {
    // Two full ownership passes per processor — the 2x dereference cost the
    // paper attributes to duplication — with no communication, but as run
    // streams: the table stays O(runs), never O(elements).
    const ChunkTable src = localTable(srcLib, srcObj, srcSet, 0, n, "source");
    const ChunkTable dst =
        localTable(dstLib, dstObj, dstSet, 0, n, "destination");
    g_buildStats.ownershipTableBytes += src.tableBytes() + dst.tableBytes();
    joinSegs(src, dst, me, me, out.sendSegs, out.recvSegs);
    assembleFromSegs(out.sendSegs, out.recvSegs, me, out.plan);
  });
  out.hasProvenance = true;
  return out;
}

// ---------------------------------------------------------------------------
// Inter-program builds
// ---------------------------------------------------------------------------

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

  // Ship my ownership info to the destination-side chunk owners (the
  // destination program cannot see my descriptor, so this shipping always
  // happens — compactly, thanks to the run encoding).
  const int pd = comm.programInfo(remoteProgram).nprocs;
  const Index chunk = (n + pd - 1) / pd;
  const std::vector<LinRun> srcOwned =
      srcLib.enumerateOwnedRuns(srcObj, srcSet, comm);
  (void)interAlltoall(comm, remoteProgram, comm.computeValue([&] {
                        return routeRunsToChunks(srcOwned, chunk, pd);
                      }));

  // Receive my marching orders back.
  const std::vector<std::vector<SendRun>> empty(static_cast<size_t>(pd));
  auto mySends = interAlltoall(comm, remoteProgram, empty);
  comm.compute([&] {
    assembleFromSegs(segsFromRows(mySends), {}, /*localMe=*/-1, out.plan);
  });
  return out;
}

McSchedule buildInterCooperationRecv(transport::Comm& comm,
                                     const LibraryAdapter& dstLib,
                                     const DistObject& dstObj,
                                     const SetOfRegions& dstSet,
                                     int remoteProgram) {
  McSchedule out;
  out.remoteProgram = remoteProgram;
  out.isSender = false;
  out.plan.bufferLocalCopies = false;
  const Index n = dstSet.numElements();
  out.numElements = n;
  handshakeCount(comm, remoteProgram, n);

  const int me = comm.rank();
  const int np = comm.size();  // destination program owns the chunks
  const int ps = comm.programInfo(remoteProgram).nprocs;
  const Index chunk = (n + np - 1) / np;

  // Source ownership info arrives from the remote program.
  const std::vector<std::vector<LinRun>> emptyInfo(static_cast<size_t>(ps));
  auto srcRows = interAlltoall(comm, remoteProgram, emptyInfo);
  const Index lo = chunk * me;
  const Index size = std::max<Index>(0, std::min(n, lo + chunk) - lo);
  ChunkTable src(lo, size);
  comm.compute([&] {
    src.fillFromRows(srcRows, "source");
    src.checkComplete("source");
  });
  g_buildStats.ownershipTableBytes += src.tableBytes();
  // Destination ownership info for my chunk.
  const ChunkTable dst =
      chunkTableIntra(comm, dstLib, dstObj, dstSet, n, chunk, "destination");

  // Join; ship send plans to the remote program, recv plans to my own.
  std::vector<std::vector<SendRun>> sendTo(static_cast<size_t>(ps));
  std::vector<std::vector<RecvRun>> recvTo(static_cast<size_t>(np));
  comm.compute(
      [&] { joinOrders(src, dst, /*sameProgram=*/false, sendTo, recvTo); });
  (void)interAlltoall(comm, remoteProgram, sendTo);
  auto myRecvs = comm.alltoall(recvTo);
  comm.compute([&] {
    assembleFromSegs({}, segsFromRows(myRecvs), /*localMe=*/-1, out.plan);
  });
  return out;
}

McSchedule buildInterDuplication(transport::Comm& comm,
                                 const LibraryAdapter& myLib,
                                 const DistObject& myObj,
                                 const SetOfRegions& mySet, int remoteProgram,
                                 bool isSender) {
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
  const std::vector<std::byte> mine =
      packRemoteBundle(myLib, myObj, mySet, comm);
  const std::vector<std::byte> theirsBytes =
      exchangeBlob(comm, remoteProgram, mine);
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
    const ChunkTable my = localTable(myLib, myObj, mySet, 0, n, "local");
    const ChunkTable their =
        localTable(remoteLib, remoteObj, remoteSet, 0, n, "remote");
    g_buildStats.ownershipTableBytes += my.tableBytes() + their.tableBytes();
    // Senders pack their own (source) offsets; receivers unpack into their
    // own (destination) offsets.
    std::vector<SendSeg> sends;
    std::vector<RecvSeg> recvs;
    if (isSender) {
      joinSegs(my, their, me, /*dstMe=*/-1, sends, recvs);
    } else {
      joinSegs(their, my, /*srcMe=*/-1, me, sends, recvs);
    }
    assembleFromSegs(sends, recvs, /*localMe=*/-1, out.plan);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Schedule patching (incremental delta rebuild).
//
// The provenance streams are the canonical greedy cut of each rank's
// per-lin segment sequence.  Because sched::appendRun merges segments only
// across lin-contiguous records, re-appending any re-cut of the same sequence
// reproduces the stream bit-identically — so subtracting the delta's
// intervals from the old streams, deriving fresh segments for only the
// migrated intervals, and merging by lin yields exactly what a full
// rebuild of the new distributions would have produced: identical
// provenance AND identical plans.
// ---------------------------------------------------------------------------

SendSeg sliceSendSeg(const SendSeg& g, Index lo, Index hi) {
  SendSeg s = g;
  s.lin = lo;
  s.count = hi - lo;
  s.srcOff = g.srcOff + (lo - g.lin) * g.srcStride;
  s.dstOff = g.dstOff + (lo - g.lin) * g.dstStride;
  return s;
}

RecvSeg sliceRecvSeg(const RecvSeg& g, Index lo, Index hi) {
  RecvSeg s = g;
  s.lin = lo;
  s.count = hi - lo;
  s.dstOff = g.dstOff + (lo - g.lin) * g.dstStride;
  return s;
}

/// Emits the sub-segments of `segs` falling outside the delta's migrated
/// intervals (both inputs sorted by lin and disjoint).  Two-pointer
/// subtraction, O(|segs| + |intervals|).
template <typename Seg, typename Slice, typename Emit>
void subtractDelta(const std::vector<Seg>& segs,
                   const std::vector<layout::LinInterval>& iv, Slice slice,
                   Emit emit) {
  size_t j = 0;
  for (const Seg& g : segs) {
    Index pos = g.lin;
    const Index end = g.lin + g.count;
    while (pos < end) {
      while (j < iv.size() && iv[j].hi <= pos) ++j;
      if (j == iv.size() || iv[j].lo >= end) {
        emit(slice(g, pos, end));
        break;
      }
      if (iv[j].lo > pos) emit(slice(g, pos, iv[j].lo));
      pos = std::min(iv[j].hi, end);
    }
  }
}

/// Merges two lin-sorted disjoint seg streams through the canonical greedy
/// (sched::appendRun).
template <typename Seg>
void mergeSegStreams(const std::vector<Seg>& a, const std::vector<Seg>& b,
                     std::vector<Seg>& out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].lin < b[j].lin)) {
      sched::appendRun(out, a[i++]);
    } else {
      sched::appendRun(out, b[j++]);
    }
  }
}

/// The fresh-segment pass: derives this rank's send/recv segments for every
/// delta interval by local enumeration of both descriptors over just that
/// interval.  patchSchedule runs it over the new distributions;
/// buildRedistMove runs it with the old distribution as the source.
/// Returns the ownership-table bytes materialized.
std::size_t freshSegs(int me, const LibraryAdapter& srcLib,
                      const DistObject& srcObj, const SetOfRegions& srcSet,
                      const LibraryAdapter& dstLib, const DistObject& dstObj,
                      const SetOfRegions& dstSet,
                      const layout::DistDelta& delta, Index n,
                      std::vector<SendSeg>& sends,
                      std::vector<RecvSeg>& recvs) {
  std::size_t tableBytes = 0;
  for (const layout::LinInterval& ivRaw : delta.intervals()) {
    const Index lo = std::max<Index>(0, ivRaw.lo);
    const Index hi = std::min(n, ivRaw.hi);
    if (hi <= lo) continue;
    const ChunkTable src = localTable(srcLib, srcObj, srcSet, lo, hi, "source");
    const ChunkTable dst =
        localTable(dstLib, dstObj, dstSet, lo, hi, "destination");
    tableBytes += src.tableBytes() + dst.tableBytes();
    joinSegs(src, dst, me, me, sends, recvs);
  }
  return tableBytes;
}

}  // namespace

McSchedule computeSchedule(transport::Comm& comm, const DistObject& srcObj,
                           const SetOfRegions& srcSet,
                           const DistObject& dstObj,
                           const SetOfRegions& dstSet, Method method) {
  ensureBuildMetrics();
  obs::ScopedSpan span(obs::phase::kBuild);
  g_buildStats = BuildStats{};
  const LibraryAdapter& srcLib = adapterFor(srcObj);
  const LibraryAdapter& dstLib = adapterFor(dstObj);
  srcLib.validate(srcObj, srcSet);
  dstLib.validate(dstObj, dstSet);
  const Index n = srcSet.numElements();
  MC_REQUIRE(n == dstSet.numElements(),
             "source and destination sets differ in size (%lld vs %lld)",
             static_cast<long long>(n),
             static_cast<long long>(dstSet.numElements()));
  McSchedule out =
      method == Method::kDuplication
          ? buildIntraDuplication(comm, srcLib, srcObj, srcSet, dstLib, dstObj,
                                  dstSet, n)
          : buildIntraCooperation(comm, srcLib, srcObj, srcSet, dstLib, dstObj,
                                  dstSet, n);
  noteBuildDone();
  return out;
}

McSchedule computeScheduleSend(transport::Comm& comm, const DistObject& srcObj,
                               const SetOfRegions& srcSet, int remoteProgram,
                               Method method) {
  ensureBuildMetrics();
  obs::ScopedSpan span(obs::phase::kBuild);
  g_buildStats = BuildStats{};
  const LibraryAdapter& srcLib = adapterFor(srcObj);
  srcLib.validate(srcObj, srcSet);
  McSchedule out =
      method == Method::kDuplication
          ? buildInterDuplication(comm, srcLib, srcObj, srcSet, remoteProgram,
                                  /*isSender=*/true)
          : buildInterCooperationSend(comm, srcLib, srcObj, srcSet,
                                      remoteProgram);
  noteBuildDone();
  return out;
}

McSchedule computeScheduleRecv(transport::Comm& comm, const DistObject& dstObj,
                               const SetOfRegions& dstSet, int remoteProgram,
                               Method method) {
  ensureBuildMetrics();
  obs::ScopedSpan span(obs::phase::kBuild);
  g_buildStats = BuildStats{};
  const LibraryAdapter& dstLib = adapterFor(dstObj);
  dstLib.validate(dstObj, dstSet);
  McSchedule out =
      method == Method::kDuplication
          ? buildInterDuplication(comm, dstLib, dstObj, dstSet, remoteProgram,
                                  /*isSender=*/false)
          : buildInterCooperationRecv(comm, dstLib, dstObj, dstSet,
                                      remoteProgram);
  noteBuildDone();
  return out;
}

McSchedule reverseSchedule(const McSchedule& sched) {
  McSchedule out;
  out.plan = sched::reverse(sched.plan);
  out.numElements = sched.numElements;
  out.remoteProgram = sched.remoteProgram;
  out.isSender = sched.remoteProgram >= 0 ? !sched.isSender : false;
  return out;
}

bool patchableSchedule(const McSchedule& old, const DistObject& newSrcObj,
                       const DistObject& newDstObj) {
  if (old.remoteProgram >= 0 || !old.hasProvenance) return false;
  const LibraryAdapter& srcLib = adapterFor(newSrcObj);
  const LibraryAdapter& dstLib = adapterFor(newDstObj);
  return srcLib.supportsLocalEnumeration(newSrcObj) &&
         dstLib.supportsLocalEnumeration(newDstObj);
}

McSchedule patchSchedule(transport::Comm& comm, const McSchedule& old,
                         const layout::DistDelta& delta,
                         const DistObject& newSrcObj,
                         const SetOfRegions& srcSet,
                         const DistObject& newDstObj,
                         const SetOfRegions& dstSet) {
  ensureBuildMetrics();
  obs::ScopedSpan span(obs::phase::kBuild);
  g_buildStats = BuildStats{};
  g_patchStats = PatchStats{};
  MC_REQUIRE(old.remoteProgram < 0,
             "patchSchedule handles intra-program schedules only");
  MC_REQUIRE(old.hasProvenance,
             "patchSchedule needs build provenance (intra-program "
             "computeSchedule records it; reversed schedules do not)");
  const LibraryAdapter& srcLib = adapterFor(newSrcObj);
  const LibraryAdapter& dstLib = adapterFor(newDstObj);
  srcLib.validate(newSrcObj, srcSet);
  dstLib.validate(newDstObj, dstSet);
  MC_REQUIRE(srcLib.supportsLocalEnumeration(newSrcObj) &&
                 dstLib.supportsLocalEnumeration(newDstObj),
             "patching is communication-free and needs locally enumerable "
             "descriptors on both sides");
  const Index n = srcSet.numElements();
  MC_REQUIRE(n == dstSet.numElements() && n == old.numElements,
             "patchSchedule set sizes disagree with the cached schedule "
             "(%lld / %lld vs %lld)",
             static_cast<long long>(n),
             static_cast<long long>(dstSet.numElements()),
             static_cast<long long>(old.numElements));

  const int me = comm.rank();
  McSchedule out;
  out.numElements = n;
  out.plan.bufferLocalCopies = false;
  // Re-deriving ownership for the migrated positions costs what the
  // duplication build would charge for that many elements — the modeled
  // cost scales with the migration, not the set.
  const Index migrated = std::min(n, delta.migratedElements());
  comm.advance(2.0 *
               (srcLib.modeledElementDereferenceCost(newSrcObj) +
                dstLib.modeledElementDereferenceCost(newDstObj)) *
               static_cast<double>(migrated) / comm.size());
  comm.compute([&] {
    std::vector<SendSeg> freshSend;
    std::vector<RecvSeg> freshRecv;
    g_buildStats.ownershipTableBytes +=
        freshSegs(me, srcLib, newSrcObj, srcSet, dstLib, newDstObj, dstSet,
                  delta, n, freshSend, freshRecv);
    std::vector<SendSeg> keptSend;
    std::vector<RecvSeg> keptRecv;
    subtractDelta(old.sendSegs, delta.intervals(), sliceSendSeg,
                  [&](const SendSeg& s) { keptSend.push_back(s); });
    subtractDelta(old.recvSegs, delta.intervals(), sliceRecvSeg,
                  [&](const RecvSeg& s) { keptRecv.push_back(s); });
    g_patchStats.segmentsReused = keptSend.size() + keptRecv.size();
    g_patchStats.segmentsRebuilt = freshSend.size() + freshRecv.size();
    g_patchStats.elementsPatched = migrated;
    out.sendSegs.reserve(keptSend.size() + freshSend.size());
    out.recvSegs.reserve(keptRecv.size() + freshRecv.size());
    mergeSegStreams(keptSend, freshSend, out.sendSegs);
    mergeSegStreams(keptRecv, freshRecv, out.recvSegs);
    assembleFromSegs(out.sendSegs, out.recvSegs, me, out.plan);
  });
  out.hasProvenance = true;
  noteBuildDone();
  ++g_patchCount;
  g_patchElementsTotal += static_cast<std::uint64_t>(migrated);
  return out;
}

layout::DistDelta computeDelta(const DistObject& oldObj,
                               const DistObject& newObj,
                               const SetOfRegions& set) {
  const LibraryAdapter& oldLib = adapterFor(oldObj);
  const LibraryAdapter& newLib = adapterFor(newObj);
  MC_REQUIRE(oldLib.supportsLocalEnumeration(oldObj) &&
                 newLib.supportsLocalEnumeration(newObj),
             "computeDelta needs locally enumerable descriptors");
  const Index n = set.numElements();
  layout::DistDelta delta;
  if (n == 0) return delta;
  const ChunkTable a = localTable(oldLib, oldObj, set, 0, n, "old");
  const ChunkTable b = localTable(newLib, newObj, set, 0, n, "new");
  joinTables(a, b, [&](const OwnedRun& s, const OwnedRun& d, Index pos,
                       Index count) {
    // A segment is unchanged iff owner and offset progression agree; when
    // only the strides differ some positions may still coincide — marking
    // the whole segment migrated is a safe over-approximation.
    if (s.owner == d.owner && offAt(s, pos) == offAt(d, pos) &&
        (count == 1 || s.offStride == d.offStride)) {
      return;
    }
    delta.add(pos, pos + count);
  });
  return delta;
}

namespace {

/// Calls fn(position, global) for every element of an index-list or range
/// set, in linearization order.
template <typename Fn>
void forEachSetGlobal(const SetOfRegions& set, Fn&& fn) {
  Index lin = 0;
  for (const Region& r : set.regions()) {
    switch (r.kind()) {
      case Region::Kind::kIndices: {
        const std::vector<Index>& ids = r.asIndices();
        for (size_t k = 0; k < ids.size(); ++k) {
          fn(lin + static_cast<Index>(k), ids[k]);
        }
        break;
      }
      case Region::Kind::kRange: {
        const ElementRange& er = r.asRange();
        const Index cnt = er.numElements();
        for (Index k = 0; k < cnt; ++k) fn(lin + k, er.at(k));
        break;
      }
      case Region::Kind::kSection:
        MC_REQUIRE(false,
                   "deltaFromMigratedIndices supports index-list and range "
                   "regions (their elements are global indices); use "
                   "computeDelta for section sets");
    }
    lin += r.numElements();
  }
}

}  // namespace

layout::DistDelta deltaFromMigratedIndices(
    const SetOfRegions& set, std::span<const layout::Index> sortedMigrated) {
  layout::DistDelta delta;
  if (sortedMigrated.empty()) return delta;
  // One bit per global up to the set's largest element: a migrated global
  // beyond it cannot be in the set, so a stray large index allocates
  // nothing.
  Index top = -1;
  forEachSetGlobal(set, [&top](Index, Index g) { top = std::max(top, g); });
  if (top < 0) return delta;
  // Unsigned, a negative global compares above `last` too.
  const auto last = static_cast<std::uint64_t>(top);
  std::vector<std::uint64_t> bits(last / 64 + 1);
  for (const Index g : sortedMigrated) {
    const auto u = static_cast<std::uint64_t>(g);
    if (u <= last) bits[u / 64] |= std::uint64_t{1} << (u % 64);
  }
  forEachSetGlobal(set, [&](Index lin, Index g) {
    const auto u = static_cast<std::uint64_t>(g);
    if (u <= last && ((bits[u / 64] >> (u % 64)) & 1U) != 0) {
      delta.add(lin, lin + 1);
    }
  });
  return delta;
}

sched::Schedule buildRedistMove(transport::Comm& comm,
                                const DistObject& oldObj,
                                const DistObject& newObj,
                                const SetOfRegions& set,
                                const layout::DistDelta& delta) {
  ensureBuildMetrics();
  obs::ScopedSpan span(obs::phase::kBuild);
  g_buildStats = BuildStats{};
  const LibraryAdapter& oldLib = adapterFor(oldObj);
  const LibraryAdapter& newLib = adapterFor(newObj);
  MC_REQUIRE(oldLib.supportsLocalEnumeration(oldObj) &&
                 newLib.supportsLocalEnumeration(newObj),
             "buildRedistMove needs locally enumerable descriptors");
  const Index n = set.numElements();
  sched::Schedule plan;
  plan.bufferLocalCopies = false;
  const Index migrated = std::min(n, delta.migratedElements());
  comm.advance(2.0 *
               (oldLib.modeledElementDereferenceCost(oldObj) +
                newLib.modeledElementDereferenceCost(newObj)) *
               static_cast<double>(migrated) / comm.size());
  comm.compute([&] {
    // The fresh-segment pass over the delta, with the old distribution as
    // the source, then the same assembly every build ends in.
    std::vector<SendSeg> sends;
    std::vector<RecvSeg> recvs;
    g_buildStats.ownershipTableBytes +=
        freshSegs(comm.rank(), oldLib, oldObj, set, newLib, newObj, set,
                  delta, n, sends, recvs);
    assembleFromSegs(sends, recvs, comm.rank(), plan);
  });
  noteBuildDone();
  return plan;
}

const BuildStats& lastBuildStats() { return g_buildStats; }

const PatchStats& lastPatchStats() { return g_patchStats; }

}  // namespace mc::core
