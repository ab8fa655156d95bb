#include "core/schedule_builder.h"

#include <algorithm>
#include <limits>

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
  SetOfRegions regions = deserializeSet(set);
  // Each part decodes alone; enumeration needs them to agree (a section of
  // lower rank than its array would divide by a zero stride).
  adapterFor(obj).validate(obj, regions);
  return {std::move(obj), std::move(regions)};
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
// Ownership tables.
//
// The cooperation method is ownership by position: the linearization is cut
// into contiguous chunks, one per processor of the joining program, and each
// chunk owner joins both sides' ownership of its chunk.  A ChunkTable is
// that ownership as a sorted run table (core::LinRun: positions, owner,
// offsets) covering the chunk exactly — O(runs) memory.  Every table grows
// through the one checked append, whose sched::appendRun makes the table a
// pure function of its element sequence however the runs arrive cut: whole
// from a local enumeration, or in rows another program shipped.
// ---------------------------------------------------------------------------

/// Bound on every offset and offset stride a table holds: below 2^62 in
/// magnitude, the greedy's and the join's offset arithmetic stays inside
/// Index.
constexpr Index kOffsetLimit = Index{1} << 62;

struct ChunkTable {
  Index lo = 0;
  Index size = 0;
  int owners = 0;            // owners are ranks of a program this wide
  std::vector<LinRun> runs;  // sorted by lin, covering [lo, lo+size)

  ChunkTable(Index lo_, Index size_, int owners_)
      : lo(lo_), size(size_), owners(owners_) {}

  /// Appends the next run in position order.  The run may be another
  /// program's bytes: it must name an owner of the program, hold at least
  /// one position, address offsets in [0, kOffsetLimit) by a stride below
  /// kOffsetLimit, and lie inside the chunk past every position already
  /// filled.
  void append(const LinRun& run, const char* side) {
    MC_REQUIRE(run.owner >= 0 && run.owner < owners,
               "%s run at position %lld names owner %lld of a %d-rank "
               "program",
               side, static_cast<long long>(run.lin),
               static_cast<long long>(run.owner), owners);
    MC_REQUIRE(run.count >= 1, "%s run at position %lld holds %lld elements",
               side, static_cast<long long>(run.lin),
               static_cast<long long>(run.count));
    Index last = 0;
    MC_REQUIRE(run.off >= 0 && run.off < kOffsetLimit &&
                   run.offStride > -kOffsetLimit &&
                   run.offStride < kOffsetLimit &&
                   !__builtin_mul_overflow(run.count - 1, run.offStride,
                                           &last) &&
                   !__builtin_add_overflow(run.off, last, &last) &&
                   last >= 0 && last < kOffsetLimit,
               "%s run at position %lld leaves the offset range", side,
               static_cast<long long>(run.lin));
    const Index filled = runs.empty() ? lo : runs.back().lin + runs.back().count;
    MC_REQUIRE(run.lin >= filled, "%s linearization visits position %lld twice",
               side, static_cast<long long>(run.lin));
    MC_REQUIRE(run.count <= lo + size - run.lin,
               "%s element at position %lld routed to the wrong chunk", side,
               static_cast<long long>(run.lin));
    sched::appendRun(runs, run);
  }

  /// The adapter callback that appends each run it emits.
  auto filler(const char* side) {
    return [this, side](Index lin, int owner, Index off, Index count,
                        Index offStride) {
      append(LinRun{lin, off, count, offStride, owner}, side);
    };
  }

  /// Verifies the table covers the chunk with no gaps.
  void checkComplete(const char* side) const {
    Index pos = lo;
    for (const LinRun& run : runs) {
      MC_REQUIRE(run.lin == pos, "%s linearization skips position %lld", side,
                 static_cast<long long>(pos));
      pos = run.lin + run.count;
    }
    MC_REQUIRE(pos == lo + size, "%s linearization skips position %lld", side,
               static_cast<long long>(pos));
  }

  std::size_t tableBytes() const { return runs.size() * sizeof(LinRun); }
};

/// Chunk `k` of a linearization of n positions cut into `parts` chunks of
/// ceil(n/parts) positions; trailing chunks may be short or empty.
std::pair<Index, Index> chunkOf(Index n, int parts, int k) {
  const Index chunk = (n + parts - 1) / parts;
  const Index lo = std::min(n, chunk * k);
  return {lo, std::min(n, lo + chunk)};
}

/// The local table fill: a checked run table for positions [lo, hi) of
/// `set`, by local enumeration of `obj`, whose owners are ranks of a
/// program `owners` wide.  Serves both duplication builds, the
/// fresh-segment pass and computeDelta.
ChunkTable localTable(const LibraryAdapter& lib, const DistObject& obj,
                      const SetOfRegions& set, Index lo, Index hi, int owners,
                      const char* side) {
  ChunkTable table(lo, hi - lo, owners);
  lib.enumerateRangeRuns(obj, set, lo, hi, table.filler(side));
  table.checkComplete(side);
  return table;
}

/// The cooperation table fill: this rank's ownership of its own chunk
/// [lo, hi), through the adapter's collective chunk inquiry.  Every rank of
/// the program calls it (a Chaos distributed table dereferences
/// collectively); no ownership travels between ranks.
ChunkTable chunkTable(transport::Comm& comm, const LibraryAdapter& lib,
                      const DistObject& obj, const SetOfRegions& set,
                      Index lo, Index hi, const char* side) {
  ChunkTable table(lo, hi - lo, comm.size());
  lib.enumerateChunkRuns(obj, set, lo, hi, comm, table.filler(side));
  comm.compute([&] { table.checkComplete(side); });
  g_buildStats.ownershipTableBytes += table.tableBytes();
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
    const LinRun& s = src.runs[i];
    const LinRun& d = dst.runs[j];
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
Index offAt(const LinRun& r, Index pos) {
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
  joinTables(src, dst, [&](const LinRun& s, const LinRun& d, Index pos,
                           Index count) {
    if (s.owner == srcMe) {
      sched::appendRun(sends, SendSeg{pos, offAt(s, pos), offAt(d, pos), count,
                                      s.offStride, d.offStride, d.owner});
    } else if (d.owner == dstMe) {
      sched::appendRun(recvs,
                       RecvSeg{pos, offAt(d, pos), count, d.offStride, s.owner});
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
// The cooperation join.
// ---------------------------------------------------------------------------

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
  joinTables(src, dst, [&](const LinRun& s, const LinRun& d, Index pos,
                           Index count) {
    const Index dstOff = offAt(d, pos);
    sched::appendRun(sendTo[static_cast<size_t>(s.owner)],
                     SendRun{pos, offAt(s, pos), dstOff, count, s.offStride,
                             d.offStride, d.owner});
    if (!sameProgram || d.owner != s.owner) {
      sched::appendRun(recvTo[static_cast<size_t>(d.owner)],
                       RecvRun{pos, dstOff, count, d.offStride, s.owner});
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
  const auto [lo, hi] = chunkOf(n, np, me);

  const ChunkTable src =
      chunkTable(comm, srcLib, srcObj, srcSet, lo, hi, "source");
  const ChunkTable dst =
      chunkTable(comm, dstLib, dstObj, dstSet, lo, hi, "destination");

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
  const int np = comm.size();
  const int me = comm.rank();
  comm.compute([&] {
    // Two full ownership passes per processor — the 2x dereference cost the
    // paper attributes to duplication — with no communication, but as run
    // streams: the table stays O(runs), never O(elements).
    const ChunkTable src =
        localTable(srcLib, srcObj, srcSet, 0, n, np, "source");
    const ChunkTable dst =
        localTable(dstLib, dstObj, dstSet, 0, n, np, "destination");
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

  // Ownership by position: I look up my own slice of the linearization
  // and ship it to the destination's chunk owners as (lin, off, count,
  // offStride, owner) rows, split at their chunk boundaries (the
  // destination program cannot see my descriptor, so this shipping always
  // happens — compactly, thanks to the run encoding).
  const int pd = comm.programInfo(remoteProgram).nprocs;
  const Index chunk = (n + pd - 1) / pd;
  const auto [lo, hi] = chunkOf(n, comm.size(), comm.rank());
  std::vector<std::vector<LinRun>> rows(static_cast<size_t>(pd));
  srcLib.enumerateChunkRuns(
      srcObj, srcSet, lo, hi, comm,
      [&](Index lin, int owner, Index off, Index count, Index offStride) {
        while (count > 0) {
          const Index c = lin / chunk;
          const Index take = std::min(count, (c + 1) * chunk - lin);
          sched::appendRun(rows[static_cast<size_t>(c)],
                           LinRun{lin, off, take, offStride, owner});
          lin += take;
          off += take * offStride;
          count -= take;
        }
      });
  (void)interAlltoall(comm, remoteProgram, rows);

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

  const int np = comm.size();  // destination program owns the chunks
  const int ps = comm.programInfo(remoteProgram).nprocs;
  const auto [lo, hi] = chunkOf(n, np, comm.rank());

  // The source program's rows arrive one list per source rank, slices in
  // rank order, so appending them in sender order fills the chunk in
  // position order.
  const std::vector<std::vector<LinRun>> emptyInfo(static_cast<size_t>(ps));
  const auto srcRows = interAlltoall(comm, remoteProgram, emptyInfo);
  ChunkTable src(lo, hi - lo, ps);
  comm.compute([&] {
    for (const auto& row : srcRows) {
      for (const LinRun& run : row) src.append(run, "source");
    }
    src.checkComplete("source");
  });
  g_buildStats.ownershipTableBytes += src.tableBytes();
  // Destination ownership info for my chunk.
  const ChunkTable dst =
      chunkTable(comm, dstLib, dstObj, dstSet, lo, hi, "destination");

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
    const ChunkTable my =
        localTable(myLib, myObj, mySet, 0, n, comm.size(), "local");
    const ChunkTable their =
        localTable(remoteLib, remoteObj, remoteSet, 0, n,
                   comm.programInfo(remoteProgram).nprocs, "remote");
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
std::size_t freshSegs(const transport::Comm& comm, const LibraryAdapter& srcLib,
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
    const ChunkTable src =
        localTable(srcLib, srcObj, srcSet, lo, hi, comm.size(), "source");
    const ChunkTable dst =
        localTable(dstLib, dstObj, dstSet, lo, hi, comm.size(), "destination");
    tableBytes += src.tableBytes() + dst.tableBytes();
    joinSegs(src, dst, comm.rank(), comm.rank(), sends, recvs);
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
        freshSegs(comm, srcLib, newSrcObj, srcSet, dstLib, newDstObj, dstSet,
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
  // No program width here: the owners are only compared, never indexed.
  constexpr int kAnyOwner = std::numeric_limits<int>::max();
  const ChunkTable a = localTable(oldLib, oldObj, set, 0, n, kAnyOwner, "old");
  const ChunkTable b = localTable(newLib, newObj, set, 0, n, kAnyOwner, "new");
  joinTables(a, b, [&](const LinRun& s, const LinRun& d, Index pos,
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
        freshSegs(comm, oldLib, oldObj, set, newLib, newObj, set,
                  delta, n, sends, recvs);
    assembleFromSegs(sends, recvs, comm.rank(), plan);
  });
  noteBuildDone();
  return plan;
}

const BuildStats& lastBuildStats() { return g_buildStats; }

const PatchStats& lastPatchStats() { return g_patchStats; }

}  // namespace mc::core
