// The snapshot subsystem and the hardened blob layer beneath it: byte-level
// fuzz (every strict prefix and every single-byte corruption of a framed
// blob must throw mc::Error — never crash, never over-allocate), per-
// serializer round trips (McSchedule, translation tables, all four
// libraries' arrays), snapshot save/restore with LRU-order preservation
// and one saved entry per cached schedule (a patched one included),
// the loud agreement failures (wrong program size, mixed save generations,
// truncated files, section mismatches, an older snapshot version), and the
// kill-and-restart differential: a warm-started server must reproduce a
// cold run bitwise with zero inspector builds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "chaos/irreg_array.h"
#include "chaos/partition.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/hpf_adapter.h"
#include "core/data_move.h"
#include "core/schedule_cache.h"
#include "fuzz_decoder.h"
#include "oracle/run_reference.h"
#include "sched/serialize.h"
#include "server/client_session.h"
#include "server/compute_server.h"
#include "snapshot/array_io.h"
#include "snapshot/mc_schedule_io.h"
#include "obs/metrics.h"
#include "snapshot/snapshot.h"
#include "transport/world.h"
#include "util/blob_io.h"

namespace mc {
namespace {

using layout::Index;
using layout::Point;
using layout::Shape;
using transport::Comm;
using transport::ProgramSpec;
using transport::World;

std::filesystem::path tmpDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("mc_test_snapshot_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

sched::Schedule samplePlan() {
  sched::Schedule s;
  s.sends.push_back(sched::reference::planOf(2, {0, 3, 4, 9}));
  s.sends.push_back(sched::OffsetPlan{5, {}, {sched::OffsetRun{1, 4, 2}}});
  s.recvs.push_back(sched::reference::planOf(1, {7, 8}));
  s.localRuns.push_back(sched::LocalRun{0, 10, 2, 1, 1});
  s.bufferLocalCopies = true;
  return s;
}

core::McSchedule sampleMcSchedule(int salt) {
  core::McSchedule s;
  s.plan = samplePlan();
  s.plan.sends[0].peer = 2 + salt;
  s.numElements = 17 + salt;
  s.remoteProgram = salt % 2 ? 1 : -1;
  s.isSender = salt % 2 != 0;
  s.hasProvenance = true;
  s.sendSegs.push_back(core::SendSeg{salt, 1, 2, 3, 4, 5, 6});
  s.recvSegs.push_back(core::RecvSeg{7, 8, 9, 10, salt});
  return s;
}

// ---------------------------------------------------------------------------
// Blob container hardening (pure, no world).

TEST(BlobFrame, RoundTripsAndTagsKind) {
  std::vector<std::byte> payload;
  blob::putU64(payload, 42);
  blob::putStr(payload, "hello");
  const std::vector<std::byte> framed =
      blob::frame(blob::kSnapshotBody, 3, payload);
  std::size_t consumed = 0;
  const blob::FrameView v =
      blob::unframe(framed, blob::kSnapshotBody, &consumed);
  EXPECT_EQ(consumed, framed.size());
  EXPECT_EQ(v.kindVersion, 3u);
  blob::ByteReader r(v.payload);
  EXPECT_EQ(r.u64(), 42u);
  EXPECT_EQ(r.str(), "hello");
  r.requireEnd("test payload");
  // The same bytes presented as a different kind are rejected.
  EXPECT_THROW(blob::unframe(framed, blob::kSnapshotManifest), Error);
  // Trailing garbage is rejected when no `consumed` out-param is given.
  std::vector<std::byte> trailing = framed;
  trailing.push_back(std::byte{0});
  EXPECT_THROW(blob::unframe(trailing, blob::kSnapshotBody), Error);
}

TEST(BlobFrame, EveryPrefixAndEveryByteFlipRejected) {
  std::vector<std::byte> payload;
  blob::putU64(payload, 7);
  blob::putPods(payload, std::vector<std::uint32_t>{1, 2, 3});
  const std::vector<std::byte> framed =
      blob::frame(blob::kSnapshotBody, 1, payload);
  // Mirror a real reader's preamble: unframe, then check the kind version
  // (the only header field unframe leaves to the caller).
  const auto read = [](std::span<const std::byte> d) {
    const blob::FrameView v = blob::unframe(d, blob::kSnapshotBody);
    MC_REQUIRE(v.kindVersion == 1, "unknown kind version %u", v.kindVersion);
    return v;
  };
  expectEveryPrefixRejected(framed, read);
  expectEveryByteFlipRejected(framed, read);
}

// The reserve-clamp bugfix: a well-framed payload (magic, checksum all
// valid) whose leading count field claims more items than the payload could
// possibly hold must fail the count clamp with mc::Error — not bad_alloc,
// not a multi-gigabyte reserve.
TEST(BlobFrame, HugeCountInsideValidFrameRejectedBeforeAllocating) {
  std::vector<std::byte> payload;
  blob::putU64(payload, std::uint64_t{1} << 60);  // "2^60 plan entries"
  const std::vector<std::byte> framed =
      blob::frame(blob::kSchedule, sched::kScheduleBlobVersion, payload);
  EXPECT_THROW(sched::deserializeSchedule(framed), Error);

  // Same attack one level up, against the snapshot body's entry count.
  const std::vector<std::byte> mcFramed =
      blob::frame(blob::kMcSchedule, snapshot::kMcScheduleBlobVersion,
                  payload);
  EXPECT_THROW(snapshot::deserializeMcSchedule(mcFramed), Error);
}

// ---------------------------------------------------------------------------
// McSchedule blobs (pure, no world).

TEST(McScheduleBlob, RoundTripsExactlyAndCanonically) {
  const core::McSchedule s = sampleMcSchedule(3);
  const std::vector<std::byte> blob = snapshot::serializeMcSchedule(s);
  const core::McSchedule back = snapshot::deserializeMcSchedule(blob);
  EXPECT_EQ(sched::serializeSchedule(back.plan),
            sched::serializeSchedule(s.plan));
  EXPECT_EQ(back.numElements, s.numElements);
  EXPECT_EQ(back.remoteProgram, s.remoteProgram);
  EXPECT_EQ(back.isSender, s.isSender);
  EXPECT_EQ(back.hasProvenance, s.hasProvenance);
  EXPECT_EQ(back.sendSegs, s.sendSegs);
  EXPECT_EQ(back.recvSegs, s.recvSegs);
  EXPECT_EQ(snapshot::serializeMcSchedule(back), blob);
}

TEST(McScheduleBlob, VersionOneBlobIsRefused) {
  // Version 1 embedded a version-2 schedule payload (offset-list and
  // local-pair lanes); the reader refuses it by version.
  std::vector<std::byte> payload;
  sched::writeSchedulePayload(payload, samplePlan());
  EXPECT_THROW(snapshot::deserializeMcSchedule(
                   blob::frame(blob::kMcSchedule, 1, payload)),
               Error);
  EXPECT_EQ(snapshot::kMcScheduleBlobVersion, 2u);
}

TEST(McScheduleBlob, EveryPrefixRejectedAndFlagsCrossChecked) {
  const std::vector<std::byte> blob =
      snapshot::serializeMcSchedule(sampleMcSchedule(1));
  expectEveryPrefixRejected(blob, [](std::span<const std::byte> d) {
    return snapshot::deserializeMcSchedule(d);
  });
  // Provenance lanes without the flag serialize fine but must be rejected
  // on read — the reader cross-checks the flag against the lanes.
  core::McSchedule inconsistent = sampleMcSchedule(1);
  inconsistent.hasProvenance = false;
  EXPECT_THROW(snapshot::deserializeMcSchedule(
                   snapshot::serializeMcSchedule(inconsistent)),
               Error);
}

// ---------------------------------------------------------------------------
// Translation-table blobs.

TEST(TranslationTableBlob, ReplicatedRoundTripMintsFreshUid) {
  std::vector<chaos::ElementLoc> entries;
  std::vector<Index> offsets(3, 0);
  for (Index g = 0; g < 20; ++g) {
    const int proc = static_cast<int>(g % 3);
    entries.push_back(chaos::ElementLoc{proc, offsets[proc]++});
  }
  const chaos::TranslationTable t =
      chaos::TranslationTable::replicatedFromEntries(entries, 3, 1.5e-5);
  const std::vector<std::byte> blob = t.serialize();
  const chaos::TranslationTable back =
      chaos::TranslationTable::deserialize(blob);
  EXPECT_EQ(back.storage(), t.storage());
  EXPECT_EQ(back.globalSize(), t.globalSize());
  EXPECT_DOUBLE_EQ(back.modeledQueryCost(), t.modeledQueryCost());
  for (int p = 0; p < 3; ++p) EXPECT_EQ(back.localCount(p), t.localCount(p));
  for (Index g = 0; g < 20; ++g) {
    EXPECT_EQ(back.dereferenceLocal(g), t.dereferenceLocal(g));
  }
  // The uid is minted fresh on restore (DerefCache soundness): entries
  // cached against the saved table can never be served to the restored one.
  EXPECT_NE(back.uid(), t.uid());
  EXPECT_EQ(back.serialize(), blob);  // canonical form
  expectEveryPrefixRejected(blob, [](std::span<const std::byte> d) {
    return chaos::TranslationTable::deserialize(d);
  });
}

TEST(TranslationTableBlob, DistributedRoundTripAnswersIdentically) {
  World::runSPMD(4, [&](Comm& c) {
    const Index n = 50;
    const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 77);
    const chaos::TranslationTable t = chaos::TranslationTable::build(
        c, mine, n, chaos::TranslationTable::Storage::kDistributed);
    const chaos::TranslationTable back =
        chaos::TranslationTable::deserialize(t.serialize());
    EXPECT_NE(back.uid(), t.uid());
    std::vector<Index> queries;
    for (Index k = 0; k < 25; ++k) queries.push_back((k * 7 + c.rank()) % n);
    const auto expect = t.dereference(c, queries);
    const auto got = back.dereference(c, queries);
    EXPECT_EQ(got, expect);
  });
}

// ---------------------------------------------------------------------------
// Array blobs: one round trip per library, plus the loud mismatches.

TEST(ArrayBlob, AllFourLibrariesRoundTripBitwise) {
  World::runSPMD(4, [&](Comm& c) {
    // Parti: 2-D block array with a ghost ring.
    parti::BlockDistArray<double> pa(
        c, layout::BlockDecomp::regular(Shape::of({12, 10}), c.size()), 1);
    pa.fillByPoint([](const Point& p) {
      return 0.25 * static_cast<double>(p[0] * 100 + p[1]);
    });
    parti::BlockDistArray<double> pb =
        snapshot::deserializePartiArray<double>(c, snapshot::serializeArray(pa));
    ASSERT_EQ(pb.raw().size(), pa.raw().size());
    EXPECT_EQ(std::memcmp(pb.raw().data(), pa.raw().data(),
                          pa.raw().size() * sizeof(double)),
              0);
    EXPECT_EQ(pb.ghost(), pa.ghost());

    // HPF: cyclic distribution.
    hpfrt::HpfArray<double> ha(
        c, hpfrt::HpfDist(Shape::of({37}),
                          {hpfrt::DimDist{hpfrt::DistKind::kCyclic,
                                          c.size(), 1}}));
    ha.fillByPoint([](const Point& p) {
      return 1.0 / (1.0 + static_cast<double>(p[0]));
    });
    hpfrt::HpfArray<double> hb =
        snapshot::deserializeHpfArray<double>(c, snapshot::serializeArray(ha));
    ASSERT_EQ(hb.raw().size(), ha.raw().size());
    EXPECT_EQ(std::memcmp(hb.raw().data(), ha.raw().data(),
                          ha.raw().size() * sizeof(double)),
              0);

    // Tulip: cyclic collection.
    tulip::Collection<double> ta(c, 29, tulip::Placement::kCyclic);
    ta.forEachOwned(
        [](Index g, double& v) { v = static_cast<double>(g * g); });
    tulip::Collection<double> tb = snapshot::deserializeTulipCollection<double>(
        c, snapshot::serializeArray(ta));
    ASSERT_EQ(tb.raw().size(), ta.raw().size());
    EXPECT_EQ(std::memcmp(tb.raw().data(), ta.raw().data(),
                          ta.raw().size() * sizeof(double)),
              0);

    // Chaos: irregular array over a distributed table.
    const Index n = 40;
    const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 5);
    auto table = std::make_shared<const chaos::TranslationTable>(
        chaos::TranslationTable::build(
            c, mine, n, chaos::TranslationTable::Storage::kDistributed));
    chaos::IrregArray<double> ia(c, table, mine);
    for (std::size_t k = 0; k < ia.raw().size(); ++k) {
      ia.raw()[k] = static_cast<double>(mine[k]) * 0.5;
    }
    chaos::IrregArray<double> ib = snapshot::deserializeIrregArray<double>(
        c, snapshot::serializeArray(ia));
    ASSERT_EQ(ib.raw().size(), ia.raw().size());
    EXPECT_EQ(std::memcmp(ib.raw().data(), ia.raw().data(),
                          ia.raw().size() * sizeof(double)),
              0);
    EXPECT_NE(ib.table().uid(), ia.table().uid());
    expectEveryPrefixRejected(
        snapshot::serializeArray(ia), [&](std::span<const std::byte> d) {
          return snapshot::deserializeIrregArray<double>(c, d);
        });
  });
}

TEST(ArrayBlob, WrongProgramSizeAndWrongTypeRejected) {
  std::vector<std::byte> saved;
  World::runSPMD(2, [&](Comm& c) {
    tulip::Collection<double> a(c, 16, tulip::Placement::kBlock);
    a.forEachOwned([](Index g, double& v) { v = static_cast<double>(g); });
    if (c.rank() == 0) saved = snapshot::serializeArray(a);
  });
  ASSERT_FALSE(saved.empty());
  World::runSPMD(3, [&](Comm& c) {
    if (c.rank() == 0) {
      // Saved by a 2-process program; this program has 3.
      EXPECT_THROW(snapshot::deserializeTulipCollection<double>(c, saved),
                   Error);
    }
  });
  World::runSPMD(2, [&](Comm& c) {
    if (c.rank() == 0) {
      // Same program size, but float != the saved 8-byte elements.
      EXPECT_THROW(snapshot::deserializeTulipCollection<float>(c, saved),
                   Error);
    }
  });
}

// ---------------------------------------------------------------------------
// Snapshot save/restore.

TEST(Snapshot, SaveRestoreRoundTripsCacheAndSections) {
  const std::filesystem::path dir = tmpDir("roundtrip");
  const int nprocs = 2;
  // What each rank's cache held at save time: key, build identity and
  // canonical schedule bytes.
  using SavedEntry = std::tuple<HashStream::Digest, HashStream::Digest,
                                std::vector<std::byte>>;
  std::vector<std::vector<SavedEntry>> saved(nprocs);
  std::vector<std::vector<std::byte>> sectionBytes(nprocs);

  World::runSPMD(nprocs, [&](Comm& c) {
    EXPECT_FALSE(snapshotAvailable(c, dir.string()));
    core::ScheduleCache& cache = core::defaultScheduleCache();
    for (int k = 0; k < 3; ++k) {
      const HashStream::Digest key{
          static_cast<std::uint64_t>(100 * c.rank() + k), 7};
      const HashStream::Digest identity{static_cast<std::uint64_t>(k), 11};
      cache.insertEntry(key, identity, sampleMcSchedule(c.rank() * 10 + k));
    }
    cache.forEachEntryOldestFirst([&](const HashStream::Digest& key,
                                      const HashStream::Digest& identity,
                                      const core::McSchedule& v) {
      saved[c.rank()].emplace_back(key, identity,
                                   snapshot::serializeMcSchedule(v));
    });
    std::vector<std::byte> bytes;
    blob::putStr(bytes, "rank " + std::to_string(c.rank()) + " state");
    sectionBytes[c.rank()] = bytes;
    snapshot::threadSections().add(
        "test.section",
        [&](Comm& cc) { return sectionBytes[cc.rank()]; },
        [](Comm&, std::span<const std::byte>) {});
    const snapshot::Report rep = snapshotSave(c, dir.string());
    EXPECT_GT(rep.bytes, 0u);
    EXPECT_EQ(rep.cacheEntries, 3u);
    EXPECT_EQ(rep.sections, 1u);
    EXPECT_TRUE(snapshotAvailable(c, dir.string()));
  });

  std::vector<int> sectionRestored(nprocs, 0);
  World::runSPMD(nprocs, [&](Comm& c) {
    // A fresh world: the thread-local cache starts empty, like a restarted
    // process.
    core::ScheduleCache& cache = core::defaultScheduleCache();
    ASSERT_EQ(cache.size(), 0u);
    snapshot::threadSections().add(
        "test.section", [](Comm&) { return std::vector<std::byte>{}; },
        [&](Comm& cc, std::span<const std::byte> bytes) {
          const std::vector<std::byte>& expect = sectionBytes[cc.rank()];
          EXPECT_TRUE(bytes.size() == expect.size() &&
                      std::memcmp(bytes.data(), expect.data(),
                                  bytes.size()) == 0);
          sectionRestored[cc.rank()] = 1;
        });
    const snapshot::Report rep = snapshotRestore(c, dir.string());
    EXPECT_EQ(rep.cacheEntries, 3u);
    EXPECT_EQ(rep.sections, 1u);
    // Same entries, identities and canonical bytes, same LRU order.
    std::vector<SavedEntry> got;
    cache.forEachEntryOldestFirst([&](const HashStream::Digest& key,
                                      const HashStream::Digest& identity,
                                      const core::McSchedule& v) {
      got.emplace_back(key, identity, snapshot::serializeMcSchedule(v));
    });
    EXPECT_EQ(got, saved[c.rank()]);
    // Restored entries count as insertions, never as hits.
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().insertions, 3u);
  });
  for (int r = 0; r < nprocs; ++r) EXPECT_EQ(sectionRestored[r], 1);
  std::filesystem::remove_all(dir);
}

TEST(Snapshot, PatchedScheduleIsSavedOnceAndHitsAfterRestore) {
  // HPF CYCLIC [0..29] -> Chaos indices(0..29) over a replicated table.
  // X: rank g/10 owns g; Y: global 19 moves to rank 2.  The cache holds X
  // (built) and Y (patched from X), one entry each, so the snapshot saves
  // two schedules and the restored Y moves the same bits as the original.
  const std::filesystem::path dir = tmpDir("patched");
  constexpr Index n = 30;
  const auto setUp = [&](Comm& c, int owner19) {
    std::vector<Index> mine;
    for (Index g = 0; g < n; ++g) {
      if (g != 19 && g / 10 == c.rank()) mine.push_back(g);
    }
    if (owner19 == c.rank()) mine.push_back(19);
    auto table = std::make_shared<const chaos::TranslationTable>(
        chaos::TranslationTable::build(
            c, mine, n, chaos::TranslationTable::Storage::kReplicated));
    return std::make_shared<chaos::IrregArray<double>>(c, table, mine);
  };
  const auto cyclic = [&](Comm& c) {
    hpfrt::HpfArray<double> a(
        c, hpfrt::HpfDist(Shape::of({n}), {hpfrt::DimDist{
                                              hpfrt::DistKind::kCyclic,
                                              c.size(), 1}}));
    a.fillByPoint(
        [](const Point& p) { return 0.5 + static_cast<double>(p[0]); });
    return a;
  };
  core::SetOfRegions srcSet, dstSet;
  srcSet.add(core::Region::section(
      layout::RegularSection::box({0}, {n - 1})));
  std::vector<Index> all(static_cast<std::size_t>(n));
  for (Index g = 0; g < n; ++g) all[static_cast<std::size_t>(g)] = g;
  dstSet.add(core::Region::indices(all));
  std::vector<double> before, after;

  World::runSPMD(3, [&](Comm& c) {
    const hpfrt::HpfArray<double> src = cyclic(c);
    const auto x = setUp(c, 1);
    const auto y = setUp(c, 2);
    const core::DistObject srcObj = core::HpfAdapter::describe(src);
    core::ScheduleCache& cache = core::defaultScheduleCache();
    (void)cache.getOrBuild(c, srcObj, srcSet,
                           core::ChaosAdapter::describe(*x), dstSet);
    const std::vector<Index> migrated = {19};
    const auto sched = cache.getOrPatch(
        c, srcObj, srcObj, srcSet, core::ChaosAdapter::describe(*x),
        core::ChaosAdapter::describe(*y), dstSet,
        core::deltaFromMigratedIndices(dstSet, migrated));
    EXPECT_EQ(cache.patches(), 1u);
    y->fillByGlobal([](Index) { return -1.0; });
    core::dataMove<double>(c, *sched, src.raw(), y->raw());
    const std::vector<double> got = y->gatherGlobal();
    if (c.rank() == 0) before = got;
    EXPECT_EQ(snapshotSave(c, dir.string()).cacheEntries, 2u);
  });

  World::runSPMD(3, [&](Comm& c) {
    const hpfrt::HpfArray<double> src = cyclic(c);
    const auto y = setUp(c, 2);
    EXPECT_EQ(snapshotRestore(c, dir.string()).cacheEntries, 2u);
    core::ScheduleCache& cache = core::defaultScheduleCache();
    const auto sched =
        cache.getOrBuild(c, core::HpfAdapter::describe(src), srcSet,
                         core::ChaosAdapter::describe(*y), dstSet);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 0u);
    y->fillByGlobal([](Index) { return -1.0; });
    core::dataMove<double>(c, *sched, src.raw(), y->raw());
    const std::vector<double> got = y->gatherGlobal();
    if (c.rank() == 0) after = got;
  });
  std::filesystem::remove_all(dir);

  ASSERT_EQ(before.size(), static_cast<std::size_t>(n));
  for (Index g = 0; g < n; ++g) {
    EXPECT_EQ(before[static_cast<std::size_t>(g)],
              0.5 + static_cast<double>(g));
  }
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(std::memcmp(after.data(), before.data(),
                        before.size() * sizeof(double)),
            0);
}

TEST(Snapshot, WrongProgramSizeFailsLoudly) {
  const std::filesystem::path dir = tmpDir("nprocs");
  World::runSPMD(3, [&](Comm& c) { snapshotSave(c, dir.string()); });
  // Fewer ranks than the save: the files exist, but the rank-count check
  // must reject them on every rank.
  EXPECT_THROW(World::runSPMD(2,
                              [&](Comm& c) {
                                ASSERT_TRUE(
                                    snapshotAvailable(c, dir.string()));
                                snapshotRestore(c, dir.string());
                              }),
               Error);
  // More ranks than the save: rank 3's file is missing, so the collective
  // probe answers false everywhere and restore throws.
  World::runSPMD(4, [&](Comm& c) {
    EXPECT_FALSE(snapshotAvailable(c, dir.string()));
  });
  EXPECT_THROW(
      World::runSPMD(4, [&](Comm& c) { snapshotRestore(c, dir.string()); }),
      Error);
  std::filesystem::remove_all(dir);
}

TEST(Snapshot, MixedGenerationsFailTheManifestAgreement) {
  const std::filesystem::path dirA = tmpDir("gen_a");
  const std::filesystem::path dirB = tmpDir("gen_b");
  for (int gen = 0; gen < 2; ++gen) {
    World::runSPMD(2, [&](Comm& c) {
      core::defaultScheduleCache().insertEntry(
          HashStream::Digest{static_cast<std::uint64_t>(gen + 1), 0},
          HashStream::Digest{1, 2}, sampleMcSchedule(gen));
      snapshotSave(c, (gen == 0 ? dirA : dirB).string());
    });
  }
  // Frankenstein directory: rank 0's file from generation A, rank 1's from
  // generation B.  Each file is individually valid (framed, checksummed),
  // but the manifests disagree across ranks.
  const std::filesystem::path dirC = tmpDir("gen_mixed");
  std::filesystem::create_directories(dirC);
  std::filesystem::copy_file(dirA / "rank0.mcsnap", dirC / "rank0.mcsnap");
  std::filesystem::copy_file(dirB / "rank1.mcsnap", dirC / "rank1.mcsnap");
  EXPECT_THROW(
      World::runSPMD(2, [&](Comm& c) { snapshotRestore(c, dirC.string()); }),
      Error);
  std::filesystem::remove_all(dirA);
  std::filesystem::remove_all(dirB);
  std::filesystem::remove_all(dirC);
}

TEST(Snapshot, TruncatedOrCorruptFileFailsLoudly) {
  const std::filesystem::path dir = tmpDir("truncate");
  World::runSPMD(2, [&](Comm& c) {
    core::defaultScheduleCache().insertEntry(
        HashStream::Digest{9, 9}, HashStream::Digest{1, 2},
        sampleMcSchedule(0));
    snapshotSave(c, dir.string());
  });
  const std::filesystem::path victim = dir / "rank0.mcsnap";
  std::vector<char> bytes;
  {
    std::ifstream in(victim, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 60u);
  const auto rewrite = [&](std::size_t keep, int flipAt) {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    std::vector<char> copy(bytes.begin(),
                           bytes.begin() + static_cast<long>(keep));
    if (flipAt >= 0) copy[static_cast<std::size_t>(flipAt)] ^= 0x40;
    out.write(copy.data(), static_cast<long>(copy.size()));
  };
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{55}, bytes.size() / 2,
        bytes.size() - 1}) {
    rewrite(keep, -1);
    EXPECT_THROW(World::runSPMD(
                     2, [&](Comm& c) { snapshotRestore(c, dir.string()); }),
                 Error)
        << "kept " << keep << " of " << bytes.size() << " file bytes";
  }
  rewrite(bytes.size(), static_cast<int>(bytes.size()) - 9);  // payload flip
  EXPECT_THROW(
      World::runSPMD(2, [&](Comm& c) { snapshotRestore(c, dir.string()); }),
      Error);
  std::filesystem::remove_all(dir);
}

TEST(Snapshot, VersionTwoBodyIsRefused) {
  // Version 3 changed how index regions enter cache keys, so a version-2
  // snapshot's entries could never hit again; version 4 dropped the
  // schedules' offset-list and local-pair lanes, so a version-3 body no
  // longer parses.  Restore refuses both bodies instead of loading them.
  for (const std::uint32_t oldVersion : {2u, 3u}) {
    const std::filesystem::path dir =
        tmpDir("version" + std::to_string(oldVersion));
    World::runSPMD(2, [&](Comm& c) {
      core::defaultScheduleCache().insertEntry(
          HashStream::Digest{3, 4}, HashStream::Digest{1, 2},
          sampleMcSchedule(c.rank()));
      snapshotSave(c, dir.string());
    });
    for (int r = 0; r < 2; ++r) {
      const std::filesystem::path file =
          dir / ("rank" + std::to_string(r) + ".mcsnap");
      std::vector<std::byte> bytes;
      {
        std::ifstream in(file, std::ios::binary);
        std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
        bytes.resize(raw.size());
        std::memcpy(bytes.data(), raw.data(), raw.size());
      }
      // Re-frame the same body payload as the old version; keep the
      // manifest.
      std::size_t bodySize = 0;
      const blob::FrameView body =
          blob::unframe(bytes, blob::kSnapshotBody, &bodySize);
      ASSERT_EQ(body.kindVersion, 4u);
      std::vector<std::byte> old =
          blob::frame(blob::kSnapshotBody, oldVersion, body.payload);
      old.insert(old.end(), bytes.begin() + static_cast<long>(bodySize),
                 bytes.end());
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(old.data()),
                static_cast<std::streamsize>(old.size()));
    }
    try {
      World::runSPMD(2, [&](Comm& c) { snapshotRestore(c, dir.string()); });
      ADD_FAILURE() << "a version-" << oldVersion << " snapshot was restored";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown snapshot version"),
                std::string::npos)
          << e.what();
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(Snapshot, SectionSetMismatchFailsLoudly) {
  const std::filesystem::path dir = tmpDir("sections");
  World::runSPMD(2, [&](Comm& c) {
    snapshot::threadSections().add(
        "app.state", [](Comm&) { return std::vector<std::byte>(4); },
        [](Comm&, std::span<const std::byte>) {});
    snapshotSave(c, dir.string());
  });
  // The saving configuration registered "app.state"; restoring without it
  // (or with a different name) must fail — the snapshot is only meaningful
  // to the configuration that wrote it.
  EXPECT_THROW(
      World::runSPMD(2, [&](Comm& c) { snapshotRestore(c, dir.string()); }),
      Error);
  EXPECT_THROW(
      World::runSPMD(2,
                     [&](Comm& c) {
                       snapshot::threadSections().add(
                           "other.state",
                           [](Comm&) { return std::vector<std::byte>(4); },
                           [](Comm&, std::span<const std::byte>) {});
                       snapshotRestore(c, dir.string());
                     }),
      Error);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Kill-and-restart differential: the warm-started server reproduces the
// cold run bitwise, with zero inspector builds on either side.

double buildCount() {
  const obs::Snapshot s = obs::threadRegistry().snapshot();
  return s.has("build.count") ? s.get("build.count") : 0.0;
}

struct RunOutcome {
  std::vector<double> y;
  double serverBuilds = 0;
  double clientBuilds = 0;
  bool sharedSchedule = false;
  server::ServerStats stats;
};

RunOutcome runServerOnce(Index n, const std::string& dir) {
  RunOutcome out;
  std::vector<ProgramSpec> specs;
  specs.push_back(ProgramSpec{"server", 3, [&](Comm& c) {
    server::ServerConfig cfg;
    cfg.n = n;
    cfg.totalSessions = 1;
    cfg.snapshotDir = dir;
    server::ComputeServer srv(c, cfg);
    const double before = buildCount();
    srv.run();
    if (c.rank() == 0) {
      out.stats = srv.stats();
      out.serverBuilds = buildCount() - before;
    }
  }});
  specs.push_back(ProgramSpec{"client", 1, [&](Comm& c) {
    server::SessionConfig cfg;
    cfg.n = n;
    server::ClientSession session(c, cfg);
    const double before = buildCount();
    const server::AttachStats as = session.attach();
    out.clientBuilds = buildCount() - before;
    out.sharedSchedule = as.sharedSchedule;
    session.x().fillByPoint([](const Point& p) {
      return static_cast<double>((p[0] * 5 + 2) % 9) - 4.0;
    });
    session.request();
    out.y = session.y().gatherGlobal();
    session.detach();
  }});
  World::run(specs);
  return out;
}

TEST(Snapshot, WarmStartedServerMatchesColdRunBitwiseWithZeroBuilds) {
  const std::filesystem::path dir = tmpDir("warm_start");
  const Index n = 64;
  const RunOutcome cold = runServerOnce(n, dir.string());
  const RunOutcome warm = runServerOnce(n, dir.string());
  std::filesystem::remove_all(dir);

  // Cold run built; its attach cannot have been a sharing hit.
  EXPECT_FALSE(cold.sharedSchedule);
  EXPECT_GT(cold.serverBuilds + cold.clientBuilds, 0.0);
  // Warm run: first same-layout attach is a sharing hit, nothing builds.
  EXPECT_TRUE(warm.sharedSchedule);
  EXPECT_GE(warm.stats.schedShareHits, 1u);
  EXPECT_EQ(warm.serverBuilds, 0.0);
  EXPECT_EQ(warm.clientBuilds, 0.0);
  // And the answers are bitwise identical.
  ASSERT_EQ(warm.y.size(), cold.y.size());
  EXPECT_EQ(std::memcmp(warm.y.data(), cold.y.data(),
                        cold.y.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace mc
