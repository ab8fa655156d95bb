#include "snapshot/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/schedule_cache.h"
#include "obs/metrics.h"
#include "snapshot/mc_schedule_io.h"
#include "util/blob_io.h"

namespace mc::snapshot {

namespace {

// Version 2: every schedule-cache entry carries its build identity.
// Version 3: an index region enters cache keys as the digest of its list,
// so version-2 keys could never hit again and are refused.
// Version 4: embedded schedules carry runs only (no offset-list or
// local-pair lanes), so a version-3 body no longer parses.
constexpr std::uint32_t kSnapshotVersion = 4;

/// Cumulative per-rank counters behind the snapshot.* obs metrics.
struct Counters {
  std::uint64_t saveBytes = 0;
  std::uint64_t saveEntries = 0;
  std::uint64_t restoreBytes = 0;
  std::uint64_t restoreEntries = 0;
  std::uint64_t restoreHits = 0;  // completed snapshotRestore calls
};

Counters& threadCounters() {
  thread_local Counters counters;
  thread_local bool registered = [] {
    obs::MetricsRegistry& reg = obs::threadRegistry();
    const Counters& c = counters;
    reg.registerCounter("snapshot.save.bytes", [&c] {
      return static_cast<double>(c.saveBytes);
    });
    reg.registerCounter("snapshot.save.entries", [&c] {
      return static_cast<double>(c.saveEntries);
    });
    reg.registerCounter("snapshot.restore.bytes", [&c] {
      return static_cast<double>(c.restoreBytes);
    });
    reg.registerCounter("snapshot.restore.entries", [&c] {
      return static_cast<double>(c.restoreEntries);
    });
    reg.registerCounter("snapshot.restore.hits", [&c] {
      return static_cast<double>(c.restoreHits);
    });
    return true;
  }();
  (void)registered;
  return counters;
}

std::filesystem::path rankFile(const std::string& dir, int rank) {
  return std::filesystem::path(dir) /
         ("rank" + std::to_string(rank) + ".mcsnap");
}

/// Allgathers a 128-bit digest: result[2r], result[2r+1] = rank r's halves.
std::vector<std::uint64_t> allgatherDigest(transport::Comm& comm,
                                           const HashStream::Digest& d) {
  const std::uint64_t mine[2] = {d[0], d[1]};
  const auto rows =
      comm.allgather<std::uint64_t>(std::span<const std::uint64_t>(mine, 2));
  std::vector<std::uint64_t> flat;
  flat.reserve(rows.size() * 2);
  for (const auto& row : rows) {
    MC_REQUIRE(row.size() == 2, "malformed digest row in allgather");
    flat.push_back(row[0]);
    flat.push_back(row[1]);
  }
  return flat;
}

/// Every rank must hold the *same* manifest — allgather the manifest
/// digests and compare, so a directory mixing files from two save
/// generations fails on every rank.
void requireAgreement(transport::Comm& comm, const HashStream::Digest& mine,
                      const char* what) {
  const std::vector<std::uint64_t> all = allgatherDigest(comm, mine);
  for (int rk = 0; rk < comm.size(); ++rk) {
    const auto i = static_cast<std::size_t>(rk) * 2;
    MC_REQUIRE(all[i] == mine[0] && all[i + 1] == mine[1],
               "snapshot %s disagrees between rank %d and rank %d — the "
               "directory mixes files from different snapshots",
               what, comm.rank(), rk);
  }
}

}  // namespace

void SectionRegistry::add(std::string name, SaveFn save, RestoreFn restore) {
  MC_REQUIRE(!name.empty(), "snapshot section needs a name");
  MC_REQUIRE(!has(name), "snapshot section '%s' is already registered",
             name.c_str());
  MC_REQUIRE(static_cast<bool>(save) && static_cast<bool>(restore),
             "snapshot section '%s' needs both callbacks", name.c_str());
  sections_.push_back(
      Section{std::move(name), std::move(save), std::move(restore)});
}

void SectionRegistry::remove(const std::string& name) {
  std::erase_if(sections_,
                [&](const Section& s) { return s.name == name; });
}

bool SectionRegistry::has(const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

SectionRegistry& threadSections() {
  thread_local SectionRegistry registry;
  return registry;
}

}  // namespace mc::snapshot

namespace mc {

using snapshot::Report;

Report snapshotSave(transport::Comm& comm, const std::string& dir) {
  Report rep;

  // --- body: rank tag + schedule-cache dump + registered sections ----------
  std::vector<std::byte> payload;
  blob::putU64(payload, static_cast<std::uint64_t>(comm.size()));
  blob::putU64(payload, static_cast<std::uint64_t>(comm.rank()));

  core::ScheduleCache& cache = core::defaultScheduleCache();
  blob::putU64(payload, cache.size());
  cache.forEachEntryOldestFirst([&](const HashStream::Digest& key,
                                    const HashStream::Digest& identity,
                                    const core::McSchedule& value) {
    blob::putU64(payload, key[0]);
    blob::putU64(payload, key[1]);
    blob::putU64(payload, identity[0]);
    blob::putU64(payload, identity[1]);
    blob::putBytes(payload, snapshot::serializeMcSchedule(value));
  });
  rep.cacheEntries = cache.size();

  const auto& sections = snapshot::threadSections().sections();
  blob::putU64(payload, sections.size());
  for (const auto& s : sections) {
    blob::putStr(payload, s.name);
    blob::putBytes(payload, s.save(comm));
  }
  rep.sections = sections.size();

  const std::vector<std::byte> body =
      blob::frame(blob::kSnapshotBody, snapshot::kSnapshotVersion, payload);

  // --- manifest: every rank's body digest, identical in every file ---------
  const HashStream::Digest myDigest = blob::payloadChecksum(body);
  const std::vector<std::uint64_t> all =
      snapshot::allgatherDigest(comm, myDigest);
  std::vector<std::byte> mpayload;
  blob::putU64(mpayload, static_cast<std::uint64_t>(comm.size()));
  blob::putPods(mpayload, all);
  const std::vector<std::byte> manifest = blob::frame(
      blob::kSnapshotManifest, snapshot::kSnapshotVersion, mpayload);

  // --- write <dir>/rank<r>.mcsnap atomically (temp + rename) ---------------
  if (comm.rank() == 0) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    MC_REQUIRE(!ec, "cannot create snapshot directory '%s': %s", dir.c_str(),
               ec.message().c_str());
  }
  comm.barrier();  // the directory exists before anyone writes into it
  const std::filesystem::path path = snapshot::rankFile(dir, comm.rank());
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    MC_REQUIRE(out.good(), "cannot open '%s' for writing",
               tmp.string().c_str());
    out.write(reinterpret_cast<const char*>(body.data()),
              static_cast<std::streamsize>(body.size()));
    out.write(reinterpret_cast<const char*>(manifest.data()),
              static_cast<std::streamsize>(manifest.size()));
    MC_REQUIRE(out.good(), "short write to '%s'", tmp.string().c_str());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  MC_REQUIRE(!ec, "cannot finalize snapshot file '%s': %s",
             path.string().c_str(), ec.message().c_str());
  comm.barrier();  // the snapshot is complete on every rank before return

  rep.bytes = body.size() + manifest.size();
  snapshot::Counters& counters = snapshot::threadCounters();
  counters.saveBytes += rep.bytes;
  counters.saveEntries += rep.cacheEntries;
  return rep;
}

Report snapshotRestore(transport::Comm& comm, const std::string& dir) {
  Report rep;
  const std::filesystem::path path = snapshot::rankFile(dir, comm.rank());

  std::vector<std::byte> file;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    MC_REQUIRE(in.good(), "no snapshot for rank %d under '%s'", comm.rank(),
               dir.c_str());
    const std::streamsize size = in.tellg();
    in.seekg(0);
    file.resize(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char*>(file.data()), size);
    MC_REQUIRE(in.good(), "short read from '%s'", path.string().c_str());
  }
  rep.bytes = file.size();

  // --- frames: body ++ manifest --------------------------------------------
  std::size_t bodySize = 0;
  const blob::FrameView body =
      blob::unframe(file, blob::kSnapshotBody, &bodySize);
  MC_REQUIRE(body.kindVersion == snapshot::kSnapshotVersion,
             "unknown snapshot version %u", body.kindVersion);
  const std::span<const std::byte> rest =
      std::span<const std::byte>(file).subspan(bodySize);
  const blob::FrameView manifest =
      blob::unframe(rest, blob::kSnapshotManifest);
  MC_REQUIRE(manifest.kindVersion == snapshot::kSnapshotVersion,
             "unknown snapshot manifest version %u", manifest.kindVersion);

  // --- agreement checks ----------------------------------------------------
  blob::ByteReader m(manifest.payload);
  const std::uint64_t nprocs = m.u64();
  MC_REQUIRE(nprocs == static_cast<std::uint64_t>(comm.size()),
             "snapshot was saved by a %llu-process program, this program has "
             "%d processes",
             static_cast<unsigned long long>(nprocs), comm.size());
  const std::vector<std::uint64_t> digests = m.pods<std::uint64_t>();
  m.requireEnd("snapshot manifest");
  MC_REQUIRE(digests.size() == 2 * static_cast<std::size_t>(comm.size()),
             "snapshot manifest lists %zu digests for %d ranks",
             digests.size() / 2, comm.size());
  const HashStream::Digest myDigest =
      blob::payloadChecksum(std::span<const std::byte>(file).first(bodySize));
  const auto di = static_cast<std::size_t>(comm.rank()) * 2;
  MC_REQUIRE(digests[di] == myDigest[0] && digests[di + 1] == myDigest[1],
             "snapshot body for rank %d does not match the manifest — the "
             "file was replaced or mixed in from another snapshot",
             comm.rank());
  snapshot::requireAgreement(comm, blob::payloadChecksum(manifest.payload),
                             "manifest");

  // --- body: rank tag + schedule cache + sections --------------------------
  blob::ByteReader r(body.payload);
  MC_REQUIRE(r.u64() == static_cast<std::uint64_t>(comm.size()),
             "snapshot body rank-count tag mismatch");
  MC_REQUIRE(r.u64() == static_cast<std::uint64_t>(comm.rank()),
             "snapshot body was saved by a different rank");

  core::ScheduleCache& cache = core::defaultScheduleCache();
  // Each entry is at least key + identity (32 bytes) + blob length prefix
  // (8 bytes).
  const std::uint64_t n = r.count(5 * sizeof(std::uint64_t));
  for (std::uint64_t i = 0; i < n; ++i) {
    const HashStream::Digest key{r.u64(), r.u64()};
    const HashStream::Digest identity{r.u64(), r.u64()};
    cache.insertEntry(key, identity,
                      snapshot::deserializeMcSchedule(r.bytes()));
  }
  rep.cacheEntries = n;
  // Collective entry-count agreement: descriptor fingerprints are
  // rank-local, so the *keys* legitimately differ across ranks — but every
  // rank of one save dumped its cache at the same point, so the counts must
  // match.  A mismatch means the directory holds files from different runs.
  const std::uint64_t minN = comm.allreduceValue(
      n, [](std::uint64_t a, std::uint64_t b) { return a < b ? a : b; });
  const std::uint64_t maxN = comm.allreduceValue(
      n, [](std::uint64_t a, std::uint64_t b) { return a > b ? a : b; });
  MC_REQUIRE(minN == maxN,
             "snapshot schedule-cache entry counts disagree across ranks "
             "(%llu vs %llu)",
             static_cast<unsigned long long>(minN),
             static_cast<unsigned long long>(maxN));

  const auto& sections = snapshot::threadSections().sections();
  const std::uint64_t ns = r.count(2 * sizeof(std::uint64_t));
  MC_REQUIRE(ns == sections.size(),
             "snapshot holds %llu sections, %zu are registered — restore "
             "with the same subsystems that saved",
             static_cast<unsigned long long>(ns), sections.size());
  for (std::uint64_t i = 0; i < ns; ++i) {
    const std::string name = r.str();
    const std::span<const std::byte> bytes = r.bytes();
    const auto& s = sections[static_cast<std::size_t>(i)];
    MC_REQUIRE(name == s.name,
               "snapshot section '%s' does not match registered section "
               "'%s' (order and names must agree)",
               name.c_str(), s.name.c_str());
    s.restore(comm, bytes);
  }
  rep.sections = ns;
  r.requireEnd("snapshot body");

  snapshot::Counters& counters = snapshot::threadCounters();
  counters.restoreBytes += rep.bytes;
  counters.restoreEntries += rep.cacheEntries;
  counters.restoreHits += 1;
  return rep;
}

bool snapshotAvailable(transport::Comm& comm, const std::string& dir) {
  std::error_code ec;
  const bool mine =
      std::filesystem::exists(snapshot::rankFile(dir, comm.rank()), ec) &&
      !ec;
  const int all = comm.allreduceValue(
      mine ? 1 : 0, [](int a, int b) { return a < b ? a : b; });
  return all != 0;
}

}  // namespace mc
