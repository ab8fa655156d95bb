// Per-rank persistent snapshots: save the expensive inspector state
// (content-addressed schedule cache + registered subsystem sections) to a
// directory, and restore it after a restart so the process comes back warm.
//
// The paper's inspector/executor split makes inspector results the state
// worth keeping: schedules and translation tables cost collective
// communication to build and nothing but bytes to keep.  PR 8 serialized
// schedules across *programs*; this layer serializes them across
// *restarts*, inside the framed, versioned, checksummed container of
// util/blob_io.h.
//
// Layout on disk: one file per rank, `<dir>/rank<r>.mcsnap`, holding two
// concatenated frames —
//
//   frame(kSnapshotBody)      rank tag, schedule-cache entries (key +
//                             build identity + framed McSchedule), named
//                             sections
//   frame(kSnapshotManifest)  program size + every rank's body digest
//
// The manifest is identical in every rank's file (it is allgathered before
// writing), which is what makes a mismatched restore fail loudly:
//   * a file from a different program size fails the rank-count check;
//   * a file from a different save generation fails the cross-rank
//     manifest-agreement check (digests differ);
//   * a truncated or edited file fails the frame checksum;
//   * ranks whose restored caches disagree in entry count fail the
//     collective entry-count agreement check.
//
// Sections are the per-layer hook: a subsystem (e.g. the compute server)
// registers a named save/restore callback pair on its rank's thread-local
// SectionRegistry, and its bytes travel inside the body frame.  Restore
// requires the registered section set and the saved section set to match
// exactly — a snapshot is only meaningful to the configuration that wrote
// it.
//
// Both entry points are collective over the program; every rank must call
// them together (they barrier and allgather internally).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "transport/comm.h"

namespace mc::snapshot {

/// Serializes a subsystem's state to bytes (typically a nested frame).
using SaveFn = std::function<std::vector<std::byte>(transport::Comm&)>;
/// Restores a subsystem's state from the bytes its SaveFn produced.
using RestoreFn =
    std::function<void(transport::Comm&, std::span<const std::byte>)>;

/// Per-rank (thread-local) registry of named snapshot sections.  Sections
/// are saved and restored in registration order.
class SectionRegistry {
 public:
  void add(std::string name, SaveFn save, RestoreFn restore);
  void remove(const std::string& name);
  bool has(const std::string& name) const;

  struct Section {
    std::string name;
    SaveFn save;
    RestoreFn restore;
  };
  const std::vector<Section>& sections() const { return sections_; }

 private:
  std::vector<Section> sections_;
};

/// The calling virtual processor's section registry (thread-local, like
/// core::defaultScheduleCache()).
SectionRegistry& threadSections();

/// What a save/restore did, per rank.  Mirrored by the snapshot.* obs
/// counters (cumulative across calls on the thread).
struct Report {
  std::uint64_t bytes = 0;          ///< framed bytes written / read
  std::uint64_t cacheEntries = 0;   ///< schedule-cache entries moved
  std::uint64_t sections = 0;       ///< named sections moved
};

}  // namespace mc::snapshot

namespace mc {

/// Collective: every rank serializes its schedule cache and registered
/// sections into `<dir>/rank<r>.mcsnap` (created atomically via a temp file
/// + rename; `dir` is created if missing).
snapshot::Report snapshotSave(transport::Comm& comm, const std::string& dir);

/// Collective inverse: every rank restores from its own file, after the
/// rank-count, manifest-agreement, and entry-count agreement checks pass.
/// Throws mc::Error (on every rank that detects it) on any mismatch.
snapshot::Report snapshotRestore(transport::Comm& comm,
                                 const std::string& dir);

/// Collective probe: true iff every rank of the program finds its own
/// snapshot file under `dir` (the warm-start "is there anything to restore"
/// test; agreement is allreduced so all ranks answer identically).
bool snapshotAvailable(transport::Comm& comm, const std::string& dir);

}  // namespace mc
