// The Meta-Chaos library adapter interface.
//
// This is the contract of the paper's framework-based approach (Section 3):
// a data parallel library interoperates with every other library by
// exporting a small set of inquiry functions — enumerate the elements of a
// SetOfRegions in linearization order, dereference each to its (owner
// processor, local address), and (optionally) serialize the distribution
// descriptor so another program can reason about it.  Nothing else about
// the library is exposed; Meta-Chaos stays ignorant of how the library
// distributes its data.
//
// The enumeration and the dereference form one inquiry here, asked by
// position and answered in runs: enumerateRangeRuns gives the owners and
// local offsets of a window of the linearization as maximal same-owner
// runs, and enumerateChunkRuns is its collective form for descriptors
// whose ownership needs communication.  A library derives its ownership
// once, in enumerateRangeRuns; the element-by-element derivation the
// tests compare every adapter against lives in tests/oracle
// (element_reference.h).
#pragma once

#include <functional>
#include <memory>
#include <typeinfo>

#include "core/region.h"
#include "sched/run_plan.h"
#include "transport/comm.h"

namespace mc::core {

/// Type-erased handle to a library-specific distribution descriptor (e.g. a
/// PartiDesc, an HpfDist, a Chaos TranslationTable, a TulipDesc).
class DistObject {
 public:
  template <typename D>
  DistObject(std::string library, std::shared_ptr<const D> desc)
      : library_(std::move(library)),
        desc_(std::move(desc)),
        type_(&typeid(D)) {
    MC_REQUIRE(desc_ != nullptr, "null distribution descriptor");
  }

  const std::string& library() const { return library_; }

  template <typename D>
  const D& as() const {
    MC_REQUIRE(*type_ == typeid(D),
               "descriptor type mismatch for library '%s'", library_.c_str());
    return *static_cast<const D*>(desc_.get());
  }

 private:
  std::string library_;
  std::shared_ptr<const void> desc_;
  const std::type_info* type_;
};

/// A run of linearization positions [lin, lin+count) owned by processor
/// `owner` at local offsets off + k*offStride.  Regular libraries produce
/// one run per local section row; fully irregular data degrades to count-1
/// runs.  Count-1 runs carry offStride 0 (canonical form); lanes grow
/// through sched::appendRun, whose elements must also continue `lin` and
/// match `owner`.  Five Index fields and no padding: the cooperation build
/// ships these rows between programs as raw bytes.
struct LinRun {
  layout::Index lin = 0;
  layout::Index off = 0;
  layout::Index count = 0;
  layout::Index offStride = 0;
  layout::Index owner = 0;

  bool operator==(const LinRun&) const = default;
  static constexpr sched::RunShape<LinRun, 1> kShape{
      {{{&LinRun::off, &LinRun::offStride}}}, &LinRun::lin, &LinRun::owner};
};

class LibraryAdapter {
 public:
  virtual ~LibraryAdapter() = default;

  /// Registry key, e.g. "parti", "hpf", "chaos", "pc++".
  virtual std::string name() const = 0;

  /// Checks that `set` is well-formed for `obj` (kind, bounds); throws
  /// mc::Error otherwise.
  virtual void validate(const DistObject& obj,
                        const SetOfRegions& set) const = 0;

  /// True when ownership of any element is computable locally from the
  /// descriptor (analytic distributions, or a replicated translation
  /// table).  Required by the *duplication* schedule method.
  virtual bool supportsLocalEnumeration(const DistObject& obj) const = 0;

  /// Callback for run-producing enumeration: positions [lin, lin+count)
  /// are owned by `owner` at offsets off + k*offStride.  Runs arrive in
  /// linearization order and never overlap.
  using RunFn = std::function<void(layout::Index lin, int owner,
                                   layout::Index off,
                                   layout::Index count,
                                   layout::Index offStride)>;

  /// Ownership of linearization positions [linLo, linHi): emits maximal
  /// same-owner runs covering the range exactly, in order
  /// (core::RunEmitter makes them maximal).  No communication; only valid
  /// when supportsLocalEnumeration(obj).  Regular adapters emit one run per
  /// local section row; irregular ownership degrades to count-1 runs.
  virtual void enumerateRangeRuns(const DistObject& obj,
                                  const SetOfRegions& set,
                                  layout::Index linLo, layout::Index linHi,
                                  const RunFn& fn) const = 0;

  /// Ownership by position.  Collective over the owning program: each
  /// processor passes its own range [linLo, linHi) (ranges may differ and
  /// may be empty, but every processor calls) and receives that range's
  /// maximal same-owner runs, in order — the cooperation method's chunk
  /// owners ask for their own chunk.  The default enumerates the range
  /// locally and charges it as compute; a library whose ownership lookup
  /// needs communication (Chaos with a distributed translation table)
  /// overrides it with a collective lookup.
  virtual void enumerateChunkRuns(const DistObject& obj,
                                  const SetOfRegions& set,
                                  layout::Index linLo, layout::Index linHi,
                                  transport::Comm& comm,
                                  const RunFn& fn) const {
    comm.compute([&] { enumerateRangeRuns(obj, set, linLo, linHi, fn); });
  }

  /// A cheap, communication-free content digest of the locally held
  /// descriptor state, used as the descriptor's contribution to schedule
  /// cache keys.  Analytic descriptors hash their full parameters; a
  /// library whose descriptor is itself distributed (Chaos with a
  /// distributed translation table) hashes the calling rank's shard.  Two
  /// descriptors with equal fingerprints on every rank must produce
  /// identical schedules for identical region sets.
  virtual std::uint64_t localFingerprint(const DistObject& obj) const = 0;

  /// Modeled per-element ownership-lookup cost for this descriptor (zero
  /// for closed-form distributions).  The duplication builder charges
  /// 2 x (set size / nprocs) x this cost per processor, reproducing the
  /// paper's observation that duplication "must call the Chaos dereference
  /// function twice" while cooperation calls it once.
  virtual double modeledElementDereferenceCost(const DistObject&) const {
    return 0.0;
  }

  /// Wire format for the distribution descriptor, so the *other* program
  /// can enumerate this library's data (inter-program duplication method).
  /// Collective over the owning program (a Chaos distributed table must be
  /// gathered — the expensive case the paper calls out).
  virtual std::vector<std::byte> serializeDesc(const DistObject& obj,
                                               transport::Comm& comm) const = 0;
  virtual DistObject deserializeDesc(std::span<const std::byte> bytes) const = 0;
};

}  // namespace mc::core
