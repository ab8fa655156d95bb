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

/// One element of a linearization: its position and local offset (the owner
/// is implied by who holds the record).
struct LinLoc {
  layout::Index lin = 0;
  layout::Index offset = 0;
};

/// A run of linearization positions [lin, lin+count) with one owner, living
/// at local offsets off + k*offStride.  Regular libraries produce one run
/// per local section row; fully irregular data degrades to count-1 runs.
/// Count-1 runs carry offStride 0 (canonical form); lanes grow through
/// sched::appendRun, whose elements must also continue `lin`.
struct LinRun {
  layout::Index lin = 0;
  layout::Index off = 0;
  layout::Index count = 0;
  layout::Index offStride = 0;

  bool operator==(const LinRun&) const = default;
  static constexpr sched::RunShape<LinRun, 1> kShape{
      {{{&LinRun::off, &LinRun::offStride}}}, &LinRun::lin};
};

class LibraryAdapter {
 public:
  virtual ~LibraryAdapter() = default;

  /// Registry key, e.g. "parti", "hpf", "chaos", "pc++".
  virtual std::string name() const = 0;
  /// The Region kind this library defines.
  virtual Region::Kind regionKind() const = 0;

  /// Checks that `set` is well-formed for `obj` (kind, bounds); throws
  /// mc::Error otherwise.
  virtual void validate(const DistObject& obj,
                        const SetOfRegions& set) const = 0;

  /// True when ownership of any element is computable locally from the
  /// descriptor (analytic distributions, or a replicated translation
  /// table).  Required by the *duplication* schedule method.
  virtual bool supportsLocalEnumeration(const DistObject& obj) const = 0;

  /// Enumerates the whole linearization of `set` in order, calling
  /// fn(linPos, ownerRank, localOffset) per element.  No communication;
  /// only valid when supportsLocalEnumeration(obj).
  virtual void enumerateAll(
      const DistObject& obj, const SetOfRegions& set,
      const std::function<void(layout::Index lin, int owner,
                               layout::Index offset)>& fn) const = 0;

  /// Collective over the owning program: returns the calling processor's
  /// owned elements of the linearization, sorted by position.  The default
  /// filters enumerateAll; libraries whose dereference requires
  /// communication (Chaos with a distributed translation table) override
  /// it with a partitioned collective implementation.
  virtual std::vector<LinLoc> enumerateOwned(const DistObject& obj,
                                             const SetOfRegions& set,
                                             transport::Comm& comm) const;

  /// Enumerates linearization positions [linLo, linHi) only, in order, with
  /// no communication; only valid when supportsLocalEnumeration(obj).  The
  /// default filters enumerateAll (O(set size)); adapters whose regions
  /// support random access override it with an O(linHi - linLo)
  /// implementation — this is what lets the cooperation build spread its
  /// ownership work across processors.
  virtual void enumerateRange(
      const DistObject& obj, const SetOfRegions& set, layout::Index linLo,
      layout::Index linHi,
      const std::function<void(layout::Index lin, int owner,
                               layout::Index offset)>& fn) const;

  /// Callback for run-producing enumeration: positions [lin, lin+count)
  /// are owned by `owner` at offsets off + k*offStride.  Runs arrive in
  /// linearization order and never overlap.
  using RunFn = std::function<void(layout::Index lin, int owner,
                                   layout::Index off,
                                   layout::Index count,
                                   layout::Index offStride)>;

  /// Run-producing form of enumerateOwned: the calling processor's owned
  /// elements as maximal (lin, off, count, offStride) runs, sorted by
  /// position.  Collective, like enumerateOwned.  The default shim derives
  /// runs from enumerateRangeRuns when the descriptor is locally
  /// enumerable, else coalesces enumerateOwned element-wise — so every
  /// adapter works unmodified, and regular adapters that override
  /// enumerateRangeRuns get O(runs) behaviour for free.
  virtual std::vector<LinRun> enumerateOwnedRuns(const DistObject& obj,
                                                 const SetOfRegions& set,
                                                 transport::Comm& comm) const;

  /// Run-producing form of enumerateRange: emits maximal same-owner runs
  /// covering [linLo, linHi) exactly, in order.  No communication; only
  /// valid when supportsLocalEnumeration(obj).  The default shim coalesces
  /// enumerateRange element-wise (O(linHi - linLo)); regular adapters
  /// override it with an O(runs) implementation — one callback per local
  /// section row instead of one per element.
  virtual void enumerateRangeRuns(const DistObject& obj,
                                  const SetOfRegions& set,
                                  layout::Index linLo, layout::Index linHi,
                                  const RunFn& fn) const;

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
