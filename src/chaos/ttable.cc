#include "chaos/ttable.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "chaos/deref_cache.h"
#include "util/blob_io.h"
#include "util/hash.h"

namespace mc::chaos {

using layout::Index;

namespace {
// Table identities for the dereference cache: monotone, never reused.
// 0 is reserved for "no table" so a default-constructed uid never matches.
std::uint64_t nextTableUid() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// The digest of one row: an owner's globals in local order.
HashStream::Digest rowDigest(std::span<const Index> row) {
  HashStream h;
  h.podSpan(row);
  return h.digest();
}

/// Rebuilds the rows of a replicated table from its entries and returns
/// their digests in rank order.  Both callers check each owner's range and
/// that the counts sum to the entry count, so entries whose offsets stay
/// below their owner's count and fill no slot twice fill every slot;
/// anything else is rejected.
std::vector<HashStream::Digest> rowDigestsFromEntries(
    std::span<const ElementLoc> entries, std::span<const Index> counts) {
  std::vector<std::vector<Index>> rows(counts.size());
  for (size_t p = 0; p < rows.size(); ++p) {
    rows[p].assign(static_cast<size_t>(counts[p]), -1);
  }
  for (size_t g = 0; g < entries.size(); ++g) {
    const ElementLoc& e = entries[g];
    std::vector<Index>& row = rows[static_cast<size_t>(e.proc)];
    MC_REQUIRE(e.offset >= 0 && e.offset < static_cast<Index>(row.size()),
               "entry offset %lld out of range for owner %d",
               static_cast<long long>(e.offset), e.proc);
    Index& slot = row[static_cast<size_t>(e.offset)];
    MC_REQUIRE(slot == -1, "slot %lld of owner %d filled twice",
               static_cast<long long>(e.offset), e.proc);
    slot = static_cast<Index>(g);
  }
  std::vector<HashStream::Digest> digests;
  for (const std::vector<Index>& row : rows) digests.push_back(rowDigest(row));
  return digests;
}

}  // namespace

TranslationTable TranslationTable::build(
    transport::Comm& comm, std::span<const Index> myGlobals, Index globalSize,
    Storage storage, double modeledQueryCostSeconds) {
  MC_REQUIRE(globalSize > 0);
  MC_REQUIRE(modeledQueryCostSeconds >= 0.0);
  TranslationTable t;
  t.storage_ = storage;
  t.modeledQueryCost_ = modeledQueryCostSeconds;
  t.globalSize_ = globalSize;
  t.myRank_ = comm.rank();
  t.uid_ = nextTableUid();
  const int np = comm.size();
  t.homeBlock_ = (globalSize + np - 1) / np;
  const auto requireCover = [globalSize](Index total) {
    MC_REQUIRE(total == globalSize,
               "partition covers %lld elements, global size is %lld",
               static_cast<long long>(total),
               static_cast<long long>(globalSize));
  };

  if (storage == Storage::kReplicated) {
    // The owner of an entry is its row and its offset its position in the
    // row, so each rank ships only its assignment, after the row's digest
    // (the fingerprint folds the P digests).
    constexpr size_t kHead = 2;  // the digest's two words
    const HashStream::Digest digest = rowDigest(myGlobals);
    std::vector<Index> mine;
    mine.reserve(kHead + myGlobals.size());
    mine.push_back(static_cast<Index>(digest[0]));
    mine.push_back(static_cast<Index>(digest[1]));
    mine.insert(mine.end(), myGlobals.begin(), myGlobals.end());
    const auto rows = comm.allgather<Index>(std::span<const Index>(mine));
    std::vector<HashStream::Digest> digests;
    Index total = 0;
    for (const std::vector<Index>& row : rows) {
      MC_CHECK(row.size() >= kHead);
      digests.push_back({static_cast<std::uint64_t>(row[0]),
                         static_cast<std::uint64_t>(row[1])});
      t.localCounts_.push_back(static_cast<Index>(row.size() - kHead));
      total += t.localCounts_.back();
    }
    requireCover(total);
    // With the counts summing to globalSize, in-range entries owned once
    // fill every slot.
    t.entries_.assign(static_cast<size_t>(globalSize), ElementLoc{});
    for (int r = 0; r < np; ++r) {
      const std::vector<Index>& row = rows[static_cast<size_t>(r)];
      for (size_t i = kHead; i < row.size(); ++i) {
        const Index g = row[i];
        MC_REQUIRE(g >= 0 && g < globalSize, "global index %lld out of range",
                   static_cast<long long>(g));
        ElementLoc& loc = t.entries_[static_cast<size_t>(g)];
        MC_REQUIRE(loc.proc == -1, "global index %lld owned twice",
                   static_cast<long long>(g));
        loc = ElementLoc{r, static_cast<Index>(i - kHead)};
      }
    }
    t.computeFingerprint(digests);
    return t;
  }

  t.localCounts_ = comm.allgatherValue(static_cast<Index>(myGlobals.size()));
  Index total = 0;
  for (const Index c : t.localCounts_) total += c;
  requireCover(total);
  // Triples (global, owner, offset) contributed by this processor, routed
  // to each entry's home processor.
  struct Entry {
    Index global;
    Index offset;
    int proc;
  };
  std::vector<std::vector<Entry>> sendTo(static_cast<size_t>(np));
  for (size_t i = 0; i < myGlobals.size(); ++i) {
    const Index g = myGlobals[i];
    MC_REQUIRE(g >= 0 && g < globalSize, "global index %lld out of range",
               static_cast<long long>(g));
    sendTo[static_cast<size_t>(t.homeOf(g))].push_back(
        Entry{g, static_cast<Index>(i), comm.rank()});
  }
  auto recvFrom = comm.alltoall(sendTo);
  const Index sliceLo = t.homeBlock_ * comm.rank();
  const Index sliceSize =
      std::max<Index>(0, std::min(t.homeBlock_, globalSize - sliceLo));
  t.entries_.assign(static_cast<size_t>(sliceSize), ElementLoc{});
  Index filled = 0;
  for (const auto& row : recvFrom) {
    for (const Entry& e : row) {
      const Index slot = e.global - sliceLo;
      MC_CHECK(slot >= 0 && slot < sliceSize);
      ElementLoc& loc = t.entries_[static_cast<size_t>(slot)];
      MC_REQUIRE(loc.proc == -1, "global index %lld owned twice",
                 static_cast<long long>(e.global));
      loc = ElementLoc{e.proc, e.offset};
      ++filled;
    }
  }
  // Coverage check is global: every slice must be fully populated.
  const double covered = comm.allreduceSum(static_cast<double>(filled));
  MC_REQUIRE(static_cast<Index>(covered) == globalSize,
             "partition covers %lld of %lld elements",
             static_cast<long long>(covered),
             static_cast<long long>(globalSize));
  for (Index s = 0; s < sliceSize; ++s) {
    MC_REQUIRE(t.entries_[static_cast<size_t>(s)].proc != -1,
               "global index %lld unowned",
               static_cast<long long>(sliceLo + s));
  }
  t.computeFingerprint({});
  return t;
}

TranslationTable TranslationTable::replicatedFromEntries(
    std::vector<ElementLoc> entries, int nprocs,
    double modeledQueryCostSeconds) {
  MC_REQUIRE(!entries.empty() && nprocs > 0);
  MC_REQUIRE(modeledQueryCostSeconds >= 0.0);
  TranslationTable t;
  t.storage_ = Storage::kReplicated;
  t.modeledQueryCost_ = modeledQueryCostSeconds;
  t.uid_ = nextTableUid();
  t.globalSize_ = static_cast<Index>(entries.size());
  t.homeBlock_ = (t.globalSize_ + nprocs - 1) / nprocs;
  t.localCounts_.assign(static_cast<size_t>(nprocs), 0);
  for (const ElementLoc& loc : entries) {
    MC_REQUIRE(loc.proc >= 0 && loc.proc < nprocs,
               "entry owner %d out of range", loc.proc);
    ++t.localCounts_[static_cast<size_t>(loc.proc)];
  }
  t.entries_ = std::move(entries);
  t.computeFingerprint(rowDigestsFromEntries(t.entries_, t.localCounts_));
  return t;
}

std::vector<ElementLoc> TranslationTable::dereference(
    transport::Comm& comm, std::span<const Index> globals) const {
  std::vector<ElementLoc> out(globals.size());
  if (storage_ == Storage::kReplicated) {
    for (size_t i = 0; i < globals.size(); ++i) {
      out[i] = dereferenceLocal(globals[i]);
    }
    // Replicated tables answer locally; the lookup machinery still pays the
    // modeled per-element cost.
    comm.advance(modeledQueryCost_ * static_cast<double>(globals.size()));
    return out;
  }
  const int np = comm.size();
  // Group queries by home processor, remembering their positions.
  std::vector<std::vector<Index>> queryTo(static_cast<size_t>(np));
  std::vector<std::vector<size_t>> posOf(static_cast<size_t>(np));
  for (size_t i = 0; i < globals.size(); ++i) {
    const Index g = globals[i];
    MC_REQUIRE(g >= 0 && g < globalSize_, "global index %lld out of range",
               static_cast<long long>(g));
    const auto h = static_cast<size_t>(homeOf(g));
    queryTo[h].push_back(g);
    posOf[h].push_back(i);
  }
  const auto replies = askHomes(comm, queryTo);
  for (int h = 0; h < np; ++h) {
    const auto& reply = replies[static_cast<size_t>(h)];
    const auto& pos = posOf[static_cast<size_t>(h)];
    MC_CHECK(reply.size() == pos.size());
    for (size_t k = 0; k < reply.size(); ++k) out[pos[k]] = reply[k];
  }
  return out;
}

std::vector<ElementLoc> TranslationTable::dereferenceCached(
    transport::Comm& comm, std::span<const Index> globals) const {
  // Sort-and-unique the batch (deref_cache.h), remembering each query's
  // distinct slot so results scatter back in query order.  One sort
  // replaces the per-element hash probes of the unbatched path.  Host-side
  // batching work is not charged to the virtual clock — same convention as
  // dereference(), whose per-element grouping also runs uncharged: the
  // modeled per-query cost (advance in dereferenceSorted) is the model of
  // lookup work, and charging measured CPU on top of it would double-count.
  // Call sites that want the host cost on the clock wrap the call in
  // computeValue (as buildIrregCopySchedule does).
  const SortedBatch batch = sortUnique(globals, globalSize_);
  const std::vector<ElementLoc> locs = dereferenceSorted(comm, batch.uniq);
  std::vector<ElementLoc> out(globals.size());
  for (std::size_t i = 0; i < globals.size(); ++i) {
    out[i] = locs[batch.uniqOf[i]];
  }
  return out;
}

std::vector<ElementLoc> TranslationTable::dereferenceSorted(
    transport::Comm& comm, std::span<const Index> uniq) const {
  ensureLocalizeMetrics();
  MC_REQUIRE(uniq.empty() || (uniq.front() >= 0 && uniq.back() < globalSize_),
             "dereference batch leaves [0, %lld)",
             static_cast<long long>(globalSize_));
  DerefCache& cache = derefCache();
  // The cache is probed in one sorted pass, and only the distinct misses
  // travel to their home processors.
  std::vector<ElementLoc> locs(uniq.size());
  std::vector<std::uint8_t> hit(uniq.size());
  std::vector<Index> missG;
  std::vector<std::uint32_t> missAt;
  cache.lookupSorted(uid_, uniq, locs.data(), hit.data());
  for (std::size_t u = 0; u < uniq.size(); ++u) {
    if (hit[u]) continue;
    missG.push_back(uniq[u]);
    missAt.push_back(static_cast<std::uint32_t>(u));
  }

  std::vector<ElementLoc> missLocs(missG.size());
  if (storage_ == Storage::kReplicated) {
    for (std::size_t k = 0; k < missG.size(); ++k) {
      missLocs[k] = entries_[static_cast<std::size_t>(missG[k])];
    }
    // Only genuine misses pay the modeled lookup charge — the cache's win.
    comm.advance(modeledQueryCost_ * static_cast<double>(missG.size()));
  } else {
    // missG ascends, so each home processor's queries form one contiguous
    // segment: a single pass splits the batch page by page.  The exchange
    // is unconditional — ranks whose queries all hit still participate.
    const int np = comm.size();
    std::vector<std::vector<Index>> queryTo(static_cast<std::size_t>(np));
    std::size_t k = 0;
    while (k < missG.size()) {
      const int home = homeOf(missG[k]);
      std::size_t end = k;
      while (end < missG.size() && homeOf(missG[end]) == home) ++end;
      auto& lane = queryTo[static_cast<std::size_t>(home)];
      lane.assign(missG.begin() + static_cast<std::ptrdiff_t>(k),
                  missG.begin() + static_cast<std::ptrdiff_t>(end));
      k = end;
    }
    // Replies land in home order == the order the segments were carved.
    std::size_t filled = 0;
    for (const auto& reply : askHomes(comm, queryTo)) {
      for (const ElementLoc& loc : reply) missLocs[filled++] = loc;
    }
    MC_CHECK(filled == missG.size());
  }

  for (std::size_t m = 0; m < missG.size(); ++m) {
    locs[missAt[m]] = missLocs[m];
  }
  cache.insertSorted(uid_, missG, missLocs);
  return locs;
}

std::vector<std::vector<ElementLoc>> TranslationTable::askHomes(
    transport::Comm& comm,
    const std::vector<std::vector<Index>>& queryTo) const {
  const auto queries = comm.alltoall(queryTo);
  const Index sliceLo = homeBlock_ * myRank_;
  std::size_t answered = 0;
  for (const auto& qs : queries) answered += qs.size();
  comm.advance(modeledQueryCost_ * static_cast<double>(answered));
  std::vector<std::vector<ElementLoc>> answers(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    answers[q].reserve(queries[q].size());
    for (Index g : queries[q]) {
      const Index slot = g - sliceLo;
      MC_CHECK(slot >= 0 && slot < static_cast<Index>(entries_.size()));
      answers[q].push_back(entries_[static_cast<std::size_t>(slot)]);
    }
  }
  return comm.alltoall(answers);
}

ElementLoc TranslationTable::dereferenceLocal(Index g) const {
  MC_REQUIRE(storage_ == Storage::kReplicated,
             "local dereference requires a replicated translation table");
  MC_REQUIRE(g >= 0 && g < globalSize_);
  return entries_[static_cast<size_t>(g)];
}

std::vector<ElementLoc> TranslationTable::gatherFull(
    transport::Comm& comm) const {
  if (storage_ == Storage::kReplicated) return entries_;
  auto rows = comm.allgather<ElementLoc>(std::span<const ElementLoc>(entries_));
  std::vector<ElementLoc> full;
  full.reserve(static_cast<size_t>(globalSize_));
  for (const auto& row : rows) full.insert(full.end(), row.begin(), row.end());
  MC_CHECK(static_cast<Index>(full.size()) == globalSize_);
  return full;
}

void TranslationTable::computeFingerprint(
    std::span<const HashStream::Digest> rowDigests) {
  HashStream h;
  h.pod(static_cast<int>(storage_));
  h.pod(globalSize_);
  h.pod(homeBlock_);
  h.podSpan(std::span<const Index>(localCounts_));
  h.pod(myRank_);
  h.pod(modeledQueryCost_);
  if (storage_ == Storage::kReplicated) {
    MC_CHECK(rowDigests.size() == localCounts_.size());
    for (const HashStream::Digest& d : rowDigests) h.pod(d);
  } else {
    // ElementLoc has tail padding; hash the fields, not the raw bytes.
    h.pod(entries_.size());
    for (const ElementLoc& e : entries_) {
      h.pod(e.proc);
      h.pod(e.offset);
    }
  }
  fingerprint_ = h.digest()[0];
}

std::vector<std::byte> TranslationTable::serialize() const {
  // ElementLoc has tail padding; serialize the fields as separate lanes so
  // the byte stream is canonical (no indeterminate padding on disk).
  std::vector<std::byte> payload;
  blob::putU64(payload, static_cast<std::uint64_t>(storage_));
  blob::putU64(payload, static_cast<std::uint64_t>(globalSize_));
  blob::putU64(payload, static_cast<std::uint64_t>(homeBlock_));
  blob::putU64(payload, static_cast<std::uint64_t>(myRank_));
  std::uint64_t cost = 0;
  static_assert(sizeof(cost) == sizeof(modeledQueryCost_));
  std::memcpy(&cost, &modeledQueryCost_, sizeof(cost));
  blob::putU64(payload, cost);
  blob::putPods(payload, localCounts_);
  std::vector<Index> procs, offsets;
  procs.reserve(entries_.size());
  offsets.reserve(entries_.size());
  for (const ElementLoc& e : entries_) {
    procs.push_back(static_cast<Index>(e.proc));
    offsets.push_back(e.offset);
  }
  blob::putPods(payload, procs);
  blob::putPods(payload, offsets);
  return blob::frame(blob::kTranslationTable, 1, payload);
}

TranslationTable TranslationTable::deserialize(
    std::span<const std::byte> data) {
  const blob::FrameView v = blob::unframe(data, blob::kTranslationTable);
  MC_REQUIRE(v.kindVersion == 1, "unknown translation-table blob version %u",
             v.kindVersion);
  blob::ByteReader r(v.payload);
  TranslationTable t;
  const std::uint64_t storage = r.u64();
  MC_REQUIRE(storage <= 1, "corrupt translation-table blob: bad storage tag");
  t.storage_ = static_cast<Storage>(storage);
  t.globalSize_ = static_cast<Index>(r.u64());
  t.homeBlock_ = static_cast<Index>(r.u64());
  t.myRank_ = static_cast<int>(r.u64());
  const std::uint64_t cost = r.u64();
  std::memcpy(&t.modeledQueryCost_, &cost, sizeof(cost));
  t.localCounts_ = r.pods<Index>();
  const std::vector<Index> procs = r.pods<Index>();
  const std::vector<Index> offsets = r.pods<Index>();
  r.requireEnd("translation-table blob");

  MC_REQUIRE(t.globalSize_ > 0 && !t.localCounts_.empty(),
             "corrupt translation-table blob: empty table");
  // Bounded so the home-block and slice arithmetic below cannot overflow.
  MC_REQUIRE(static_cast<std::uint64_t>(t.globalSize_) <=
                 blob::kMaxDecodedElements,
             "corrupt translation-table blob: global size %lld",
             static_cast<long long>(t.globalSize_));
  const int np = static_cast<int>(t.localCounts_.size());
  MC_REQUIRE(t.homeBlock_ == (t.globalSize_ + np - 1) / np,
             "corrupt translation-table blob: home block does not match the "
             "global size");
  MC_REQUIRE(t.myRank_ >= 0 && t.myRank_ < np,
             "corrupt translation-table blob: rank %d of %d", t.myRank_, np);
  MC_REQUIRE(t.modeledQueryCost_ >= 0.0,
             "corrupt translation-table blob: negative query cost");
  Index countTotal = 0;
  for (const Index c : t.localCounts_) {
    MC_REQUIRE(c >= 0 && c <= t.globalSize_ - countTotal,
               "corrupt translation-table blob: counts exceed the global "
               "size");
    countTotal += c;
  }
  MC_REQUIRE(countTotal == t.globalSize_,
             "corrupt translation-table blob: counts cover %lld of %lld "
             "elements",
             static_cast<long long>(countTotal),
             static_cast<long long>(t.globalSize_));
  MC_REQUIRE(procs.size() == offsets.size(),
             "corrupt translation-table blob: mismatched entry lanes");
  const Index sliceLo = t.homeBlock_ * t.myRank_;
  const Index expect =
      t.storage_ == Storage::kReplicated
          ? t.globalSize_
          : std::max<Index>(
                0, std::min(t.globalSize_, sliceLo + t.homeBlock_) - sliceLo);
  MC_REQUIRE(static_cast<Index>(procs.size()) == expect,
             "corrupt translation-table blob: %zu entries, expected %lld",
             procs.size(), static_cast<long long>(expect));
  t.entries_.reserve(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    MC_REQUIRE(procs[i] >= 0 && procs[i] < np,
               "corrupt translation-table blob: entry owner %lld out of "
               "range",
               static_cast<long long>(procs[i]));
    MC_REQUIRE(offsets[i] >= 0 &&
                   offsets[i] < t.localCounts_[static_cast<size_t>(procs[i])],
               "corrupt translation-table blob: entry offset out of range");
    t.entries_.push_back(
        ElementLoc{static_cast<int>(procs[i]), offsets[i]});
  }
  // Uid remint rule (see header): never reuse the saved identity.
  t.uid_ = nextTableUid();
  if (t.storage_ == Storage::kReplicated) {
    t.computeFingerprint(rowDigestsFromEntries(t.entries_, t.localCounts_));
  } else {
    t.computeFingerprint({});
  }
  return t;
}

}  // namespace mc::chaos
