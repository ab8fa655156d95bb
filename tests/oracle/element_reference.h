// The element-wise ownership reference.
//
// LibraryAdapter answers ownership in runs (enumerateRangeRuns and its
// collective form, enumerateChunkRuns).  forEachElement derives the same
// ownership one element at a time from each library's own ownership
// functions, sharing no code with the adapters:
//
//   * Parti: BlockDecomp::ownerOf, then PartiAddr::offsetOf;
//   * HPF:   HpfDist::ownerOf, then HpfDist::localOffset;
//   * Chaos: TranslationTable::dereferenceLocal (a replicated table);
//   * pC++:  TulipDesc::ownerOf and TulipDesc::localOffsetOf.
//
// It is the expectation of the adapter contract tests and of test_run_join's
// run-expansion contracts, the ownership stream of the element-wise
// reference builder (elementwise_builder.h), and test_schedule_delta's
// brute-force diff.
#pragma once

#include <functional>

#include "core/adapter.h"

namespace mc::core::elementwise {

using ElementFn = std::function<void(layout::Index lin, int owner,
                                     layout::Index offset)>;

/// Calls fn(lin, owner, offset) for every position of [lo, hi) of `set`'s
/// linearization, in order.  No communication; a Chaos descriptor must hold
/// a replicated translation table.
void forEachElement(const DistObject& obj, const SetOfRegions& set,
                    layout::Index lo, layout::Index hi, const ElementFn& fn);

}  // namespace mc::core::elementwise
