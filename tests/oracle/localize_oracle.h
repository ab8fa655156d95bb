// The pre-batching Chaos localize inspector.
//
// chaos::localize sort-and-uniques the references and resolves them
// through the per-rank dereference cache in one sorted pass.  The oracle
// here uniques with a hash map in first-appearance order and dereferences
// every distinct reference through the uncached element-wise table path on
// every call.  Both must give the same Localized output (ghost layout,
// local indices and schedules); only the cost differs.  Test-only oracle
// for test_localize_batch.
#pragma once

#include <span>

#include "chaos/localize.h"

namespace mc::chaos::oracle {

/// Hash-based, uncached localize; same contract and result as
/// chaos::localize.  Collective.
Localized localizeReference(transport::Comm& comm,
                            const TranslationTable& table,
                            std::span<const layout::Index> refs);

}  // namespace mc::chaos::oracle
