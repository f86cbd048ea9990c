// Minimal executor contract for the archive renderer's row bands (sim).
// The renderer may not depend on the grid layer's ThreadPool, so it accepts
// a type-erased parallel-for: callers that own a pool (the compute service,
// the synthesis bench) bind one to it; everyone else leaves it null and the
// work runs serially. Implementations must invoke fn(i) exactly once for
// every i in [0, n) and return only after all invocations completed;
// invocation order is unconstrained because every caller writes disjoint
// slots and merges deterministically afterwards.
#pragma once

#include <cstddef>
#include <functional>

namespace nvo {

using ParallelFor =
    std::function<void(std::size_t n, const std::function<void(std::size_t)>& fn)>;

}  // namespace nvo
