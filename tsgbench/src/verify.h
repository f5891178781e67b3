// The correctness check: after the timed window, every response is
// byte-compared (as its canonical compact JSON) against the payload the
// in-process executor renders for the same request on the same design
// state.  For batch kinds served from a merged lane batch or the payload
// cache, only the documented aggregate.engine accounting block is
// stripped before the comparison.
#ifndef TSGBENCH_VERIFY_H
#define TSGBENCH_VERIFY_H

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen.h"
#include "workloads.h"

namespace tsgbench {

/// What one verified response reported about its own work.
struct response_facts {
    bool ok = false;
    bool matched = false;
    bool coalesced = false;
    std::uint64_t scenarios = 0; ///< aggregate.scenarios / statistics.samples / ...
    std::uint64_t optimize_evaluations = 0;
    std::uint64_t topk_solves = 0;
    std::uint64_t stats_samples = 0;
    std::uint64_t warm_states_kept = 0;
};

struct verification {
    /// Parallel to loop_result::clients.
    std::vector<std::vector<response_facts>> facts;
    std::uint64_t failed = 0;     ///< not ok, malformed, wrong id or unanswered
    std::uint64_t mismatches = 0; ///< ok but the payload differs
    std::vector<std::string> notes; ///< the first few failures, for stderr
};

/// Verifies every exchange of a TCP run on `threads` threads.
[[nodiscard]] verification verify_run(const workload& w, const loop_result& run,
                                      unsigned threads);

} // namespace tsgbench

#endif // TSGBENCH_VERIFY_H
