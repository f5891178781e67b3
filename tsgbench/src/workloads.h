// The benchmark's three closed-loop workloads.  A workload is a set of
// generated designs plus, per client, a request stream that is a pure
// function of (seed, client, request index): two runs with one seed send
// the same bytes in the same per-client order, whatever the timing.
//
//   interactive  six clients, one private n=256 design each, window 1:
//                edit (set_delay) -> analyze -> montecarlo 8 samples with
//                slack + witness -> edit restoring the arc -> analyze.
//   batch        three pipelined clients (window 24) on one shared n=256
//                design: non-adaptive montecarlo, 4..16 samples, no
//                slack/witness, unique seeds; every 24th request is a
//                corner sweep on the client's own n=32 design, and every
//                4th sweep repeats the previous one (a payload-cache hit
//                by construction).
//   jobs         four clients, window 1, one n=64 design: report_topk k=4,
//                criticality 256 samples, adaptive montecarlo (eps 0.05),
//                deterministic optimize budget 1 step 1, in rotation.
#ifndef TSGBENCH_WORKLOADS_H
#define TSGBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/api.h"
#include "sg/signal_graph.h"

namespace tsgbench {

/// Pinned thread budget: server dispatch workers, and every request's
/// max_threads.  With the single load-generator thread this is 3 compute
/// threads (of the 4 the reference VM has).
inline constexpr unsigned serve_workers = 2;
inline constexpr unsigned request_max_threads = 1;

struct request_spec {
    unsigned client = 0;
    tsg::analysis_request request;
    std::string line; ///< the NDJSON request line, without the newline
    /// A deliberate repeat of the client's previous request body (only
    /// the id differs) — served from the payload cache by construction.
    bool repeat = false;
};

struct workload {
    std::string name;
    unsigned clients = 1;
    unsigned window = 1; ///< requests each client keeps in flight
    std::uint64_t seed = 1;
    /// Registered designs, in registration order.
    std::vector<std::pair<std::string, tsg::signal_graph>> designs;

    [[nodiscard]] request_spec next(unsigned client, std::uint64_t index) const;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds the named workload; throws std::invalid_argument on an unknown
/// name.  Designs are fixed (their own seeds); `seed` drives the streams.
[[nodiscard]] workload make_workload(const std::string& name, std::uint64_t seed);

/// True for the kinds the service coalesces and caches (sweep,
/// non-adaptive montecarlo): their payload's aggregate.engine block may
/// describe a merged batch.
[[nodiscard]] bool batch_kind(const tsg::analysis_request& request);

} // namespace tsgbench

#endif // TSGBENCH_WORKLOADS_H
