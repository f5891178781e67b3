// The traced in-process replay behind the per-layer metrics.  It replays
// a workload's request stream (same seed, same per-client order) on one
// thread, calling each layer's public entry point directly — the codec
// (parse_analysis_request, the payload renderers, analysis_response_json),
// the scenario engine, execute_analysis_payload for analyze, the
// incremental engine, the stats layer and the optimizer — and records a
// span around every call, so the replay does the work the service does.
// Nothing inside the library is instrumented.
#ifndef TSGBENCH_REPLAY_H
#define TSGBENCH_REPLAY_H

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace tsgbench {

struct span {
    std::string name;
    std::uint64_t request = 0; ///< replay-wide request number
    int parent = -1;           ///< index of the enclosing span, -1 for a root
    double start_us = 0.0;
    double end_us = 0.0;
};

struct replay_result {
    std::vector<span> spans;           ///< empty for an untraced replay
    std::uint64_t requests = 0;
    double wall_s = 0.0;     ///< time spent replaying
    double untraced_s = 0.0; ///< the untraced twin's time (replay_lockstep)
    // Per-request counts, summed over the replay.
    std::uint64_t batch_requests = 0;
    std::uint64_t batch_scenarios = 0;
    std::uint64_t lane_scenarios = 0;
    std::uint64_t scalar_scenarios = 0;
    std::uint64_t sparse_scenarios = 0;
    std::uint64_t edits = 0;
    std::uint64_t warm_states_kept = 0;
    std::uint64_t stats_runs = 0;
    std::uint64_t stats_samples = 0;
    std::uint64_t stats_rounds = 0;
    std::uint64_t optimize_runs = 0;
    std::uint64_t optimize_evaluations = 0;
    std::uint64_t topk_runs = 0;
    std::uint64_t topk_solves = 0;
};

/// Replays the stream untraced, round-robin over clients, in whole rounds
/// until `budget_s` passes; returns the number of rounds (at least 1).
[[nodiscard]] std::uint64_t replay_rounds(const workload& w, double budget_s);

/// Replays `rounds` rounds twice in lockstep, traced and untraced, each on
/// its own design states: every round runs on both, in alternating order,
/// so drift in machine speed hits both alike.  Returns the traced replay,
/// with `untraced_s` set.
[[nodiscard]] replay_result replay_lockstep(const workload& w, std::uint64_t rounds);

/// Durations (microseconds) of the spans with this name.
[[nodiscard]] std::vector<double> span_durations_us(const std::vector<span>& spans,
                                                    const std::string& name);

/// Writes the spans as a JSON document, each with its self time: its
/// duration minus the time its child spans cover.
void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<span>& spans);

} // namespace tsgbench

#endif // TSGBENCH_REPLAY_H
