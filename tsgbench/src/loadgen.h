// The closed-loop load generator: one thread drives every client of a
// workload, each keeping `window` requests in flight and sending its next
// request only when a response comes back.  Two transports share the
// loop: NDJSON over loopback TCP to a tsg_serve process (the end-to-end
// measurement), and in-process analysis_service::submit_async (the
// baseline that separates transport cost from service cost).
#ifndef TSGBENCH_LOADGEN_H
#define TSGBENCH_LOADGEN_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/service.h"
#include "workloads.h"

namespace tsgbench {

/// One request's life on the wire.
struct exchange {
    request_spec spec;
    double sent_s = 0.0; ///< just before the request's first byte is written
    double done_s = 0.0; ///< after the response line's last byte arrived
    std::string response; ///< the response line (TCP) — empty in-process
    bool ok = false;      ///< the response's "ok" flag
};

/// Where a finished exchange is reported.
struct completion {
    unsigned client = 0;
    std::size_t slot = 0; ///< the exchange's position in its client's stream
    double done_s = 0.0;
    std::string response;
    bool ok = false;
};

class transport {
public:
    virtual ~transport() = default;
    transport() = default;
    transport(const transport&) = delete;
    transport& operator=(const transport&) = delete;

    /// Starts sending `spec` on its client's channel; returns the send
    /// timestamp.  `slot` comes back in the spec's completion.
    virtual double send(const request_spec& spec, std::size_t slot) = 0;
    /// Collects completions until at least one arrives or `until_s` passes.
    virtual void wait(std::vector<completion>& out, double until_s) = 0;
};

/// Non-blocking loopback TCP, one connection per client, poll(2)-driven.
[[nodiscard]] std::unique_ptr<transport> tcp_transport(int port, unsigned clients);

/// In-process submission to `service` (which must have the workload's
/// designs registered).
[[nodiscard]] std::unique_ptr<transport> inprocess_transport(tsg::analysis_service& service);

struct loop_result {
    /// Every exchange, per client in stream order.
    std::vector<std::vector<exchange>> clients;
    /// Observed edges of the timed window: edges.front() opens it,
    /// edges.back() closes it, and consecutive edges bound the
    /// sub-windows.  Empty for a request-count run.
    std::vector<double> edges;
    std::uint64_t attempted = 0;
    std::uint64_t unanswered = 0; ///< in flight when the drain timed out
};

struct loop_plan {
    double warmup_s = 1.0;
    double window_s = 10.0;
    std::size_t sub_windows = 1; ///< equal parts of the timed window
    double drain_s = 30.0;       ///< wait for in-flight responses after sending stops
    /// Non-zero: each client sends exactly this many requests, no timing.
    std::uint64_t max_requests = 0;
};

/// Runs the closed loop: `warmup_s` seconds, then the timed window (split
/// into `sub_windows` equal parts), then stops sending and waits for every
/// in-flight response.  `on_edge(k)` runs as edge k is crossed (the
/// server-side CPU samples).
[[nodiscard]] loop_result run_closed_loop(const workload& w, transport& t,
                                          const loop_plan& plan,
                                          const std::function<void(std::size_t)>& on_edge = {});

} // namespace tsgbench

#endif // TSGBENCH_LOADGEN_H
