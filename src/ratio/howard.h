// Howard's policy iteration for the maximum cycle ratio.
//
// Each node selects one out-arc (a "policy"); the policy graph is
// functional, so every node leads into exactly one policy cycle.  Value
// determination computes, per node, the ratio of its policy cycle and a
// potential; policy improvement first switches to arcs reaching
// higher-ratio cycles, then (at equal ratio) to arcs with better potential.
// On strongly connected inputs the fixed point is the maximum cycle ratio,
// reached after remarkably few iterations in practice — the algorithm
// family the paper's related work [8] competes with.
//
// Arithmetic domains.  When the problem carries the compiled fixed-point
// delay domain (ratio_problem::scale != 0), the whole iteration runs on
// integers: cycle ratios are reduced int64 fractions over the scaled
// delays, compared by int128 cross multiplication, and potentials are
// int128 values pre-multiplied by the ratio denominator, so a policy sweep
// is integer adds and compares — no rational normalization.  Scaling by
// positive constants preserves every comparison, so the iteration takes
// the *same* decisions as the rational computation and returns the same
// ratio and witness cycle bit for bit.  Hand-built problems (scale == 0)
// and problems whose scaled-delay mass exceeds the overflow budget run the
// rational fallback transparently.
//
// Warm starts.  A howard_state carries the converged policy out of one
// solve and into the next.  When only the delays changed (the scenario
// engine's rebind batches), the previous policy is usually optimal or
// near-optimal and the iteration converges in one or two sweeps; the
// resulting ratio is bit-identical to a cold start (policy iteration is
// start-independent at the fixed point — asserted in debug builds by the
// scenario engine).
//
// Requires a strongly connected, live problem; solve arbitrary graphs
// through max_cycle_ratio_condensed (ratio/condensation.h), which fans
// Howard over the strongly connected components.
//
// Masked solves.  masked_howard answers many questions of the form "the
// maximum cycle ratio of this base problem without these arcs" — the
// subproblems of the top-K enumeration (core/optimize.h).  Each solve runs
// on the base problem's frozen CSR: no graph copy and no SCC carving.  It
// peels dead ends first (a node without a surviving out-arc lies on no
// cycle, nor do the arcs into it), then runs the same policy iteration over
// the surviving nodes and arcs — Howard is valid on any graph where every
// node has an out-arc, strongly connected or not.  The unmasked entry point
// keeps its plain index loops; the masked sweeps walk lists of surviving
// ids instead of testing each arc.
#ifndef TSG_RATIO_HOWARD_H
#define TSG_RATIO_HOWARD_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ratio/ratio_problem.h"

namespace tsg {

struct howard_options {
    /// Policy-improvement round budget; 0 means the automatic cap
    /// (generous: policy iteration converges in far fewer rounds).
    /// Exceeding an explicit cap throws tsg::error; exceeding the
    /// automatic cap is a library bug and throws tsg::internal_error.
    std::size_t max_iterations = 0;
};

/// Warm-start carrier: the converged policy (one out-arc per node) of a
/// previous solve on the *same graph structure*.  A state that does not
/// match the problem (size or arc endpoints) is ignored and overwritten.
struct howard_state {
    std::vector<arc_id> policy;
};

/// Exact maximum cycle ratio with a witness cycle.  Requires a strongly
/// connected, live problem (every cycle carries a token); use
/// max_cycle_ratio_condensed for graphs that are not strongly connected.
/// With a warm-start `state` the converged policy is written back into it
/// on success.
[[nodiscard]] ratio_result max_cycle_ratio_howard(const ratio_problem& p,
                                                  const howard_options& options = {},
                                                  howard_state* state = nullptr);

/// Repeated solves of one base problem under arc exclusion masks, in either
/// arithmetic domain, reusing one set of buffers.  The base problem must
/// outlive the solver and stay unchanged; it must be live but need not be
/// strongly connected.  Not thread-safe: one solver per thread.
class masked_howard {
public:
    explicit masked_howard(const ratio_problem& base);
    ~masked_howard();
    masked_howard(const masked_howard&) = delete;
    masked_howard& operator=(const masked_howard&) = delete;

    /// Maximum cycle ratio of the base problem without the arcs whose
    /// `excluded` byte is nonzero (one byte per arc), with a witness cycle
    /// of base-problem arcs; nullopt when no cycle survives the mask.  When
    /// `tight` is given it receives, ascending, the surviving arcs (u, x)
    /// with zero reduced cost between two nodes whose ratio is the maximum:
    /// every cycle of maximum ratio consists of tight arcs only, and every
    /// cycle of tight arcs has maximum ratio.
    [[nodiscard]] std::optional<ratio_result> solve(std::span<const std::uint8_t> excluded,
                                                    std::vector<arc_id>* tight = nullptr);

private:
    struct workspace;
    const ratio_problem& base_;
    std::unique_ptr<workspace> ws_;
};

/// Convenience: the cycle time of a Signal Graph via Howard's iteration.
[[nodiscard]] rational cycle_time_howard(const signal_graph& sg);

} // namespace tsg

#endif // TSG_RATIO_HOWARD_H
