#include "workloads.h"

#include <stdexcept>

#include "common.h"
#include "gen/random_sg.h"

namespace tsgbench {

using namespace tsg;

namespace {

signal_graph design(std::uint32_t events, std::uint64_t seed)
{
    random_sg_options o;
    o.events = events;
    o.extra_arcs = events;
    o.border_limit = std::max<std::uint32_t>(1, events / 16);
    o.seed = seed;
    return random_marked_graph(o);
}

analysis_request base_request(request_kind kind, const std::string& design_id)
{
    analysis_request r;
    r.kind = kind;
    r.design.id = design_id;
    r.options.max_threads = request_max_threads;
    return r;
}

json_value set_delay_script(std::size_t arc, const rational& delay)
{
    json_value edit = json_value::object();
    edit.set("op", json_value::string("set_delay"));
    edit.set("arc", json_value::number(std::uint64_t{arc}));
    edit.set("delay", json_value::string(delay.str()));
    json_value script = json_value::object();
    script.set("edits", json_value::array()).push(std::move(edit));
    return script;
}

analysis_request interactive_request(const workload& w, unsigned client, std::uint64_t index)
{
    const std::string& id = w.designs[client].first;
    const signal_graph& sg = w.designs[client].second;
    const std::uint64_t loop = index / 5;
    // Every loop restores the arc it edits, so each loop starts from the
    // registered delays and its edit is a pure function of the loop key.
    const std::uint64_t key = derive(w.seed, client, loop);
    const std::size_t arc = static_cast<std::size_t>(key % sg.arc_count());
    const rational original = sg.arc(static_cast<arc_id>(arc)).delay;
    const rational edited = original + rational(static_cast<std::int64_t>(1 + (key >> 32) % 5));
    switch (index % 5) {
    case 0: {
        analysis_request r = base_request(request_kind::edit, id);
        r.edits = set_delay_script(arc, edited);
        return r;
    }
    case 2: {
        analysis_request r = base_request(request_kind::montecarlo, id);
        r.options.samples = 8;
        r.options.seed = derive(w.seed, client, index);
        return r;
    }
    case 3: {
        analysis_request r = base_request(request_kind::edit, id);
        r.edits = set_delay_script(arc, original);
        return r;
    }
    default:
        return base_request(request_kind::analyze, id);
    }
}

/// Sweep factor of a client's j-th sweep: unique per j within a run.
rational sweep_factor(std::uint64_t seed, std::uint64_t j)
{
    return rational(static_cast<std::int64_t>(50 + seed % 50 + j), 1000);
}

/// Batch clients keep this many requests in flight — enough to keep the
/// coalescer's merged batches full, which keeps the run-to-run spread low.
/// One request in every `batch_window` is a sweep, so at most one sweep
/// per client is in flight and a repeated sweep is only sent after the
/// original's response (and cache insertion) is back.
constexpr unsigned batch_window = 24;

analysis_request batch_request(const workload& w, unsigned client, std::uint64_t index,
                               bool& repeat)
{
    if (index % batch_window == batch_window - 1) {
        const std::uint64_t j = index / batch_window;
        repeat = j % 4 == 3;
        analysis_request r = base_request(request_kind::sweep, w.designs[1 + client].first);
        r.options.with_slack = false;
        r.options.factor = sweep_factor(w.seed, repeat ? j - 1 : j);
        return r;
    }
    const std::uint64_t key = derive(w.seed, client, index);
    analysis_request r = base_request(request_kind::montecarlo, w.designs[0].first);
    r.options.samples = 4 + key % 13;
    r.options.seed = key;
    r.options.with_slack = false;
    r.options.with_witness = false;
    return r;
}

analysis_request jobs_request(const workload& w, unsigned client, std::uint64_t index)
{
    const std::string& id = w.designs[0].first;
    switch ((index + client) % 4) {
    case 0: {
        analysis_request r = base_request(request_kind::report_topk, id);
        r.options.k = 4;
        return r;
    }
    case 1: {
        analysis_request r = base_request(request_kind::criticality, id);
        r.options.samples = 256;
        r.options.seed = derive(w.seed, client, index);
        return r;
    }
    case 2: {
        analysis_request r = base_request(request_kind::montecarlo, id);
        r.options.adaptive = true;
        r.options.epsilon = 0.05;
        // Spread 1/50 lets eps 0.05 converge (~600 samples on this design)
        // well below the cap, so the run stops adaptively.
        r.options.spread = rational(1, 50);
        r.options.round_samples = 64;
        r.options.samples = 4096;
        r.options.with_slack = false;
        r.options.seed = derive(w.seed, client, index);
        return r;
    }
    default: {
        analysis_request r = base_request(request_kind::optimize, id);
        r.options.budget = rational(1);
        r.options.step = rational(1);
        return r;
    }
    }
}

} // namespace

const std::vector<std::string>& workload_names()
{
    static const std::vector<std::string> names = {"interactive", "batch", "jobs"};
    return names;
}

bool batch_kind(const analysis_request& request)
{
    return request.kind == request_kind::sweep ||
           (request.kind == request_kind::montecarlo && !request.options.adaptive);
}

workload make_workload(const std::string& name, std::uint64_t seed)
{
    workload w;
    w.name = name;
    w.seed = seed;
    // Every workload keeps more requests outstanding than the daemon has
    // workers, so throughput is bound by the daemon's CPU and not by the
    // client/event-loop/worker hand-off chain, which CPU steal on a shared
    // VM stretches far more than it slows computation.
    if (name == "interactive") {
        w.clients = 6;
        w.window = 1;
        for (unsigned c = 0; c < w.clients; ++c)
            w.designs.emplace_back("ia" + std::to_string(c), design(256, 101 + c));
    } else if (name == "batch") {
        w.clients = 3;
        w.window = batch_window;
        w.designs.emplace_back("bs", design(256, 201));
        for (unsigned c = 0; c < w.clients; ++c)
            w.designs.emplace_back("sw" + std::to_string(c), design(32, 211 + c));
    } else if (name == "jobs") {
        w.clients = 4;
        w.window = 1;
        w.designs.emplace_back("jb", design(64, 301));
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

request_spec workload::next(unsigned client, std::uint64_t index) const
{
    request_spec spec;
    spec.client = client;
    if (name == "interactive") {
        spec.request = interactive_request(*this, client, index);
    } else if (name == "batch") {
        spec.request = batch_request(*this, client, index, spec.repeat);
    } else {
        spec.request = jobs_request(*this, client, index);
    }
    spec.request.id = "c" + std::to_string(client) + "-" + std::to_string(index);
    spec.line = analysis_request_json(spec.request).write();
    return spec;
}

} // namespace tsgbench
