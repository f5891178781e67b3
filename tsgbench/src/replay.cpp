#include "replay.h"

#include <fstream>
#include <map>
#include <memory>

#include "common.h"
#include "core/compiled_graph.h"
#include "core/cycle_time.h"

namespace tsgbench {

using namespace tsg;

namespace {

class tracer {
public:
    explicit tracer(bool on) : on_(on) {}

    void open(const char* name, std::uint64_t request)
    {
        if (!on_) return;
        span s;
        s.name = name;
        s.request = request;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.start_us = now_us();
        stack_.push_back(static_cast<int>(spans_.size()));
        spans_.push_back(std::move(s));
    }

    void close()
    {
        if (!on_) return;
        spans_[static_cast<std::size_t>(stack_.back())].end_us = now_us();
        stack_.pop_back();
    }

    std::vector<span> take() { return std::move(spans_); }

private:
    double now_us() const
    {
        return std::chrono::duration<double, std::micro>(clock_type::now() - origin_).count();
    }

    bool on_;
    clock_type::time_point origin_ = clock_type::now();
    std::vector<int> stack_;
    std::vector<span> spans_;
};

class scoped_span {
public:
    scoped_span(tracer& t, const char* name, std::uint64_t request) : t_(t)
    {
        t_.open(name, request);
    }
    ~scoped_span() { t_.close(); }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    tracer& t_;
};

/// One design version as the service holds it: graph, compiled snapshot,
/// scenario engine and the cached nominal cycle time.
struct design_state {
    explicit design_state(signal_graph g)
        : sg(std::make_unique<signal_graph>(std::move(g))),
          cg(std::make_unique<compiled_graph>(*sg)),
          engine(std::make_unique<scenario_engine>(*cg))
    {
    }

    std::unique_ptr<signal_graph> sg;
    std::unique_ptr<compiled_graph> cg;
    std::unique_ptr<scenario_engine> engine;
    bool nominal_ready = false;
    rational nominal;
};

class replayer {
public:
    replayer(const workload& w, bool traced) : trace_(traced)
    {
        for (const auto& [id, sg] : w.designs)
            states_.emplace(id, std::make_unique<design_state>(sg));
    }

    void run(const request_spec& spec, replay_result& out)
    {
        const std::uint64_t n = out.requests++;
        scoped_span root(trace_, "request", n);
        analysis_request req;
        {
            scoped_span s(trace_, "api.parse", n);
            req = parse_analysis_request(spec.line);
        }
        std::unique_ptr<design_state>& st = states_.at(req.design.id);
        const request_options& o = req.options;
        std::string payload;
        std::size_t scenarios = 0;
        switch (req.kind) {
        case request_kind::analyze: {
            // The analyze renderer is internal to core/api, so this span is
            // the public executor: analyze_cycle_time plus a payload of a
            // few event names, as analysis_service::submit runs it.
            scoped_span s(trace_, "cycle_time.analyze", n);
            payload = execute_analysis_payload(req, *st->sg, *st->cg, *st->engine);
            break;
        }
        case request_kind::edit: {
            std::unique_ptr<signal_graph> edited;
            {
                scoped_span s(trace_, "incremental.edit", n);
                incremental_engine engine(*st->sg);
                payload = execute_edit_payload(req, engine);
                out.warm_states_kept += engine.counters().warm_states_kept;
                edited = std::make_unique<signal_graph>(engine.graph());
            }
            ++out.edits;
            scoped_span s(trace_, "compiled_graph.compile", n);
            st = std::make_unique<design_state>(std::move(*edited));
            break;
        }
        case request_kind::sweep:
        case request_kind::montecarlo: {
            if (o.adaptive) {
                payload = run_stats(req, *st, n, out);
                break;
            }
            std::vector<scenario> batch_scenarios;
            {
                scoped_span s(trace_, "scenario.generate", n);
                batch_scenarios = request_scenarios(req, *st->sg);
            }
            if (!st->nominal_ready) {
                scoped_span s(trace_, "cycle_time.nominal", n);
                st->nominal = st->engine
                                  ->evaluate(st->cg->delay(), /*with_slack=*/false,
                                             o.max_threads, o.solver)
                                  .cycle_time;
                st->nominal_ready = true;
            }
            scenario_batch_result batch;
            {
                scoped_span s(trace_, "scenario.run", n);
                batch = st->engine->run(batch_scenarios, o.to_batch_options());
            }
            {
                scoped_span s(trace_, "api.render", n);
                payload = batch_payload_json(req, *st->sg, st->nominal, batch_scenarios, batch);
            }
            scenarios = batch.outcomes.size();
            ++out.batch_requests;
            out.batch_scenarios += scenarios;
            out.lane_scenarios += batch.lane_scenarios;
            out.scalar_scenarios += batch.scalar_scenarios;
            out.sparse_scenarios += batch.sparse_scenarios;
            break;
        }
        case request_kind::criticality:
            payload = run_stats(req, *st, n, out);
            break;
        case request_kind::optimize: {
            const optimize_options opt = o.to_optimize_options();
            optimize_result r;
            {
                scoped_span s(trace_, "optimize.run", n);
                r = run_optimize(*st->sg, *st->engine, opt);
            }
            const std::string solver = solver_name(req);
            {
                scoped_span s(trace_, "api.render", n);
                payload = optimize_json("optimize", solver, *st->sg, opt, r);
            }
            ++out.optimize_runs;
            out.optimize_evaluations += r.evaluations;
            break;
        }
        case request_kind::report_topk: {
            const topk_options topk = o.to_topk_options();
            topk_result r;
            {
                scoped_span s(trace_, "optimize.topk", n);
                r = report_topk(*st->sg, *st->cg, *st->engine, topk);
            }
            const std::string solver = solver_name(req);
            {
                scoped_span s(trace_, "api.render", n);
                payload = topk_json("report_topk", solver, *st->sg, topk, r);
            }
            ++out.topk_runs;
            out.topk_solves += r.solves;
            break;
        }
        default:
            throw std::runtime_error("replay: unexpected request kind");
        }
        if (!payload.empty()) {
            scoped_span s(trace_, "api.encode", n);
            analysis_response response;
            response.id = req.id;
            response.ok = true;
            response.payload = std::move(payload);
            response.scenarios = scenarios;
            sink_ ^= analysis_response_json(response).size();
        }
    }

    std::vector<span> spans() { return trace_.take(); }

private:
    /// Runs a statistics request and returns its rendered payload.
    std::string run_stats(const analysis_request& req, design_state& st, std::uint64_t n,
                          replay_result& out)
    {
        const request_options& o = req.options;
        monte_carlo_options mc = o.to_monte_carlo_options();
        const stats_options stats = o.to_stats_options(req.kind);
        stats_run_result r;
        {
            scoped_span s(trace_, "stats.run", n);
            if (o.adaptive) {
                r = monte_carlo_adaptive(*st.engine, *st.sg, mc, stats);
            } else {
                mc.samples = o.samples;
                r = monte_carlo_statistics(*st.engine, *st.sg, mc, stats);
            }
        }
        ++out.stats_runs;
        out.stats_samples += r.stats.count();
        out.stats_rounds += r.rounds;
        const std::string solver = solver_name(req);
        scoped_span s(trace_, "api.render", n);
        return statistics_json(request_kind_name(req.kind), solver, *st.sg, r, stats);
    }

    /// The request's solver as the codec spells it (the renderers echo it).
    static std::string solver_name(const analysis_request& req)
    {
        return member(member(analysis_request_json(req), "options"), "solver").text;
    }

    tracer trace_;
    std::map<std::string, std::unique_ptr<design_state>> states_;
    std::uint64_t sink_ = 0;
};

std::vector<double> self_times_us(const std::vector<span>& spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end_us - spans[i].start_us;
    for (const span& s : spans)
        if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
    return self;
}

} // namespace

std::uint64_t replay_rounds(const workload& w, double budget_s)
{
    replayer r(w, false);
    replay_result out;
    const double start = now_s();
    std::uint64_t k = 0;
    for (; k == 0 || now_s() - start < budget_s; ++k)
        for (unsigned c = 0; c < w.clients; ++c) r.run(w.next(c, k), out);
    return k;
}

replay_result replay_lockstep(const workload& w, std::uint64_t rounds)
{
    replayer plain(w, false);
    replayer traced(w, true);
    replay_result plain_out;
    replay_result out;
    std::vector<request_spec> specs(w.clients);
    for (std::uint64_t k = 0; k < rounds; ++k) {
        for (unsigned c = 0; c < w.clients; ++c) specs[c] = w.next(c, k);
        for (int turn = 0; turn < 2; ++turn) {
            const bool tracing = (turn == 0) == (k % 2 == 0);
            const double start = now_s();
            for (const request_spec& spec : specs)
                (tracing ? traced : plain).run(spec, tracing ? out : plain_out);
            (tracing ? out.wall_s : out.untraced_s) += now_s() - start;
        }
    }
    out.spans = traced.spans();
    return out;
}

std::vector<double> span_durations_us(const std::vector<span>& spans, const std::string& name)
{
    std::vector<double> out;
    for (const span& s : spans)
        if (s.name == name) out.push_back(s.end_us - s.start_us);
    return out;
}

void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<span>& spans)
{
    const std::vector<double> self = self_times_us(spans);
    std::ofstream out(path);
    out << "{\"workload\": " << json_quote(workload) << ", \"spans\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const span& s = spans[i];
        out << (i ? ",\n" : "") << "{\"name\": " << json_quote(s.name)
            << ", \"request\": " << s.request << ", \"parent\": " << s.parent
            << ", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
            << ", \"self_us\": " << self[i] << "}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write " + path);
}

} // namespace tsgbench
