// tsg_bench — the end-to-end benchmark program behind tsgbench/run.py.
//
//   tsg_bench --workload W --seed N --seconds S --trace 0|1 --work-dir <dir>
//   tsg_bench --selfcheck REQUESTS --workload W --seed N --work-dir <dir>
//
// The daemon is the tsg_serve binary built beside tsg_bench.
//
// --trace 0: the untraced end-to-end run of workload W against a live
//            tsg_serve over TCP (setup, a closed-loop timed window, the
//            daemon's CPU and peak RSS), then every response checked.
// --trace 1: the per-layer run: for every workload, a short TCP phase
//            (stats counters, wire bytes), an in-process service phase,
//            a traced direct replay with an untraced twin run in lockstep
//            (tracing overhead).
// --selfcheck: a fixed number of requests per client, no timing; prints
//            the stream digest and the per-request counts that must repeat
//            exactly across runs with one seed.
//
// The last stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
// the line before it is the machine descriptor.
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common.h"
#include "core/compiled_graph.h"
#include "loadgen.h"
#include "replay.h"
#include "server.h"
#include "sg/sg_io.h"
#include "verify.h"

#ifndef TSGBENCH_COMPILER
#define TSGBENCH_COMPILER "unknown"
#endif
#ifndef TSGBENCH_BUILD_TYPE
#define TSGBENCH_BUILD_TYPE "unknown"
#endif
#ifndef TSGBENCH_NATIVE_ARCH
#define TSGBENCH_NATIVE_ARCH "unknown"
#endif

namespace tsgbench {
namespace {

using namespace tsg;

/// Server-side settings shared by every TCP run (the pinned budget).
const std::vector<std::string> serve_flags = {"--workers", std::to_string(serve_workers)};
constexpr int setup_repeats = 31;
constexpr double warmup_s = 1.0;
constexpr double drain_s = 30.0;
/// The timed window is split into this many equal sub-windows, and every
/// rate metric is the median over them: a burst of CPU steal from a
/// neighbouring tenant then shifts one or two sub-windows, not the run.
constexpr std::size_t sub_windows = 10;
const unsigned verify_threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
/// Responses per p99 estimate: 10 samples beyond the 99th percentile.
constexpr std::size_t min_p99_samples = 1000;

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::uint64_t selfcheck = 0;
    std::string work_dir;
};

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<metric> metrics;
    std::vector<std::string> notes;

    void fail(const std::string& why)
    {
        correct = false;
        notes.push_back(why);
    }
};

std::string number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void make_dirs(const std::string& path)
{
    for (std::size_t at = 1; at != std::string::npos; ++at) {
        at = path.find('/', at);
        ::mkdir(path.substr(0, at).c_str(), 0755);
        if (at == std::string::npos) break;
    }
}

std::string cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
    return "unknown";
}

std::string descriptor(const options& o, const workload& w)
{
    std::ostringstream os;
    os << "{\"descriptor\": {\"cpu_model\": " << json_quote(cpu_model())
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": " << json_quote(TSGBENCH_COMPILER)
       << ", \"build_type\": " << json_quote(TSGBENCH_BUILD_TYPE)
       << ", \"tsg_native_arch\": " << json_quote(TSGBENCH_NATIVE_ARCH)
       << ", \"serve_workers\": " << serve_workers
       << ", \"request_max_threads\": " << request_max_threads
       << ", \"loadgen_threads\": 1, \"connections\": " << w.clients
       << ", \"window\": " << w.window << ", \"workload\": " << json_quote(o.workload)
       << ", \"seed\": " << o.seed << ", \"seconds\": " << number(o.seconds)
       << ", \"trace\": " << o.trace << "}}";
    return os.str();
}

/// Writes the workload's designs as .tsg files and swaps in the parsed
/// round trip, so every in-process check sees exactly what the daemon
/// loads.  Returns the daemon's --design flags.
std::vector<std::string> materialize_designs(workload& w, const std::string& dir)
{
    make_dirs(dir);
    std::vector<std::string> flags = serve_flags;
    for (auto& [id, sg] : w.designs) {
        const std::string path = dir + "/" + id + ".tsg";
        const std::string text = write_sg(sg, id);
        std::ofstream(path) << text;
        sg = parse_sg(text);
        flags.push_back("--design");
        flags.push_back(id + "=" + path);
    }
    return flags;
}

std::uint64_t stats_counter(const server_process& server, std::initializer_list<const char*> path)
{
    const json_value doc =
        json_parse(server.request(R"({"api_version": 1, "id": "stats", "kind": "stats"})"));
    return count_at(member(doc, "payload"), path);
}

struct window_stats {
    std::vector<double> latency_ms;
    std::vector<double> done_s; ///< completion time of each latency_ms entry
    std::uint64_t ok = 0;
    std::uint64_t scenarios = 0;
    double seconds = 0.0;
};

/// The ok responses that completed inside sub-window k.
window_stats in_window(const loop_result& run, const verification* v, std::size_t k = 0)
{
    if (run.edges.size() < k + 2) throw std::runtime_error("the timed window did not complete");
    const double from = run.edges[k];
    const double to = run.edges[k + 1];
    window_stats s;
    s.seconds = to - from;
    for (std::size_t c = 0; c < run.clients.size(); ++c)
        for (std::size_t i = 0; i < run.clients[c].size(); ++i) {
            const exchange& e = run.clients[c][i];
            if (!e.ok || e.done_s < from || e.done_s >= to) continue;
            ++s.ok;
            s.latency_ms.push_back((e.done_s - e.sent_s) * 1000.0);
            s.done_s.push_back(e.done_s);
            if (v != nullptr) s.scenarios += v->facts[c][i].scenarios;
        }
    return s;
}

/// The p99 latency as the median over consecutive groups of
/// min_p99_samples responses in completion order (the remainder joins the
/// last group), so each estimate has at least 10 samples beyond it, and a
/// tail stall from another tenant that covers fewer than half of the
/// groups does not move the result.  Needs min_p99_samples responses.
double grouped_p99(const std::vector<double>& latency_ms, const std::vector<double>& done_s)
{
    std::vector<std::size_t> order(latency_ms.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return done_s[a] < done_s[b]; });
    const std::size_t groups = order.size() / min_p99_samples;
    std::vector<double> p99;
    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t end = g + 1 == groups ? order.size() : (g + 1) * min_p99_samples;
        std::vector<double> group;
        for (std::size_t i = g * min_p99_samples; i < end; ++i)
            group.push_back(latency_ms[order[i]]);
        p99.push_back(quantile(std::move(group), 0.99));
    }
    return median(std::move(p99));
}

std::uint64_t constructed_cache_hits(const loop_result& run)
{
    std::uint64_t hits = 0;
    for (const auto& client : run.clients)
        for (const exchange& e : client) hits += e.spec.repeat ? 1 : 0;
    return hits;
}

/// Folds a TCP run's verification into the result.
void account(result& r, const loop_result& run, const verification& v,
             std::uint64_t cache_hits)
{
    r.attempted += run.attempted;
    r.failed += v.failed + run.unanswered;
    if (v.failed + run.unanswered > 0)
        r.fail(std::to_string(v.failed + run.unanswered) + " failed requests");
    if (v.mismatches > 0) r.fail(std::to_string(v.mismatches) + " payload mismatches");
    for (const std::string& n : v.notes) r.notes.push_back(n);
    if (cache_hits != constructed_cache_hits(run))
        r.fail("payload cache hits " + std::to_string(cache_hits) + " != constructed " +
               std::to_string(constructed_cache_hits(run)));
}

result run_end_to_end(const options& o)
{
    workload w = make_workload(o.workload, o.seed);
    const std::vector<std::string> flags =
        materialize_designs(w, o.work_dir + "/designs/" + w.name);

    // Set-up: spawn-to-first-healthy, repeated; the last instance serves.
    const double t_start = now_s();
    std::vector<double> setups;
    std::unique_ptr<server_process> server;
    for (int i = 0; i < setup_repeats; ++i) {
        if (server) server->stop();
        server = std::make_unique<server_process>(TSGBENCH_SERVE, flags);
        setups.push_back(server->setup_seconds());
    }

    std::vector<double> cpu_s(sub_windows + 1, 0.0);
    loop_result run;
    {
        const std::unique_ptr<transport> tcp = tcp_transport(server->port(), w.clients);
        loop_plan plan;
        plan.warmup_s = warmup_s;
        plan.window_s = o.seconds;
        plan.sub_windows = sub_windows;
        plan.drain_s = drain_s;
        run = run_closed_loop(w, *tcp, plan,
                              [&](std::size_t k) { cpu_s[k] = server->cpu_seconds(); });
    }
    const std::uint64_t cache_hits = stats_counter(*server, {"cache", "hits"});
    const std::uint64_t engine_batches = stats_counter(*server, {"coalescing", "engine_batches"});
    const double rss = server->peak_rss_mb();
    server->stop();

    const double verify_start = now_s();
    const verification v = verify_run(w, run, verify_threads);
    result r;
    r.notes.push_back("phases: set-up " + number(run.edges.front() - warmup_s - t_start) +
                      " s, verification " + number(now_s() - verify_start) + " s");
    account(r, run, v, cache_hits);

    std::vector<double> rps, sps, cpu_ms, latency_ms, done_s;
    for (std::size_t k = 0; k < sub_windows; ++k) {
        const window_stats s = in_window(run, &v, k);
        if (s.ok == 0) throw std::runtime_error("a sub-window completed no request");
        rps.push_back(static_cast<double>(s.ok) / s.seconds);
        sps.push_back(static_cast<double>(s.scenarios) / s.seconds);
        cpu_ms.push_back((cpu_s[k + 1] - cpu_s[k]) * 1000.0 / static_cast<double>(s.ok));
        latency_ms.insert(latency_ms.end(), s.latency_ms.begin(), s.latency_ms.end());
        done_s.insert(done_s.end(), s.done_s.begin(), s.done_s.end());
    }
    const std::size_t ok = latency_ms.size();
    if (ok < min_p99_samples)
        r.fail("only " + std::to_string(ok) + " responses in the window; a p99 needs " +
               std::to_string(min_p99_samples) + " (10 samples beyond it)");
    r.metrics = {
        {"setup_s", median(setups), "s"},
        {"requests_per_s", median(rps), "1/s"},
        {"scenarios_per_s", median(sps), "1/s"},
        {"latency_p50_ms", quantile(latency_ms, 0.50), "ms"},
        {"latency_p99_ms", grouped_p99(latency_ms, done_s), "ms"},
        {"cpu_ms_per_request", median(cpu_ms), "ms"},
        {"peak_rss_mb", rss, "MB"},
    };
    r.notes.push_back(o.workload + ": " + std::to_string(ok) + " ok responses in " +
                      number(run.edges.back() - run.edges.front()) + " s window, " +
                      std::to_string(engine_batches) + " engine batches in the run; p99 over " +
                      std::to_string(ok / min_p99_samples) + " groups, pooled p99 " +
                      number(quantile(latency_ms, 0.99)) + " ms");
    return r;
}

/// Direct executor time per replayed request: the root span minus the
/// codec spans (parse, encode) the service path does not include.
std::vector<double> executor_ms(const std::vector<span>& spans)
{
    std::vector<double> root(spans.size(), -1.0);
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent < 0) root[i] = spans[i].end_us - spans[i].start_us;
    for (const span& s : spans)
        if (s.parent >= 0 && (s.name == "api.parse" || s.name == "api.encode"))
            root[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
    std::vector<double> out;
    for (const double v : root)
        if (v >= 0.0) out.push_back(v / 1000.0);
    return out;
}

double median_of(const std::vector<span>& spans, const std::string& name, double scale)
{
    return median(span_durations_us(spans, name)) * scale;
}

double per(std::uint64_t total, std::uint64_t count)
{
    return count ? static_cast<double>(total) / static_cast<double>(count) : 0.0;
}

/// The per-layer metrics of one workload (names prefixed with it).
void trace_workload(const options& o, const std::string& name, result& r)
{
    const double phase_s = std::max(1.0, o.seconds / 4.0);
    workload w = make_workload(name, o.seed);
    const std::vector<std::string> flags = materialize_designs(w, o.work_dir + "/designs/" + name);
    const auto add = [&](const std::string& m, double v, const std::string& unit) {
        r.metrics.push_back({name + "." + m, v, unit});
    };

    // core/compiled_graph: compile each registered design (median of 5).
    std::vector<double> compile_ms;
    for (const auto& [id, sg] : w.designs)
        for (int i = 0; i < 5; ++i) {
            const double t0 = now_s();
            const compiled_graph cg(sg);
            compile_ms.push_back((now_s() - t0) * 1000.0);
        }
    add("compile.ms", median(compile_ms), "ms");

    loop_plan phase_plan;
    phase_plan.warmup_s = 0.5;
    phase_plan.window_s = phase_s;
    phase_plan.drain_s = drain_s;

    // TCP phase: wire bytes, client p50, the daemon's stats counters.
    server_process server(TSGBENCH_SERVE, flags);
    loop_result tcp_run;
    {
        const std::unique_ptr<transport> tcp = tcp_transport(server.port(), w.clients);
        tcp_run = run_closed_loop(w, *tcp, phase_plan);
    }
    const json_value stats = member(
        json_parse(server.request(R"({"api_version": 1, "id": "stats", "kind": "stats"})")),
        "payload");
    server.stop();
    const verification v = verify_run(w, tcp_run, verify_threads);
    account(r, tcp_run, v, count_at(stats, {"cache", "hits"}));
    const window_stats tcp_window = in_window(tcp_run, &v);
    std::uint64_t request_bytes = 0;
    std::uint64_t response_bytes = 0;
    std::uint64_t exchanges = 0;
    for (const auto& client : tcp_run.clients)
        for (const exchange& e : client) {
            request_bytes += e.spec.line.size() + 1;
            response_bytes += e.response.size() + 1;
            ++exchanges;
        }

    // In-process phase: the same closed loop on analysis_service::submit.
    window_stats inproc_window;
    {
        service_options so;
        so.workers = serve_workers;
        analysis_service service(so);
        for (const auto& [id, sg] : w.designs) service.register_design(id, sg);
        const std::unique_ptr<transport> inproc = inprocess_transport(service);
        const loop_result inproc_run = run_closed_loop(w, *inproc, phase_plan);
        r.attempted += inproc_run.attempted;
        inproc_window = in_window(inproc_run, nullptr);
        std::uint64_t failed = inproc_run.unanswered;
        for (const auto& client : inproc_run.clients)
            for (const exchange& e : client) failed += e.ok ? 0 : 1;
        r.failed += failed;
        if (failed > 0) r.fail(std::to_string(failed) + " failed in-process requests");
    }

    // Direct replays.  An untraced pass warms caches and fixes the round
    // count; then the traced replay and an untraced twin run the same
    // rounds in lockstep, and the tracing overhead is their time ratio.
    const std::uint64_t rounds = replay_rounds(w, phase_s / 3.0);
    const replay_result traced = replay_lockstep(w, rounds);
    r.attempted += rounds * w.clients + 2 * traced.requests;
    make_dirs(o.work_dir + "/trace");
    write_spans(o.work_dir + "/trace/" + name + "-seed" + std::to_string(o.seed) + ".json",
                name, traced.spans);
    const std::vector<span>& sp = traced.spans;
    const std::vector<double> exec_ms = executor_ms(sp);
    add("trace.overhead_pct", (traced.wall_s / traced.untraced_s - 1.0) * 100.0, "%");

    const double inproc_p50 = quantile(inproc_window.latency_ms, 0.50);
    const double inproc_p99 = quantile(inproc_window.latency_ms, 0.99);
    const auto service_overhead = [&] {
        add("service.overhead_p50_ms", inproc_p50 - quantile(exec_ms, 0.50), "ms");
        add("service.overhead_p99_ms", inproc_p99 - quantile(exec_ms, 0.99), "ms");
    };
    if (name == "interactive") {
        add("net.overhead_ms", quantile(tcp_window.latency_ms, 0.50) - inproc_p50, "ms");
        add("api.parse_us", median_of(sp, "api.parse", 1.0), "us");
        service_overhead();
        add("cycle_time.analyze_ms", median_of(sp, "cycle_time.analyze", 1e-3), "ms");
        add("incremental.edit_ms", median_of(sp, "incremental.edit", 1e-3), "ms");
        add("incremental.warm_states_kept", per(traced.warm_states_kept, traced.edits), "count");
    } else if (name == "batch") {
        add("net.request_bytes", per(request_bytes, exchanges), "bytes");
        add("net.response_bytes", per(response_bytes, exchanges), "bytes");
        add("api.encode_us", median_of(sp, "api.encode", 1.0), "us");
        add("api.render_ms", median_of(sp, "api.render", 1e-3), "ms");
        service_overhead();
        const json_value* coalescing = stats.find("coalescing");
        add("service.coalescing_efficiency",
            coalescing ? std::stod(member(*coalescing, "efficiency").text) : 0.0, "ratio");
        add("service.engine_batches",
            static_cast<double>(count_at(stats, {"coalescing", "engine_batches"})), "count");
        add("service.queue_peak", static_cast<double>(count_at(stats, {"queue", "peak"})),
            "count");
        add("service.cache_hits", static_cast<double>(count_at(stats, {"cache", "hits"})),
            "count");
        double run_us = 0.0;
        for (const double d : span_durations_us(sp, "scenario.run")) run_us += d;
        add("scenario.run_ms", median_of(sp, "scenario.run", 1e-3), "ms");
        add("scenario.us_per_scenario", run_us / std::max<double>(1.0, traced.batch_scenarios),
            "us");
        add("scenario.lane_scenarios", per(traced.lane_scenarios, traced.batch_requests),
            "count");
        add("scenario.scalar_scenarios", per(traced.scalar_scenarios, traced.batch_requests),
            "count");
        add("scenario.sparse_scenarios", per(traced.sparse_scenarios, traced.batch_requests),
            "count");
    } else {
        add("stats.run_ms", median_of(sp, "stats.run", 1e-3), "ms");
        add("stats.samples", per(traced.stats_samples, traced.stats_runs), "count");
        add("stats.rounds", per(traced.stats_rounds, traced.stats_runs), "count");
        add("optimize.run_ms", median_of(sp, "optimize.run", 1e-3), "ms");
        add("optimize.evaluations", per(traced.optimize_evaluations, traced.optimize_runs),
            "count");
        add("optimize.topk_ms", median_of(sp, "optimize.topk", 1e-3), "ms");
        add("optimize.topk_solves", per(traced.topk_solves, traced.topk_runs), "count");
    }
}

result run_traced(const options& o)
{
    result r;
    for (const std::string& name : workload_names()) trace_workload(o, name, r);
    return r;
}

/// --selfcheck: fixed request counts, no timing.  Prints one JSON line of
/// everything that must repeat exactly across runs with one seed.
int run_selfcheck(const options& o)
{
    workload w = make_workload(o.workload, o.seed);
    const std::vector<std::string> flags =
        materialize_designs(w, o.work_dir + "/designs/" + w.name);
    server_process server(TSGBENCH_SERVE, flags);
    loop_result run;
    {
        const std::unique_ptr<transport> tcp = tcp_transport(server.port(), w.clients);
        loop_plan plan;
        plan.drain_s = 120.0;
        plan.max_requests = o.selfcheck;
        run = run_closed_loop(w, *tcp, plan);
    }
    const std::uint64_t cache_hits = stats_counter(server, {"cache", "hits"});
    server.stop();
    const verification v = verify_run(w, run, verify_threads);

    std::uint64_t digest = 1469598103934665603ULL; // FNV-1a over every request line
    std::ostringstream counts;
    counts << "[";
    for (std::size_t c = 0; c < run.clients.size(); ++c)
        for (std::size_t i = 0; i < run.clients[c].size(); ++i) {
            const exchange& e = run.clients[c][i];
            for (const char ch : e.spec.line + "\n")
                digest = (digest ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
            const response_facts& f = v.facts[c][i];
            counts << (c + i ? ", " : "") << "[" << f.optimize_evaluations << ", "
                   << f.topk_solves << ", " << f.stats_samples << ", " << f.warm_states_kept
                   << ", " << (e.spec.repeat ? 1 : 0) << "]";
        }
    counts << "]";
    for (const std::string& n : v.notes) std::cerr << "tsg_bench: " << n << "\n";
    std::cout << "{\"workload\": " << json_quote(w.name) << ", \"requests\": " << run.attempted
              << ", \"failed\": " << v.failed + run.unanswered
              << ", \"mismatches\": " << v.mismatches << ", \"stream_digest\": " << digest
              << ", \"cache_hits\": " << cache_hits
              << ", \"constructed_cache_hits\": " << constructed_cache_hits(run)
              << ", \"counts\": " << counts.str() << "}" << std::endl;
    return 0;
}

options parse_args(int argc, char** argv)
{
    options o;
    const std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const auto value = [&]() -> const std::string& {
            if (i + 1 >= args.size()) throw std::invalid_argument(args[i] + " needs a value");
            return args[++i];
        };
        if (args[i] == "--workload") o.workload = value();
        else if (args[i] == "--seed") o.seed = std::stoull(value());
        else if (args[i] == "--seconds") o.seconds = std::stod(value());
        else if (args[i] == "--trace") o.trace = std::stoi(value());
        else if (args[i] == "--selfcheck") o.selfcheck = std::stoull(value());
        else if (args[i] == "--work-dir") o.work_dir = value();
        else throw std::invalid_argument("unknown argument '" + args[i] + "'");
    }
    if (o.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
    if (o.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
    if (o.trace != 0 && o.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
    (void)make_workload(o.workload, o.seed); // validates the name
    return o;
}

} // namespace
} // namespace tsgbench

int main(int argc, char** argv)
{
    using namespace tsgbench;
    try {
        const options o = parse_args(argc, argv);
        if (o.selfcheck > 0) return run_selfcheck(o);
        const result r = o.trace ? run_traced(o) : run_end_to_end(o);
        for (const std::string& n : r.notes) std::cerr << "tsg_bench: " << n << "\n";

        std::ostringstream line;
        line << "{\"correct\": " << (r.correct ? "true" : "false")
             << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
             << ", \"metrics\": {";
        for (std::size_t i = 0; i < r.metrics.size(); ++i)
            line << (i ? ", " : "") << tsg::json_quote(r.metrics[i].name)
                 << ": {\"value\": " << number(r.metrics[i].value)
                 << ", \"unit\": " << tsg::json_quote(r.metrics[i].unit) << "}";
        line << "}}";
        const std::string desc = descriptor(o, make_workload(o.workload, o.seed));

        make_dirs(o.work_dir + "/results");
        std::ofstream(o.work_dir + "/results/" + o.workload + "-seed" + std::to_string(o.seed) +
                      "-trace" + std::to_string(o.trace) + ".json")
            << "{\"descriptor\": " << desc.substr(15, desc.size() - 16)
            << ", \"result\": " << line.str() << "}\n";
        std::cout << desc << "\n" << line.str() << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "tsg_bench: error: " << e.what() << "\n";
        return 1;
    }
}
