// Cost of the NDJSON codec (core/api over util/json) per payload class: what
// the daemon spends turning a request line into an analysis_request and a
// rendered payload into its response line, apart from the analysis itself.
//
// The payload classes are the request kinds the serving benchmark sends,
// on the same generated designs (random_marked_graph, border_limit n/16):
//
//   montecarlo   n=256, 16 samples, no slack/witness (a batch request)
//   sweep        n=32 corner sweep, no slack (a batch sweep)
//   topk         n=64, deterministic report_topk, k=4
//   criticality  n=64, 256 samples
//   optimize     n=64, deterministic, budget 1, step 1
//
// Each payload is rendered once by execute_request; then each codec step
// is timed over 201 repeats and reported as median and IQR in microseconds:
//
//   parse_us     parse_analysis_request on the canonical request line
//   encode_us    analysis_response_json on the ok response (the payload is
//                re-parsed and compacted into the NDJSON line)
//
//   bench_codec [--json out.json]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/api.h"
#include "gen/random_sg.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace tsg;
using clock_type = std::chrono::steady_clock;

signal_graph design(std::uint32_t events, std::uint64_t seed)
{
    random_sg_options o;
    o.events = events;
    o.extra_arcs = events;
    o.border_limit = std::max<std::uint32_t>(1, events / 16);
    o.seed = seed;
    return random_marked_graph(o);
}

struct payload_class {
    std::string name;
    signal_graph sg;
    analysis_request request;
};

std::vector<payload_class> payload_classes()
{
    std::vector<payload_class> classes;
    const auto add = [&](std::string name, signal_graph sg, request_kind kind) -> analysis_request& {
        analysis_request r;
        r.kind = kind;
        r.id = name;
        r.design.id = "d";
        r.options.max_threads = 1;
        classes.push_back({std::move(name), std::move(sg), std::move(r)});
        return classes.back().request;
    };
    analysis_request& mc = add("montecarlo", design(256, 201), request_kind::montecarlo);
    mc.options.samples = 16;
    mc.options.seed = 7;
    mc.options.with_slack = false;
    mc.options.with_witness = false;
    analysis_request& sweep = add("sweep", design(32, 211), request_kind::sweep);
    sweep.options.with_slack = false;
    sweep.options.factor = rational(1, 10);
    add("topk", design(64, 301), request_kind::report_topk).options.k = 4;
    analysis_request& crit = add("criticality", design(64, 301), request_kind::criticality);
    crit.options.samples = 256;
    crit.options.seed = 7;
    analysis_request& opt = add("optimize", design(64, 301), request_kind::optimize);
    opt.options.budget = rational(1);
    opt.options.step = rational(1);
    return classes;
}

struct spread {
    double median = 0.0;
    double iqr = 0.0;
};

/// Median and interquartile range (nearest-rank quartiles) of `us`.
spread summarize(std::vector<double> us)
{
    std::sort(us.begin(), us.end());
    const auto at = [&](double q) { return us[static_cast<std::size_t>(q * (us.size() - 1))]; };
    return {at(0.5), at(0.75) - at(0.25)};
}

/// Times `step` `repeats` times, one sample per call, in microseconds.
template <typename Step>
spread time_us(int repeats, Step step)
{
    std::vector<double> us;
    us.reserve(static_cast<std::size_t>(repeats));
    for (int i = 0; i < repeats; ++i) {
        const auto start = clock_type::now();
        step();
        us.push_back(std::chrono::duration<double, std::micro>(clock_type::now() - start).count());
    }
    return summarize(std::move(us));
}

} // namespace

int main(int argc, char** argv)
{
    tsg_bench::bench_reporter reporter(argc, argv);
    constexpr int repeats = 201;

    text_table table;
    table.set_header({"payload", "payload B", "line B", "parse us (IQR)", "encode us (IQR)"});
    for (const payload_class& c : payload_classes()) {
        const analysis_response response = execute_request(c.request, c.sg);
        if (!response.ok) {
            std::cerr << "bench_codec: " << c.name << " failed: " << response.error.code << ": "
                      << response.error.message << "\n";
            return 1;
        }
        const std::string request_line = analysis_request_json(c.request).write();
        const std::string line = analysis_response_json(response);

        // Both calls live in the library, so the optimizer cannot drop them.
        const spread parse = time_us(repeats, [&] { (void)parse_analysis_request(request_line); });
        const spread encode = time_us(repeats, [&] { (void)analysis_response_json(response); });

        const std::string key = "codec." + c.name;
        reporter.record(key + ".payload_bytes", static_cast<double>(response.payload.size()), "B");
        reporter.record(key + ".line_bytes", static_cast<double>(line.size()), "B");
        reporter.record(key + ".parse_us.median", parse.median, "us");
        reporter.record(key + ".parse_us.iqr", parse.iqr, "us");
        reporter.record(key + ".encode_us.median", encode.median, "us");
        reporter.record(key + ".encode_us.iqr", encode.iqr, "us");
        table.add_row({c.name, std::to_string(response.payload.size()), std::to_string(line.size()),
                       format_double(parse.median, 3) + " (" + format_double(parse.iqr, 2) + ")",
                       format_double(encode.median, 4) + " (" + format_double(encode.iqr, 2) +
                           ")"});
    }
    std::cout << "NDJSON codec cost per payload class (" << repeats << " repeats each)\n"
              << table.str();
    return 0;
}
