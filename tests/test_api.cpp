// Codec tests for the unified analysis API (core/api.h): round-trip
// identity (parse(serialize(r)) == r, and serialize(parse(text)) == text
// for canonical text), randomized request fuzzing, strict rejection of
// malformed documents with stable structured-error codes, and the
// classify_error contract the tool and the service both lean on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/api.h"
#include "core/cycle_time.h"
#include "gen/random_sg.h"
#include "util/json.h"
#include "util/prng.h"
#include "util/rational.h"

namespace tsg {
namespace {

analysis_request round_trip(const analysis_request& request)
{
    return parse_analysis_request(analysis_request_json(request).write());
}

TEST(ApiCodec, DefaultRequestRoundTrips)
{
    const analysis_request request;
    EXPECT_EQ(round_trip(request), request);
}

TEST(ApiCodec, EveryKindRoundTrips)
{
    for (const request_kind kind :
         {request_kind::analyze, request_kind::sweep, request_kind::montecarlo,
          request_kind::criticality, request_kind::optimize, request_kind::report_topk,
          request_kind::edit, request_kind::stats}) {
        analysis_request request;
        request.kind = kind;
        request.id = "req-" + std::string(request_kind_name(kind));
        if (kind == request_kind::edit)
            request.edits = json_parse(
                R"({"edits": [{"op": "set_delay", "arc": 0, "delay": "3/2"}]})");
        EXPECT_EQ(round_trip(request), request) << request_kind_name(kind);
    }
}

TEST(ApiCodec, LoadedOptionsRoundTrip)
{
    analysis_request request;
    request.kind = request_kind::montecarlo;
    request.id = "x41";
    request.design = {"chip", 7, "", ""};
    request.options.solver = cycle_time_solver::howard;
    request.options.max_threads = 3;
    request.options.lane_width = 16;
    request.options.with_slack = false;
    request.options.with_witness = false;
    request.options.factor = rational(3, 7);
    request.options.samples = 12345;
    request.options.seed = 0xdeadbeefULL;
    request.options.spread = rational(1, 3);
    request.options.resolution = 1024;
    request.options.adaptive = true;
    request.options.epsilon = 0.0125;
    request.options.quantile = 0.95;
    request.options.round_samples = 128;
    request.options.min_samples = 64;
    request.options.criticality = true;
    request.options.group_by_signal = true;
    request.options.mode = optimize_mode::statistical;
    request.options.budget = rational(7, 2);
    request.options.step = rational(1, 4);
    request.options.target = rational(19, 3);
    request.options.min_delay = rational(1, 8);
    request.options.k = 11;
    EXPECT_EQ(round_trip(request), request);
}

TEST(ApiCodec, CanonicalTextIsAFixedPoint)
{
    analysis_request request;
    request.kind = request_kind::sweep;
    request.design.path = "model.tsg";
    request.options.factor = rational(2, 9);
    const std::string text = analysis_request_json(request).write();
    EXPECT_EQ(analysis_request_json(parse_analysis_request(text)).write(), text);
}

TEST(ApiCodec, FuzzedRequestsRoundTrip)
{
    prng rng(20260808);
    const cycle_time_solver solvers[] = {cycle_time_solver::auto_select,
                                         cycle_time_solver::border_sweep,
                                         cycle_time_solver::howard};
    const request_kind kinds[] = {request_kind::analyze,  request_kind::sweep,
                                  request_kind::montecarlo, request_kind::criticality,
                                  request_kind::optimize, request_kind::report_topk,
                                  request_kind::stats};
    for (int i = 0; i < 300; ++i) {
        analysis_request request;
        request.kind = kinds[rng.index(std::size(kinds))];
        if (rng.chance(0.5)) request.id = "id" + std::to_string(rng.uniform(0, 1 << 20));
        switch (rng.uniform(0, 2)) {
        case 0: request.design.id = "d" + std::to_string(rng.uniform(0, 9)); break;
        case 1: request.design.path = "m" + std::to_string(rng.uniform(0, 9)) + ".tsg"; break;
        default: break;
        }
        request.design.version = static_cast<std::uint64_t>(rng.uniform(0, 5));
        request_options& o = request.options;
        o.solver = solvers[rng.index(std::size(solvers))];
        o.max_threads = static_cast<unsigned>(rng.uniform(0, 8));
        o.lane_width = static_cast<unsigned>(rng.chance(0.5) ? 0 : 1 << rng.uniform(1, 4));
        o.with_slack = rng.chance(0.5);
        o.with_witness = rng.chance(0.5);
        o.factor = rational(rng.uniform(1, 99), rng.uniform(1, 99));
        o.samples = static_cast<std::size_t>(rng.uniform(0, 100000));
        o.seed = rng.next();
        o.spread = rational(rng.uniform(0, 99), rng.uniform(1, 99));
        o.resolution = rng.uniform(1, 1 << 20);
        o.adaptive = rng.chance(0.3);
        o.epsilon = rng.chance(0.5) ? 0.05 : rng.uniform01();
        o.quantile = rng.chance(0.5) ? -1.0 : rng.uniform01();
        o.round_samples = static_cast<std::size_t>(rng.uniform(0, 1024));
        o.min_samples = static_cast<std::size_t>(rng.uniform(0, 1024));
        o.criticality = rng.chance(0.3);
        o.group_by_signal = rng.chance(0.3);
        o.mode = rng.chance(0.5) ? optimize_mode::deterministic
                                 : optimize_mode::statistical;
        o.budget = rational(rng.uniform(0, 99), rng.uniform(1, 99));
        o.step = rational(rng.uniform(0, 9), rng.uniform(1, 9));
        o.target = rational(rng.uniform(0, 99), rng.uniform(1, 99));
        o.min_delay = rational(rng.uniform(0, 9), rng.uniform(1, 9));
        o.k = static_cast<std::size_t>(rng.uniform(0, 64));
        EXPECT_EQ(round_trip(request), request) << "iteration " << i;
    }
}

/// Expects parsing to throw a diagnostic classified under `code`.
void expect_rejected(const std::string& text, const std::string& code)
{
    try {
        (void)parse_analysis_request(text);
        FAIL() << "accepted: " << text;
    } catch (const error& e) {
        EXPECT_EQ(classify_error(e.what(), "bad_request").code, code)
            << "diagnostic: " << e.what();
    }
}

TEST(ApiCodec, MalformedDocumentsRejectWithStableCodes)
{
    expect_rejected("", "bad_request");
    expect_rejected("not json", "bad_request");
    expect_rejected("[1, 2]", "bad_request");
    expect_rejected("{}", "bad_request");                       // missing api_version
    expect_rejected(R"({"api_version": 1})", "bad_request");    // missing kind
    expect_rejected(R"({"api_version": 2, "kind": "sweep"})", "unsupported_version");
    expect_rejected(R"({"api_version": 1, "kind": "dance"})", "bad_request");
    expect_rejected(R"({"api_version": 1, "kind": "sweep", "nope": 1})", "bad_request");
    expect_rejected(R"({"api_version": 1, "kind": "sweep", "options": {"bogus": 1}})",
                    "bad_request");
    expect_rejected(R"({"api_version": 1, "kind": "sweep", "design": {"x": "y"}})",
                    "bad_request");
    expect_rejected(R"({"api_version": 1, "kind": "edit"})", "bad_request"); // no edits
    expect_rejected(
        R"({"api_version": 1, "kind": "sweep", "options": {"solver": "quantum"}})",
        "bad_request");
    expect_rejected(
        R"({"api_version": 1, "kind": "optimize", "options": {"mode": "psychic"}})",
        "bad_request");
    expect_rejected(
        R"({"api_version": 1, "kind": "optimize", "options": {"budget": 1.5}})",
        "bad_request");
    expect_rejected(
        R"({"api_version": 1, "kind": "report_topk", "options": {"k": -3}})",
        "bad_request");
    // Out-of-range numerics must reject structurally, not leak std::stod /
    // std::stoull exceptions (found by the protocol fuzzer).
    expect_rejected(
        R"({"api_version": 1, "kind": "montecarlo", "options": {"epsilon": 1e309}})",
        "bad_request");
    expect_rejected(
        R"({"api_version": 1, "kind": "montecarlo",)"
        R"( "options": {"samples": 99999999999999999999}})",
        "bad_request");
    // Escapes decode strictly: unknown, malformed and unpaired ones reject.
    expect_rejected(R"({"api_version": 1, "id": "r\q", "kind": "health"})", "bad_request");
    expect_rejected(R"({"api_version": 1, "id": "r\u003", "kind": "health"})", "bad_request");
    expect_rejected(R"({"api_version": 1, "id": "r\ud800", "kind": "health"})",
                    "bad_request");
    expect_rejected(R"({"api_version": 1, "id": "r\udc00\ud800", "kind": "health"})",
                    "bad_request");
    EXPECT_EQ(parse_analysis_request(
                  R"({"api_version": 1, "id": "r\u0031\b\f", "kind": "health"})")
                  .id,
              "r1\b\f");
    // Numbers follow the RFC 8259 grammar instead of being cut short by
    // std::stod ("1-2" used to be accepted as 1).
    for (const char* number : {"1-2", "--", "1-2e+", "-", "01", "1.", ".5", "+1", "1e"})
        expect_rejected(std::string(R"({"api_version": 1, "kind": "montecarlo", "options": )") +
                            R"({"epsilon": )" + number + "}}",
                        "bad_request");
    expect_rejected(R"({"api_version": 1-2, "kind": "health"})", "bad_request");
}

TEST(ApiCodec, RetiredDeltaOptionIsUnknown)
{
    // The corner-strategy option went with the sparse delta engine; a
    // request still carrying it is rejected, not silently ignored.
    try {
        (void)parse_analysis_request(
            R"({"api_version": 1, "kind": "sweep", "options": {"delta": "auto"}})");
        FAIL() << "accepted a request carrying \"delta\"";
    } catch (const error& e) {
        const api_error err = classify_error(e.what(), "internal");
        EXPECT_EQ(err.code, "bad_request");
        EXPECT_EQ(err.message, "unknown option \"delta\"");
    }
}

TEST(ApiCodec, TruncationFuzzNeverCrashes)
{
    analysis_request request;
    request.kind = request_kind::montecarlo;
    request.id = "trunc";
    request.design.id = "chip";
    request.options.adaptive = true;
    request.options.quantile = 0.95;
    const std::string text = analysis_request_json(request).write();
    for (std::size_t cut = 0; cut < text.size(); ++cut) {
        const std::string prefix = text.substr(0, cut);
        try {
            const analysis_request parsed = parse_analysis_request(prefix);
            // Only the empty-suffix case can legally parse, and then it
            // must round-trip.
            EXPECT_EQ(analysis_request_json(parsed).write(), prefix);
        } catch (const error&) {
            // rejected with a diagnostic — the expected outcome
        }
    }
}

TEST(ApiCodec, MutationFuzzNeverCrashes)
{
    analysis_request request;
    request.kind = request_kind::sweep;
    request.design.id = "chip";
    const std::string text = analysis_request_json(request).write();
    prng rng(7);
    for (int i = 0; i < 500; ++i) {
        std::string mutated = text;
        const std::size_t pos = rng.index(mutated.size());
        mutated[pos] = static_cast<char>(rng.uniform(32, 126));
        try {
            const analysis_request parsed = parse_analysis_request(mutated);
            (void)analysis_request_json(parsed); // must serialize cleanly too
        } catch (const error&) {
        }
    }
}

TEST(ApiCodec, ClassifyErrorKeepsKnownCodesAndFallsBack)
{
    EXPECT_EQ(classify_error("bad_request: nope").code, "bad_request");
    EXPECT_EQ(classify_error("bad_request: nope").message, "nope");
    EXPECT_EQ(classify_error("unsupported_version: v9").code, "unsupported_version");
    EXPECT_EQ(classify_error("unknown_design: x").code, "unknown_design");
    EXPECT_EQ(classify_error("unknown_version: x").code, "unknown_version");
    EXPECT_EQ(classify_error("invalid_model: x").code, "invalid_model");
    EXPECT_EQ(classify_error("invalid_request: optimize needs a positive budget").code,
              "invalid_request");
    EXPECT_EQ(classify_error("unsupported: no delay model").code, "unsupported");
    // "unsupported" must not swallow "unsupported_version" (prefix match
    // includes the ": " separator).
    EXPECT_EQ(classify_error("unsupported_version: v9").message, "v9");
    EXPECT_EQ(classify_error("overloaded: queue full").code, "overloaded");
    EXPECT_EQ(classify_error("internal: x").code, "internal");
    EXPECT_EQ(classify_error("anything else").code, "invalid_model");
    EXPECT_EQ(classify_error("anything else").message, "anything else");
    EXPECT_EQ(classify_error("anything else", "bad_request").code, "bad_request");
}

TEST(ApiCodec, ResponseSerializationEmbedsPayloadAndErrors)
{
    analysis_response ok;
    ok.id = "r1";
    ok.ok = true;
    ok.payload = "{\n  \"command\": \"analyze\",\n  \"cycle_time\": {\"exact\": \"10\"}\n}\n";
    ok.design_version = 3;
    ok.scenarios = 16;
    ok.coalesced = true;
    const json_value ok_doc = json_parse(analysis_response_json(ok));
    EXPECT_EQ(ok_doc.find("id")->text, "r1");
    ASSERT_NE(ok_doc.find("payload"), nullptr);
    EXPECT_EQ(ok_doc.find("payload")->find("command")->text, "analyze");
    EXPECT_EQ(ok_doc.find("coalesced")->k, json_value::kind::bool_v);

    analysis_response bad;
    bad.id = "r2";
    bad.error = {"unknown_design", "no design named 'x'"};
    const json_value bad_doc = json_parse(analysis_response_json(bad));
    ASSERT_NE(bad_doc.find("error"), nullptr);
    EXPECT_EQ(bad_doc.find("error")->find("code")->text, "unknown_design");
    EXPECT_EQ(bad_doc.find("payload"), nullptr);
}

TEST(ApiExecute, EditPayloadIsIndependentOfMaxThreads)
{
    // Large enough that the default thread budget fans the border runs out
    // (>= 2^16 relaxations): the edit executor's nominal and final analyses
    // honour the request's max_threads, and the payload is the same for
    // every setting.
    random_sg_options gopts;
    gopts.events = 256;
    gopts.extra_arcs = 256;
    gopts.border_limit = 16;
    gopts.seed = 5;
    const signal_graph sg = random_marked_graph(gopts);
    analysis_options serial;
    serial.solver = cycle_time_solver::border_sweep;
    serial.max_threads = 1;
    const cycle_time_result ct = analyze_cycle_time(sg, serial);
    ASSERT_GE(static_cast<std::size_t>(ct.periods_used + 1) * sg.arc_count() * ct.runs.size(),
              std::size_t{1} << 16);

    analysis_request request;
    request.kind = request_kind::edit;
    request.edits = json_parse(R"({"edits": [{"op": "set_delay", "arc": 3, "delay": "7/2"}]})");
    std::string reference;
    for (const unsigned threads : {0u, 1u, 2u}) {
        request.options.max_threads = threads;
        const analysis_response response = execute_request(request, sg);
        ASSERT_TRUE(response.ok) << response.error.message;
        if (threads == 0)
            reference = response.payload;
        else
            EXPECT_EQ(response.payload, reference) << "max_threads " << threads;
    }
}

} // namespace
} // namespace tsg
