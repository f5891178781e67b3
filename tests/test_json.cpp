// Codec tests for util/json: the parser and writer every NDJSON line of the
// tool and the daemon goes through.
//
//   * round trips — parse(write(v)) == v on random trees whose strings
//     hold every byte value, and write(parse(x)) == x on the compact form
//     of every golden payload;
//   * pinned bytes — the response and request lines of a fixed corpus
//     (one ok response per golden payload, two error responses, one
//     canonical request per kind) must equal tests/codec/wire_lines.ndjson,
//     recorded with the previous, stream-based writer; the diagnostics
//     of a malformed-document corpus (including every "at offset N") are
//     pinned the same way, raw control bytes in strings and non-RFC
//     whitespace included;
//   * escapes — \uXXXX decodes to UTF-8 (surrogates only as pairs), \b
//     and \f decode, unknown/malformed/unpaired escapes reject, and every
//     control character is written as an escape;
//   * numbers — exactly the RFC 8259 grammar parses.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/api.h"
#include "util/error.h"
#include "util/json.h"
#include "util/prng.h"

namespace tsg {
namespace {

std::string source_path(const std::string& relative)
{
    return std::string(TSG_SOURCE_DIR) + "/" + relative;
}

std::vector<std::filesystem::path> golden_files()
{
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(source_path("tests/golden")))
        if (entry.path().extension() == ".json") files.push_back(entry.path());
    std::sort(files.begin(), files.end()); // directory order is not stable
    return files;
}

std::string slurp(const std::filesystem::path& path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// The parse diagnostic of `text`, or "" when it parses.
std::string diagnostic(const std::string& text, const std::string& context = "json")
{
    try {
        (void)json_parse(text, context);
    } catch (const error& e) {
        return e.what();
    }
    return "";
}

// --- round trips ---------------------------------------------------------------

std::string random_bytes(prng& rng)
{
    std::string s(rng.index(12), '\0');
    for (char& c : s) {
        switch (rng.uniform(0, 3)) {
        case 0: c = static_cast<char>(rng.uniform(0, 255)); break; // any byte
        case 1: c = "\"\\/\b\f\n\r\t\x01\x1f\x7f"[rng.index(11)]; break;
        default: c = static_cast<char>(rng.uniform('a', 'z')); break;
        }
    }
    return s;
}

/// A random spelling drawn from the RFC 8259 number grammar.
std::string random_number(prng& rng)
{
    std::string s = rng.chance(0.3) ? "-" : "";
    if (rng.chance(0.2)) {
        s += '0';
    } else {
        s += static_cast<char>(rng.uniform('1', '9'));
        for (std::size_t i = rng.index(6); i > 0; --i) s += static_cast<char>(rng.uniform('0', '9'));
    }
    if (rng.chance(0.3)) {
        s += '.';
        for (std::size_t i = rng.index(4) + 1; i > 0; --i)
            s += static_cast<char>(rng.uniform('0', '9'));
    }
    if (rng.chance(0.2)) {
        s += rng.chance(0.5) ? 'e' : 'E';
        if (rng.chance(0.5)) s += rng.chance(0.5) ? '+' : '-';
        for (std::size_t i = rng.index(3) + 1; i > 0; --i)
            s += static_cast<char>(rng.uniform('0', '9'));
    }
    return s;
}

json_value random_tree(prng& rng, int depth)
{
    switch (rng.uniform(0, depth > 0 ? 6 : 3)) {
    case 0: return json_value::null();
    case 1: return json_value::boolean_value(rng.chance(0.5));
    case 2: return json_value::raw_number(random_number(rng));
    case 3: return json_value::string(random_bytes(rng));
    case 4: {
        json_value a = json_value::array();
        for (std::size_t i = rng.index(5); i > 0; --i) a.push(random_tree(rng, depth - 1));
        return a;
    }
    default: {
        json_value o = json_value::object();
        for (std::size_t i = rng.index(5); i > 0; --i)
            o.set(random_bytes(rng), random_tree(rng, depth - 1));
        return o;
    }
    }
}

TEST(JsonCodec, ParseOfWriteIsIdentityOnRandomTrees)
{
    prng rng(0x15011u);
    for (int round = 0; round < 2000; ++round) {
        const json_value v = random_tree(rng, 4);
        const std::string text = v.write();
        // One valid line: no raw control characters, whatever the strings hold.
        ASSERT_TRUE(std::none_of(text.begin(), text.end(),
                                 [](char c) { return static_cast<unsigned char>(c) < 0x20; }))
            << "round " << round << ": " << text;
        ASSERT_EQ(json_parse(text), v) << "round " << round << ": " << text;
        // Appending into a non-empty buffer writes the same bytes after it.
        std::string framed = "prefix";
        v.write(framed);
        EXPECT_EQ(framed, "prefix" + text);
    }
}

TEST(JsonCodec, CompactGoldenPayloadsAreWriterFixedPoints)
{
    const auto files = golden_files();
    ASSERT_FALSE(files.empty());
    for (const auto& path : files) {
        const std::string compact = json_parse(slurp(path), "golden").write();
        EXPECT_EQ(json_parse(compact, "compact").write(), compact) << path;
    }
}

// --- pinned bytes ----------------------------------------------------------------

/// Every line of the pinned wire corpus, in file order.
std::vector<std::string> wire_lines()
{
    std::vector<std::string> lines;
    std::size_t index = 0;
    for (const auto& path : golden_files()) {
        analysis_response r;
        r.id = path.stem().string();
        r.ok = true;
        r.payload = slurp(path);
        r.elapsed_ms = 0.1 * static_cast<double>(index + 1);
        r.design_version = index;
        r.scenarios = 3 * index + 1;
        r.coalesced = index % 2 == 1;
        lines.push_back(analysis_response_json(r));
        ++index;
    }
    analysis_response shed;
    shed.id = "shed \"7\"";
    shed.error = {"rate_limited", "quota for design \"chip\" exhausted\tretry", 250};
    shed.elapsed_ms = 1.0 / 3.0;
    lines.push_back(analysis_response_json(shed));
    analysis_response bad;
    bad.error = {"bad_request", "request: expected ':' at offset 12", 0};
    lines.push_back(analysis_response_json(bad));

    const request_kind kinds[] = {request_kind::analyze,     request_kind::sweep,
                                  request_kind::montecarlo,  request_kind::criticality,
                                  request_kind::optimize,    request_kind::report_topk,
                                  request_kind::edit,        request_kind::stats,
                                  request_kind::health};
    for (const request_kind kind : kinds) {
        analysis_request q;
        q.kind = kind;
        q.id = std::string("q-") + request_kind_name(kind);
        q.design.id = "chip";
        q.design.version = 4;
        q.options.samples = 256;
        q.options.seed = 301;
        q.options.spread = rational(1, 50);
        q.options.epsilon = 0.05;
        q.options.quantile = 0.95;
        q.options.budget = rational(3, 2);
        q.options.k = 4;
        q.options.max_threads = 1;
        if (kind == request_kind::edit)
            q.edits = json_parse(R"({"edits": [{"op": "set_delay", "arc": 0, "delay": "3/2"},)"
                                 R"( {"op": "remove_arc", "arc": 7}], "label": "a\\b"})",
                                 "edits");
        lines.push_back(analysis_request_json(q).write());
    }
    return lines;
}

TEST(JsonCodec, WireLinesAreByteIdenticalToTheRecording)
{
    std::ifstream in(source_path("tests/codec/wire_lines.ndjson"));
    ASSERT_TRUE(in) << "missing tests/codec/wire_lines.ndjson";
    std::vector<std::string> recorded;
    for (std::string line; std::getline(in, line);) recorded.push_back(line);

    const std::vector<std::string> lines = wire_lines();
    ASSERT_EQ(lines.size(), recorded.size());
    for (std::size_t i = 0; i < lines.size(); ++i) EXPECT_EQ(lines[i], recorded[i]) << "line " << i;
}

struct diagnostic_case {
    const char* text;
    const char* context;
    const char* message;
};

// Recorded with the previous parser (GCC build).  The offset an "expected"
// diagnostic reports is the cursor before the whitespace skip.
const diagnostic_case malformed_corpus[] = {
    {"", "json", "json: unexpected end of JSON"},
    {"   ", "json", "json: unexpected end of JSON"},
    {"{", "request", "request: unexpected end of JSON"},
    {"{ ", "request", "request: unexpected end of JSON"},
    {"[", "json", "json: unexpected end of JSON"},
    {"[1, 2", "json", "json: unexpected end of JSON"},
    {"[1 2]", "json", "json: expected ']' at offset 3"},
    {"[1,]", "json", "json: malformed JSON value"},
    {"[1,,2]", "json", "json: malformed JSON value"},
    {"[1]]", "json", "json: trailing garbage after the document"},
    {"1 2", "json", "json: trailing garbage after the document"},
    {"{} x", "request", "request: trailing garbage after the document"},
    {"x", "request", "request: malformed JSON value"},
    {"tru", "json", "json: malformed JSON value"},
    {"nul", "json", "json: malformed JSON value"},
    {"fals", "json", "json: malformed JSON value"},
    {":", "json", "json: malformed JSON value"},
    {"}", "json", "json: malformed JSON value"},
    {"]", "json", "json: malformed JSON value"},
    {"\"abc", "json", "json: unterminated string"},
    {"\"abc\\", "json", "json: dangling escape"},
    {"{\"a\"", "request", "request: unexpected end of JSON"},
    {"{\"a\" 1}", "request", "request: expected ':' at offset 4"},
    {"{\"a\"   :1 \"b\":2}", "request", "request: expected '}' at offset 10"},
    {"{\"a\":1 \"b\":2}", "request", "request: expected '}' at offset 7"},
    {"{\"a\":1, x}", "request", "request: expected '\"' at offset 7"},
    {"{\"a\":1,   x}", "request", "request: expected '\"' at offset 7"},
    {"{\"a\":1,  }", "request", "request: expected '\"' at offset 7"},
    {"{\"a\":}", "request", "request: malformed JSON value"},
    {"{,}", "request", "request: expected '\"' at offset 1"},
    {"{1: 2}", "request", "request: expected '\"' at offset 1"},
    {"{ \"a\" : [1, {\"b\": }]}", "edit script", "edit script: malformed JSON value"},
    {"[\"a\" \"b\"]", "json", "json: expected ']' at offset 5"},
    {"{\"a\":1,\n\t\"b\" 2}", "edit script", "edit script: expected ':' at offset 12"},
    {"{\"a\": {\"b\": [true, false, null  x]}}", "json", "json: expected ']' at offset 32"},
    {"{\"edits\": [{\"op\" \"set_delay\"}]}", "edit script",
     "edit script: expected ':' at offset 16"},
    {"  {\"x\": \"y\"}  ]", "request", "request: trailing garbage after the document"},
    {"{\"a\": \"b\"\n}\n\n,", "request", "request: trailing garbage after the document"},
    // Not from the recording (that parser accepted them): RFC 8259 forbids
    // raw control bytes inside strings and whitespace beyond space/\t/\n/\r.
    {"[\"a\x01\",\v\f1]", "json", "json: unescaped control character in string at offset 3"},
    {"\"tab\there\"", "json", "json: unescaped control character in string at offset 4"},
    {"[1,\v\f1]", "json", "json: malformed JSON value"},
    {"\f1", "json", "json: malformed JSON value"},
};

TEST(JsonCodec, DiagnosticsMatchTheRecording)
{
    for (const diagnostic_case& c : malformed_corpus)
        EXPECT_EQ(diagnostic(c.text, c.context), c.message) << "input: " << c.text;
}

// --- escapes -------------------------------------------------------------------

TEST(JsonCodec, EscapesDecode)
{
    EXPECT_EQ(json_parse(R"("r\u0031")").text, "r1");
    EXPECT_EQ(json_parse(R"("\b\f\n\r\t\"\\\/")").text, "\b\f\n\r\t\"\\/");
    EXPECT_EQ(json_parse(R"("\u0000")").text, std::string(1, '\0'));
    EXPECT_EQ(json_parse(R"("\u00e9\u00E9")").text, "\xc3\xa9\xc3\xa9");       // U+00E9
    EXPECT_EQ(json_parse(R"("\u20ac")").text, "\xe2\x82\xac");                 // U+20AC
    EXPECT_EQ(json_parse(R"("\ud83d\ude00")").text, "\xf0\x9f\x98\x80");       // U+1F600
    EXPECT_EQ(json_parse(R"("\uDBFF\uDFFF")").text, "\xf4\x8f\xbf\xbf");       // U+10FFFF
    EXPECT_EQ(json_parse("\"caf\xc3\xa9\"").text, "caf\xc3\xa9"); // raw UTF-8 passes through
}

TEST(JsonCodec, MalformedEscapesReject)
{
    EXPECT_EQ(diagnostic(R"("\q")"), "json: invalid escape at offset 1");
    EXPECT_EQ(diagnostic(R"(["ab\u12")"), "json: invalid escape at offset 4");
    EXPECT_EQ(diagnostic(R"("\u12g4")"), "json: invalid escape at offset 1");
    EXPECT_EQ(diagnostic(R"("\u+123")"), "json: invalid escape at offset 1");
    EXPECT_EQ(diagnostic(R"("x\ud83d")"), "json: invalid escape at offset 2");   // lone high
    EXPECT_EQ(diagnostic(R"("x\ud83dx")"), "json: invalid escape at offset 2");
    EXPECT_EQ(diagnostic(R"("\ude00\ud83d")"), "json: invalid escape at offset 1"); // lone low
    EXPECT_EQ(diagnostic(R"("\ud83d\u0041")"), "json: invalid escape at offset 1"); // bad low
    EXPECT_EQ(diagnostic(R"("\ud83d\ud83d")"), "json: invalid escape at offset 1");
}

TEST(JsonCodec, ControlCharactersAreWrittenEscaped)
{
    EXPECT_EQ(json_quote("\x01"), "\"\\u0001\"");
    EXPECT_EQ(json_quote("a\x1f" "b"), "\"a\\u001fb\"");
    EXPECT_EQ(json_quote("\b\f"), "\"\\u0008\\u000c\"");
    EXPECT_EQ(json_quote("\n\t\r\"\\"), "\"\\n\\t\\r\\\"\\\\\"");
    EXPECT_EQ(json_quote("/\x7f\xc3\xa9"), "\"/\x7f\xc3\xa9\""); // not control characters
    for (int c = 0; c < 0x20; ++c) {
        const std::string s(1, static_cast<char>(c));
        const std::string quoted = json_quote(s);
        EXPECT_TRUE(std::all_of(quoted.begin(), quoted.end(),
                                [](char q) { return static_cast<unsigned char>(q) >= 0x20; }))
            << "byte " << c;
        EXPECT_EQ(json_parse(quoted).text, s) << "byte " << c;
        EXPECT_EQ(json_value::string(s).write(), quoted);
    }
}

// --- numbers -------------------------------------------------------------------

TEST(JsonCodec, NumbersFollowTheRfc8259Grammar)
{
    for (const char* ok : {"0", "-0", "7", "-12", "10", "0.5", "-0.25", "1e5", "1E5", "1e+5",
                           "1e-5", "2.5E-07", "0e0", "123456789012345678901234567890"}) {
        const json_value v = json_parse(ok);
        EXPECT_EQ(v.k, json_value::kind::number_v) << ok;
        EXPECT_EQ(v.text, ok);
    }
    for (const char* bad : {"-", "--", "+1", "1-2", "1-2e+", "01", "-01", "00", "1.", ".5",
                            "1.e5", "1e", "1e+", "1e-", "1ee5", "1.2.3", "1e5.0", "1+", "e5",
                            "-.5", "1E+-5"}) {
        EXPECT_EQ(diagnostic(bad), "json: malformed JSON value") << bad;
        EXPECT_EQ(diagnostic(std::string("[") + bad + "]"), "json: malformed JSON value")
            << bad;
    }
    // A number ends where its characters end; what follows is the
    // container's business.
    EXPECT_EQ(diagnostic("[1x]"), "json: expected ']' at offset 2");
}

} // namespace
} // namespace tsg
