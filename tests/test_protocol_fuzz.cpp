// Protocol fuzzing for the serving stack, seeded from the golden corpus
// (tests/golden/*.json) and from canonical request lines.  Three layers,
// all deterministic (fixed PRNG seeds) so CI failures replay exactly:
//
//   * framing — the line splitter fed random bytes under random
//     chunkings must produce exactly the reference split, byte for byte,
//     and latch (never crash) on oversized lines;
//   * codec — mutated canonical request lines must either parse or throw
//     tsg::error with a classifiable diagnostic — never crash or hang;
//   * transport — mutated golden documents thrown at a live
//     event_loop_server (in adversarial chunkings, some connections torn
//     down mid-stream) must never kill the server: every complete line
//     is answered with a structured response, and the server still
//     serves a well-formed client afterwards.
//
// The socket corpus is seeded from golden *payload* documents on
// purpose: mutations of a payload cannot turn into an expensive valid
// request, so the fuzz rounds stay fast under ASan/UBSan while still
// covering the parse-reject path with realistic JSON shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/api.h"
#include "service_test_harness.h"
#include "util/error.h"
#include "util/prng.h"

namespace tsg {
namespace {

using testing::make_request;
using testing::request_line;
using testing::response_doc;
using testing::response_error_code;
using testing::response_ok;
using testing::script_client;
using testing::serve_harness;

/// Fragments aimed at the codec's string-escape and number grammars:
/// valid, malformed and unpaired escapes, and near-numbers.
const char* const k_fragments[] = {
    "\\u0031", "\\u00e9", "\\ud83d\\ude00", "\\ud83d", "\\ude00", "\\u00", "\\u12g4", "\\b",
    "\\f", "\\q", "\\", "-", "--", "1-2", "1-2e+", "e+", ".", "01", "1.", "+1", "1e309"};

std::string mutate(const std::string& base, prng& rng)
{
    std::string text = base;
    const int edits = static_cast<int>(rng.uniform(1, 8));
    for (int i = 0; i < edits && !text.empty(); ++i) {
        const std::size_t pos = rng.index(text.size());
        switch (rng.uniform(0, 5)) {
        case 0: text.erase(pos, rng.index(4) + 1); break;                      // delete
        case 1: text.insert(pos, 1, static_cast<char>(rng.uniform(32, 126))); break;
        case 2: text[pos] = static_cast<char>(rng.uniform(32, 126)); break;
        case 3: text[pos] = static_cast<char>(rng.uniform(0, 255)); break;    // raw byte
        case 4: text.insert(pos, k_fragments[rng.index(std::size(k_fragments))]); break;
        default: { // duplicate a slice
            const std::size_t len =
                std::min<std::size_t>(rng.index(8) + 1, text.size() - pos);
            text.insert(pos, text.substr(pos, len));
            break;
        }
        }
    }
    // Keep the mutation on one line: embedded newlines would change how
    // many requests the stream contains, not the bytes of one request.
    std::replace(text.begin(), text.end(), '\n', ' ');
    return text;
}

std::vector<std::string> golden_corpus()
{
    std::vector<std::string> seeds;
    const std::filesystem::path dir =
        std::filesystem::path(TSG_SOURCE_DIR) / "tests" / "golden";
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".json") continue;
        std::ifstream in(entry.path());
        std::ostringstream text;
        text << in.rdbuf();
        std::string doc = text.str();
        std::replace(doc.begin(), doc.end(), '\n', ' ');
        seeds.push_back(std::move(doc));
    }
    std::sort(seeds.begin(), seeds.end()); // directory order is not stable
    return seeds;
}

/// Reference splitter: the trivially correct implementation the
/// incremental one must match byte for byte.
std::vector<std::string> reference_split(const std::string& stream)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (stream[i] != '\n') continue;
        std::string line = stream.substr(start, i - start);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        lines.push_back(std::move(line));
        start = i + 1;
    }
    return lines;
}

TEST(ProtocolFuzz, SplitterMatchesReferenceUnderAnyChunking)
{
    prng rng(0x5eedu);
    for (int round = 0; round < 300; ++round) {
        // Random bytes with a healthy newline density.
        const std::size_t size = rng.index(512) + 1;
        std::string stream;
        stream.reserve(size);
        for (std::size_t i = 0; i < size; ++i) {
            const int c = static_cast<int>(rng.uniform(0, 260));
            stream.push_back(c >= 256 ? '\n' : static_cast<char>(c));
        }

        const std::vector<std::string> expect = reference_split(stream);
        net::line_splitter splitter; // unbounded
        std::vector<std::string> got;
        std::size_t off = 0;
        while (off < stream.size()) {
            const std::size_t chunk =
                std::min<std::size_t>(rng.index(17) + 1, stream.size() - off);
            ASSERT_TRUE(splitter.feed(stream.data() + off, chunk, got));
            off += chunk;
        }
        ASSERT_EQ(got, expect) << "round " << round;
    }
}

TEST(ProtocolFuzz, SplitterLatchesOnOversizedLinesWithoutCrashing)
{
    prng rng(0xb0b0u);
    for (int round = 0; round < 100; ++round) {
        const std::size_t bound = rng.index(64) + 8;
        net::line_splitter splitter(bound);
        std::vector<std::string> out;
        bool alive = true;
        std::size_t fed = 0;
        while (alive && fed < 4 * bound + 64) {
            const std::string chunk(rng.index(9) + 1, 'x'); // no newline: one huge line
            alive = splitter.feed(chunk.data(), chunk.size(), out);
            fed += chunk.size();
        }
        EXPECT_FALSE(alive);
        EXPECT_TRUE(splitter.oversized());
        // Latched: everything afterwards is rejected, even a tiny feed.
        EXPECT_FALSE(splitter.feed("a\n", 2, out));
        EXPECT_TRUE(out.empty());
    }
}

TEST(ProtocolFuzz, RequestCodecNeverCrashesOnMutatedLines)
{
    std::vector<std::string> seeds;
    seeds.push_back(request_line(make_request(request_kind::analyze, "a")));
    seeds.push_back(request_line(make_request(request_kind::sweep, "s")));
    seeds.push_back(request_line(testing::plug_request("m")));
    {
        analysis_request edit = make_request(request_kind::edit, "e");
        edit.edits = json_parse(
            R"({"edits": [{"op": "set_delay", "arc": 0, "delay": "3/2"}]})", "edits");
        seeds.push_back(request_line(edit));
    }

    prng rng(0xc0dec5u);
    int parsed_ok = 0;
    for (int round = 0; round < 400; ++round) {
        const std::string line = mutate(seeds[rng.index(seeds.size())], rng);
        try {
            const analysis_request request = parse_analysis_request(line);
            ++parsed_ok;
            // Whatever parsed must re-serialize and re-parse to itself.
            EXPECT_EQ(parse_analysis_request(analysis_request_json(request).write()),
                      request);
        } catch (const error& e) {
            // The diagnostic must classify to a structured code.
            EXPECT_FALSE(classify_error(e.what(), "bad_request").code.empty());
        }
    }
    // Some mutations (string content, number tweaks) should still parse.
    EXPECT_GT(parsed_ok, 0);
}

TEST(ProtocolFuzz, ServerSurvivesMutatedGoldenStreams)
{
    const std::vector<std::string> seeds = golden_corpus();
    ASSERT_FALSE(seeds.empty());

    serve_harness harness;
    prng rng(0x50c4e7u);
    for (int round = 0; round < 60; ++round) {
        script_client client(harness.port());
        ASSERT_TRUE(client.connected()) << "round " << round;

        const int lines = static_cast<int>(rng.uniform(1, 4));
        std::string wire;
        for (int i = 0; i < lines; ++i)
            wire += mutate(seeds[rng.index(seeds.size())], rng) + "\n";

        // Adversarial chunking; a fifth of the clients hang up mid-stream
        // without ever reading.
        const std::size_t chunk = rng.index(wire.size()) + 1;
        if (rng.chance(0.2)) {
            (void)client.send_raw(wire.substr(0, wire.size() / 2));
            client.reset();
            continue;
        }
        if (!client.send_chunked(wire, chunk, std::chrono::milliseconds(0)))
            continue; // server may already have dropped a poisoned stream

        // Every line that reached the server intact is answered with a
        // structured response (a mutated payload document is not a valid
        // request, so ok responses do not occur).
        for (int i = 0; i < lines; ++i) {
            const auto response = client.read_line(std::chrono::milliseconds(2000));
            if (!response.has_value()) break; // blank line or poisoned tail
            const json_value doc = response_doc(*response);
            EXPECT_FALSE(response_ok(doc)) << "round " << round;
            EXPECT_FALSE(response_error_code(doc).empty()) << "round " << round;
        }
    }

    // After every round: the server still serves a well-formed client.
    script_client client(harness.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_line(request_line(make_request(request_kind::analyze, "alive"))));
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_TRUE(response_ok(response_doc(*line)));
}

} // namespace
} // namespace tsg
