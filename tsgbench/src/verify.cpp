#include "verify.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"

namespace tsgbench {

using namespace tsg;

namespace {

/// Removes the aggregate.engine accounting block from a canonical compact
/// batch payload: the flat object `"engine": {...}, ` (batch payloads
/// carry exactly one "engine" key, inside "aggregate").
std::string strip_engine_block(const std::string& payload)
{
    const std::size_t at = payload.find("\"engine\": {");
    if (at == std::string::npos) return payload;
    std::size_t end = payload.find('}', at);
    if (end == std::string::npos) return payload;
    end += 1;
    if (payload.compare(end, 2, ", ") == 0) end += 2;
    return payload.substr(0, at) + payload.substr(end);
}

std::uint64_t scenario_count(const analysis_request& request, const json_value& payload)
{
    if (request.kind == request_kind::analyze) return 1;
    if (const json_value* a = payload.find("aggregate")) return count_at(*a, {"scenarios"});
    if (const json_value* s = payload.find("statistics")) return count_at(*s, {"samples"});
    return count_at(payload, {"optimize", "evaluations"});
}

/// One unit of verification work: a client's exchanges [begin, end).
/// Workloads with edits verify each client in one sequential task, since
/// the expected payloads follow the client's own chain of design states.
struct task {
    unsigned client = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
};

class verifier {
public:
    verifier(const workload& w, const loop_result& run) : w_(w), run_(run)
    {
        result_.facts.resize(run.clients.size());
        bool edits = false;
        for (std::size_t c = 0; c < run.clients.size(); ++c) {
            result_.facts[c].resize(run.clients[c].size());
            for (const exchange& e : run.clients[c])
                edits = edits || e.spec.request.kind == request_kind::edit;
        }
        shared_cache_ = !edits;
        for (unsigned c = 0; c < run.clients.size(); ++c) {
            const std::size_t n = run.clients[c].size();
            const std::size_t chunk = edits ? std::max<std::size_t>(n, 1) : 32;
            for (std::size_t b = 0; b < n; b += chunk)
                tasks_.push_back({c, b, std::min(n, b + chunk)});
        }
    }

    verification run(unsigned threads)
    {
        std::vector<std::thread> pool;
        for (unsigned i = 0; i < std::max(1u, threads); ++i)
            pool.emplace_back([this] { drain_tasks(); });
        for (std::thread& t : pool) t.join();
        for (const auto& client : result_.facts)
            for (const response_facts& f : client) {
                if (!f.ok) ++result_.failed;
                else if (!f.matched) ++result_.mismatches;
            }
        return std::move(result_);
    }

private:
    void drain_tasks()
    {
        for (std::size_t i; (i = next_task_.fetch_add(1)) < tasks_.size();) {
            try {
                verify_task(tasks_[i]);
            } catch (const std::exception& e) {
                note("verification of client " + std::to_string(tasks_[i].client) +
                     " failed: " + e.what());
            }
        }
    }

    void note(const std::string& text)
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (result_.notes.size() < 8) result_.notes.push_back(text);
    }

    const signal_graph& registered(const std::string& id) const
    {
        for (const auto& [name, sg] : w_.designs)
            if (name == id) return sg;
        throw std::runtime_error("unregistered design '" + id + "'");
    }

    /// An expected payload: the parsed document and its canonical compact
    /// text (what the daemon's codec puts on the wire).
    struct expectation {
        std::shared_ptr<const json_value> doc;
        std::string text;

        explicit expectation(const std::string& pretty)
            : doc(std::make_shared<const json_value>(json_parse(pretty, "payload"))),
              text(doc->write())
        {
        }
    };

    /// Expected payload of a read request on `state`.
    expectation expected_read(const analysis_request& request, const signal_graph& state)
    {
        std::string key;
        if (shared_cache_) {
            analysis_request anonymous = request;
            anonymous.id.clear();
            key = analysis_request_json(anonymous).write();
            std::lock_guard<std::mutex> lk(mutex_);
            const auto it = cache_.find(key);
            if (it != cache_.end()) return it->second;
        }
        const analysis_response response = execute_request(request, state);
        if (!response.ok)
            throw std::runtime_error("in-process execution failed: " + response.error.code +
                                     ": " + response.error.message);
        expectation expected(response.payload);
        if (shared_cache_) {
            std::lock_guard<std::mutex> lk(mutex_);
            cache_.emplace(std::move(key), expected);
        }
        return expected;
    }

    /// Expected payload of an edit on `state`, which then advances to the
    /// edited graph — the version the service commits.
    static expectation expected_edit(const analysis_request& request, signal_graph& state)
    {
        incremental_engine engine(state);
        expectation expected(execute_edit_payload(request, engine));
        state = engine.graph();
        return expected;
    }

    void verify_task(const task& t)
    {
        // Interactive clients each own their design, so a sequential task
        // can follow the design's version chain exactly as the service
        // commits it: the incremental engine's edited graph.
        std::map<std::string, signal_graph> states;
        for (std::size_t i = t.begin; i < t.end; ++i) {
            const exchange& e = run_.clients[t.client][i];
            response_facts& f = result_.facts[t.client][i];
            const analysis_request& request = e.spec.request;
            auto state = states.find(request.design.id);
            if (state == states.end())
                state = states.emplace(request.design.id, registered(request.design.id)).first;

            expectation expected = request.kind == request_kind::edit
                                       ? expected_edit(request, state->second)
                                       : expected_read(request, state->second);

            if (e.response.empty()) {
                note(request.id + ": no response");
                continue;
            }
            // The response line is {"id", "ok", ..., "coalesced", "payload"}
            // with the payload last: split it off instead of parsing it.
            const std::size_t at = e.response.find(", \"payload\": ");
            const json_value head = json_parse(
                (at == std::string::npos ? e.response.substr(0, e.response.size() - 1)
                                         : e.response.substr(0, at)) + "}",
                "response");
            const json_value* ok = head.find("ok");
            if (member(head, "id").text != request.id || ok == nullptr ||
                ok->k != json_value::kind::bool_v || !ok->boolean ||
                at == std::string::npos) {
                note(request.id + ": failed response " + e.response.substr(0, 300));
                continue;
            }
            f.ok = true;
            f.coalesced = member(head, "coalesced").boolean;
            std::string payload = e.response.substr(at + 13, e.response.size() - at - 14);
            if (batch_kind(request) && (f.coalesced || e.spec.repeat)) {
                payload = strip_engine_block(payload);
                expected.text = strip_engine_block(expected.text);
            }
            f.matched = payload == expected.text;
            if (!f.matched) {
                note(request.id + ": payload differs from execute_request");
                continue;
            }
            // Equal bytes: the counts the expected document reports are the
            // response's own.
            const json_value& doc = *expected.doc;
            f.scenarios = scenario_count(request, doc);
            f.optimize_evaluations = count_at(doc, {"optimize", "evaluations"});
            f.topk_solves = count_at(doc, {"topk", "solves"});
            f.stats_samples = count_at(doc, {"statistics", "samples"});
            f.warm_states_kept = count_at(doc, {"engine", "warm_states_kept"});
        }
    }

    const workload& w_;
    const loop_result& run_;
    std::vector<task> tasks_;
    std::atomic<std::size_t> next_task_{0};
    bool shared_cache_ = false;
    std::mutex mutex_; ///< guards cache_ and result_.notes
    std::map<std::string, expectation> cache_;
    verification result_;
};

} // namespace

verification verify_run(const workload& w, const loop_result& run, unsigned threads)
{
    return verifier(w, run).run(threads);
}

} // namespace tsgbench
