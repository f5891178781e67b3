#include "loadgen.h"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common.h"
#include "server.h"

namespace tsgbench {

namespace {

/// The response line's "ok" flag, read from its fixed leading members
/// ({"id": "...", "ok": true, ...}) without parsing the payload.
bool line_ok(const std::string& line)
{
    const std::size_t at = line.find("\"ok\": ");
    return at != std::string::npos && at < 128 && line.compare(at + 6, 4, "true") == 0;
}

class tcp : public transport {
public:
    tcp(int port, unsigned clients)
    {
        for (unsigned c = 0; c < clients; ++c) {
            conn cn;
            cn.fd = connect_loopback(port);
            ::fcntl(cn.fd, F_SETFL, ::fcntl(cn.fd, F_GETFL) | O_NONBLOCK);
            conns_.push_back(std::move(cn));
        }
    }

    ~tcp() override
    {
        for (conn& c : conns_) ::close(c.fd);
    }

    double send(const request_spec& spec, std::size_t slot) override
    {
        conn& c = conns_.at(spec.client);
        const double t = now_s();
        c.out.append(spec.line).push_back('\n');
        c.slots.push_back(slot);
        flush(c);
        return t;
    }

    void wait(std::vector<completion>& out, double until_s) override
    {
        std::vector<pollfd> fds(conns_.size());
        for (;;) {
            for (std::size_t i = 0; i < conns_.size(); ++i) {
                fds[i].fd = conns_[i].fd;
                fds[i].events = static_cast<short>(
                    POLLIN | (conns_[i].out_off < conns_[i].out.size() ? POLLOUT : 0));
                fds[i].revents = 0;
            }
            const double left = until_s - now_s();
            const int timeout_ms = left <= 0 ? 0 : static_cast<int>(std::ceil(left * 1000.0));
            const int r = ::poll(fds.data(), fds.size(), timeout_ms);
            if (r < 0 && errno != EINTR)
                throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
            for (std::size_t i = 0; r > 0 && i < conns_.size(); ++i) {
                if (fds[i].revents & POLLOUT) flush(conns_[i]);
                if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
                    receive(static_cast<unsigned>(i), out);
            }
            if (!out.empty() || now_s() >= until_s) return;
        }
    }

private:
    struct conn {
        int fd = -1;
        std::string out;
        std::size_t out_off = 0;
        std::string in;
        std::deque<std::size_t> slots; ///< unanswered requests, in send order
    };

    static void flush(conn& c)
    {
        while (c.out_off < c.out.size()) {
            const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                                     MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n < 0) {
                if (errno == EINTR) continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK) return;
                throw std::runtime_error(std::string("send: ") + std::strerror(errno));
            }
            c.out_off += static_cast<std::size_t>(n);
        }
        c.out.clear();
        c.out_off = 0;
    }

    void receive(unsigned client, std::vector<completion>& out)
    {
        conn& c = conns_[client];
        char buf[1 << 16];
        for (;;) {
            const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
            if (n < 0) {
                if (errno == EINTR) continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK) break;
                throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
            }
            if (n == 0) throw std::runtime_error("tsg_serve closed a client connection");
            const std::size_t scan_from = c.in.size();
            c.in.append(buf, static_cast<std::size_t>(n));
            if (c.in.find('\n', scan_from) == std::string::npos) continue;
            const double t = now_s();
            std::size_t begin = 0;
            for (std::size_t nl; (nl = c.in.find('\n', begin)) != std::string::npos;
                 begin = nl + 1) {
                if (c.slots.empty()) throw std::runtime_error("unsolicited response line");
                completion done;
                done.client = client;
                done.slot = c.slots.front();
                c.slots.pop_front();
                done.done_s = t;
                done.response = c.in.substr(begin, nl - begin);
                done.ok = line_ok(done.response);
                out.push_back(std::move(done));
            }
            c.in.erase(0, begin);
        }
    }

    std::vector<conn> conns_;
};

class inprocess : public transport {
public:
    explicit inprocess(tsg::analysis_service& service) : service_(service) {}

    ~inprocess() override
    {
        // Callbacks reference this object: outlive every one of them.
        std::unique_lock<std::mutex> lk(mutex_);
        cv_.wait(lk, [this] { return outstanding_ == 0; });
    }

    double send(const request_spec& spec, std::size_t slot) override
    {
        tsg::analysis_request request = tsg::parse_analysis_request(spec.line);
        const unsigned client = spec.client;
        {
            std::lock_guard<std::mutex> lk(mutex_);
            ++outstanding_;
        }
        const double t = now_s();
        const std::optional<tsg::api_error> refused = service_.submit_async(
            std::move(request),
            [this, client, slot](tsg::analysis_response response) {
                deliver(client, slot, response.ok);
            });
        if (refused) deliver(client, slot, false);
        return t;
    }

    void wait(std::vector<completion>& out, double until_s) override
    {
        std::unique_lock<std::mutex> lk(mutex_);
        cv_.wait_for(lk, std::chrono::duration<double>(std::max(0.0, until_s - now_s())),
                     [this] { return !done_.empty(); });
        out.insert(out.end(), std::make_move_iterator(done_.begin()),
                   std::make_move_iterator(done_.end()));
        done_.clear();
    }

private:
    void deliver(unsigned client, std::size_t slot, bool ok)
    {
        completion c;
        c.client = client;
        c.slot = slot;
        c.done_s = now_s();
        c.ok = ok;
        std::lock_guard<std::mutex> lk(mutex_);
        done_.push_back(std::move(c));
        --outstanding_;
        cv_.notify_all();
    }

    tsg::analysis_service& service_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<completion> done_;
    std::size_t outstanding_ = 0;
};

} // namespace

std::unique_ptr<transport> tcp_transport(int port, unsigned clients)
{
    return std::make_unique<tcp>(port, clients);
}

std::unique_ptr<transport> inprocess_transport(tsg::analysis_service& service)
{
    return std::make_unique<inprocess>(service);
}

loop_result run_closed_loop(const workload& w, transport& t, const loop_plan& plan,
                            const std::function<void(std::size_t)>& on_edge)
{
    loop_result r;
    r.clients.resize(w.clients);
    std::vector<std::uint64_t> next_index(w.clients, 0);
    const double start = now_s();
    const bool timed = plan.max_requests == 0;
    // Planned edges of the timed window and its equal sub-windows; each is
    // recorded as observed (the first wake-up at or past it).
    std::vector<double> planned;
    if (timed)
        for (std::size_t k = 0; k <= plan.sub_windows; ++k)
            planned.push_back(start + plan.warmup_s +
                              plan.window_s * static_cast<double>(k) /
                                  static_cast<double>(plan.sub_windows));
    const double send_until = timed ? planned.back() : 0.0;

    const auto may_send = [&](unsigned c) {
        return timed ? now_s() < send_until : next_index[c] < plan.max_requests;
    };
    std::uint64_t outstanding = 0;
    const auto issue = [&](unsigned c) {
        exchange e;
        e.spec = w.next(c, next_index[c]++);
        r.clients[c].push_back(std::move(e));
        exchange& sent = r.clients[c].back();
        sent.sent_s = t.send(sent.spec, r.clients[c].size() - 1);
        ++r.attempted;
        ++outstanding;
    };
    for (unsigned c = 0; c < w.clients; ++c)
        for (unsigned k = 0; k < w.window && may_send(c); ++k) issue(c);

    const double drain_deadline = (timed ? send_until : start) + plan.drain_s;
    const auto observe_edges = [&] {
        while (r.edges.size() < planned.size() && now_s() >= planned[r.edges.size()]) {
            r.edges.push_back(now_s());
            if (on_edge) on_edge(r.edges.size() - 1);
        }
    };
    std::vector<completion> got;
    while (outstanding > 0) {
        observe_edges();
        if (now_s() > drain_deadline) {
            r.unanswered = outstanding;
            break;
        }
        got.clear();
        const double next_edge =
            r.edges.size() < planned.size() ? planned[r.edges.size()] : drain_deadline;
        t.wait(got, std::min(next_edge, drain_deadline));
        for (completion& g : got) {
            exchange& e = r.clients[g.client].at(g.slot);
            e.done_s = g.done_s;
            e.response = std::move(g.response);
            e.ok = g.ok;
            --outstanding;
            if (may_send(g.client)) issue(g.client);
        }
    }
    observe_edges();
    return r;
}

} // namespace tsgbench
