// The tsg_serve child process: spawn on an ephemeral port, readiness by
// `health`, /proc accounting, and a bounded stop (SIGTERM drain, then
// SIGKILL) that always reaps the child.
#ifndef TSGBENCH_SERVER_H
#define TSGBENCH_SERVER_H

#include <string>
#include <sys/types.h>
#include <vector>

namespace tsgbench {

class server_process {
public:
    /// Starts `binary --port 0 <args>` and blocks until it listens and a
    /// `health` request answers status "ok" (throws after 30 s).
    server_process(const std::string& binary, const std::vector<std::string>& args);
    ~server_process();

    server_process(const server_process&) = delete;
    server_process& operator=(const server_process&) = delete;

    [[nodiscard]] int port() const { return port_; }
    /// Seconds from fork() to the first ok `health` answer.
    [[nodiscard]] double setup_seconds() const { return setup_s_; }

    /// utime + stime of the server process, in seconds.
    [[nodiscard]] double cpu_seconds() const;
    /// Peak resident set (VmHWM) in MiB.
    [[nodiscard]] double peak_rss_mb() const;

    /// Sends `line` on a fresh connection and returns the response line.
    [[nodiscard]] std::string request(const std::string& line) const;

    /// SIGTERM, wait up to 10 s for the drain, then SIGKILL; reaps the
    /// child.  Idempotent.
    void stop();

private:
    pid_t pid_ = -1;
    int stderr_fd_ = -1;
    int port_ = 0;
    double setup_s_ = 0.0;
};

/// A blocking loopback TCP connection carrying NDJSON lines.
int connect_loopback(int port);

} // namespace tsgbench

#endif // TSGBENCH_SERVER_H
