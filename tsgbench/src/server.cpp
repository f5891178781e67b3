#include "server.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.h"

namespace tsgbench {

using tsg::json_value;

namespace {

void write_all(int fd, const std::string& data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) throw std::runtime_error(std::string("send: ") + std::strerror(errno));
        off += static_cast<std::size_t>(n);
    }
}

std::string read_line(int fd)
{
    std::string line;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) throw std::runtime_error("connection closed before a response line");
        line.append(buf, static_cast<std::size_t>(n));
        const std::size_t nl = line.find('\n');
        if (nl != std::string::npos) return line.substr(0, nl);
    }
}

/// Reads the daemon's stderr until its "listening on 127.0.0.1:<port>"
/// banner; returns the port.
int await_port(int fd, pid_t pid)
{
    const std::string banner = "listening on 127.0.0.1:";
    std::string text;
    const double deadline = now_s() + 30.0;
    while (now_s() < deadline) {
        pollfd p{fd, POLLIN, 0};
        const int r = ::poll(&p, 1, 100);
        if (r < 0 && errno != EINTR) break;
        if (r > 0) {
            char buf[1024];
            const ssize_t n = ::read(fd, buf, sizeof buf);
            if (n <= 0) break;
            text.append(buf, static_cast<std::size_t>(n));
            const std::size_t at = text.find(banner);
            if (at != std::string::npos && text.find('\n', at) != std::string::npos)
                return std::stoi(text.substr(at + banner.size()));
        }
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            throw std::runtime_error("tsg_serve exited during start-up: " + text);
    }
    throw std::runtime_error("tsg_serve did not report its port: " + text);
}

} // namespace

int connect_loopback(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error(std::string("connect: ") + std::strerror(err));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

server_process::server_process(const std::string& binary,
                               const std::vector<std::string>& args)
{
    std::vector<std::string> argv_s = {binary, "--port", "0"};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    const double t0 = now_s();
    pid_ = ::fork();
    if (pid_ < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    }
    if (pid_ == 0) {
        // The daemon never outlives the benchmark, even if it crashes.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        ::dup2(fds[1], STDERR_FILENO);
        const int null_fd = ::open("/dev/null", O_WRONLY);
        if (null_fd >= 0) ::dup2(null_fd, STDOUT_FILENO);
        ::execv(binary.c_str(), argv.data());
        ::_exit(127);
    }
    ::close(fds[1]);
    stderr_fd_ = fds[0];
    try {
        port_ = await_port(stderr_fd_, pid_);
        const json_value health = tsg::json_parse(
            request(R"({"api_version": 1, "id": "health", "kind": "health"})"));
        if (member(health, "ok").k != json_value::kind::bool_v || !member(health, "ok").boolean ||
            member(member(health, "payload"), "status").text != "ok")
            throw std::runtime_error("tsg_serve health check failed");
    } catch (...) {
        stop();
        throw;
    }
    setup_s_ = now_s() - t0;
}

server_process::~server_process() { stop(); }

std::string server_process::request(const std::string& line) const
{
    const int fd = connect_loopback(port_);
    try {
        write_all(fd, line + "\n");
        std::string response = read_line(fd);
        ::close(fd);
        return response;
    } catch (...) {
        ::close(fd);
        throw;
    }
}

double server_process::cpu_seconds() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) throw std::runtime_error("unreadable /proc/<pid>/stat");
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double utime = 0.0;
    double stime = 0.0;
    // Fields after the command name start at #3 (state); utime is #14.
    for (int i = 3; i <= 15 && fields >> field; ++i) {
        if (i == 14) utime = std::stod(field);
        if (i == 15) stime = std::stod(field);
    }
    return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double server_process::peak_rss_mb() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/<pid>/status");
}

void server_process::stop()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGTERM);
        int status = 0;
        const double deadline = now_s() + 10.0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (now_s() > deadline) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
    }
    if (stderr_fd_ >= 0) {
        ::close(stderr_fd_);
        stderr_fd_ = -1;
    }
}

} // namespace tsgbench
