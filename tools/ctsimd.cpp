// ctsimd: long-lived multi-tenant synthesis daemon (docs/serving.md).
//
// Reads JSON-lines synthesis requests from stdin (default) or a
// unix-domain socket and serves them concurrently off one shared
// worker pool with admission control; one response line per request,
// in completion order (correlate by "id").
//
//   echo '{"id":1,"bench":"r1"}' | ctsimd --workers 2
//   ctsimd --socket /tmp/ctsim.sock --workers 0 &
//
// Exit status: 0 clean shutdown (EOF or a "shutdown" request),
// 2 usage error (unknown flag, or a malformed or out-of-range flag
// value), 6 socket setup failure.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "delaylib/characterizer.h"
#include "serve/session.h"
#include "tools/cli_args.h"

namespace {

/// A megabyte amount: a finite number >= 0.
double nonneg_mb(const std::string& flag, const char* s) {
    const double v = ctsim::cli::number_arg(flag, s);
    if (v < 0.0) ctsim::cli::usage_error(flag, s, "a number >= 0");
    return v;
}

void usage() {
    std::printf(
        "usage: ctsimd [options]\n"
        "transport (one of):\n"
        "  (default)           read requests from stdin, respond on stdout\n"
        "  --socket PATH       listen on a unix-domain socket; each connection\n"
        "                      is a JSON-lines request stream\n"
        "options:\n"
        "  --workers N         worker threads (0 = one per hardware thread;\n"
        "                      default 1)\n"
        "  --queue N           admission queue depth; a full queue REJECTS with\n"
        "                      a typed resource_exhaustion error (default 64)\n"
        "  --memory-budget-mb MB  server-wide admission budget; 0 = unlimited\n"
        "                      (default 0)\n"
        "  --request-token-mb MB  admission charge per in-flight request\n"
        "                      (default 64)\n"
        "  --library FILE      delay library cache (default\n"
        "                      ctsim_delaylib_45nm.cache)\n"
        "  --cache-dir DIR     directory for relative cache files (also honors\n"
        "                      CTSIM_CACHE_DIR; without either a per-user cache\n"
        "                      directory is used -- never the CWD)\n"
        "  --fit-quick         characterize on the quick sweep grid (fast\n"
        "                      startup for smokes and sanitizer runs; lower\n"
        "                      fit fidelity than the default grid)\n"
        "protocol: one JSON object per line; see docs/serving.md.\n");
}

/// Owns one connection fd. The reader thread and every in-flight
/// job's emit lambda share it, so the fd closes only after the last
/// response for this tenant is written -- never while a queued job
/// could emit into a recycled fd number serving a different tenant.
class Conn {
  public:
    explicit Conn(int fd) : fd_(fd) {}
    ~Conn() { ::close(fd_); }
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    int fd() const { return fd_; }

    /// Write the whole buffer, retrying EINTR and short writes so a
    /// large response can't truncate mid-line and corrupt the
    /// JSON-lines framing. MSG_NOSIGNAL: a client that hung up costs
    /// an EPIPE (it loses its responses, nobody else's), not a
    /// SIGPIPE that would kill every tenant.
    void write_all(const char* data, std::size_t n) const {
        while (n > 0) {
            const ssize_t w = ::send(fd_, data, n, MSG_NOSIGNAL);
            if (w < 0) {
                if (errno == EINTR) continue;
                return;
            }
            data += w;
            n -= static_cast<std::size_t>(w);
        }
    }

  private:
    int fd_;
};

/// Serve one JSON-lines stream from `in`, emitting through `emit`.
/// Returns false when a shutdown request ended the session.
bool serve_stream(ctsim::serve::ServeSession& session, std::FILE* in,
                  const ctsim::serve::ServeSession::Emit& emit) {
    std::string line;
    int c;
    while ((c = std::fgetc(in)) != EOF) {
        if (c == '\n') {
            if (!session.handle_line(line, emit)) return false;
            line.clear();
        } else {
            line.push_back(static_cast<char>(c));
        }
    }
    if (!line.empty() && !session.handle_line(line, emit)) return false;
    return true;
}

int serve_socket(ctsim::serve::ServeSession& session, const std::string& path) {
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) {
        std::perror("ctsimd: socket");
        return 6;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "ctsimd: socket path too long: %s\n", path.c_str());
        ::close(listener);
        return 2;
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(path.c_str());  // stale socket from a previous run
    if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
        ::listen(listener, 16) < 0) {
        std::perror("ctsimd: bind/listen");
        ::close(listener);
        return 6;
    }
    std::fprintf(stderr, "ctsimd: listening on %s\n", path.c_str());

    // One reader thread per connection; they all feed the ONE shared
    // session (pool, budget, stats). A shutdown request on any
    // connection stops the accept loop AND shuts down the read side
    // of every open connection so readers blocked in fgetc() see EOF
    // and the join loop below actually finishes.
    std::vector<std::thread> readers;
    std::atomic<bool> shutting_down{false};
    std::mutex conns_mu;
    std::vector<std::weak_ptr<Conn>> conns;
    while (!shutting_down.load(std::memory_order_relaxed)) {
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) break;
        auto conn = std::make_shared<Conn>(fd);
        {
            std::lock_guard<std::mutex> lock(conns_mu);
            // Raced with a shutdown that already swept the registry:
            // cut this one off too instead of serving it forever.
            if (shutting_down.load(std::memory_order_relaxed))
                ::shutdown(conn->fd(), SHUT_RD);
            conns.erase(std::remove_if(conns.begin(), conns.end(),
                                       [](const std::weak_ptr<Conn>& w) {
                                           return w.expired();
                                       }),
                        conns.end());
            conns.push_back(conn);
        }
        readers.emplace_back([&session, &shutting_down, &conns_mu, &conns, conn,
                              listener] {
            // Read through a dup'd descriptor: fclose() below releases
            // only the reader's reference, while `conn` keeps the
            // socket open until the last in-flight job has emitted.
            const int rd = ::dup(conn->fd());
            std::FILE* in = rd >= 0 ? ::fdopen(rd, "r") : nullptr;
            if (in == nullptr) {
                if (rd >= 0) ::close(rd);
                return;
            }
            const auto emit = [conn](const std::string& line) {
                std::string out = line;
                out.push_back('\n');
                conn->write_all(out.data(), out.size());
            };
            if (!serve_stream(session, in, emit)) {
                shutting_down.store(true, std::memory_order_relaxed);
                ::shutdown(listener, SHUT_RDWR);  // unblock accept()
                std::lock_guard<std::mutex> lock(conns_mu);
                for (const std::weak_ptr<Conn>& w : conns)
                    if (const std::shared_ptr<Conn> c = w.lock())
                        ::shutdown(c->fd(), SHUT_RD);
            }
            std::fclose(in);
        });
    }
    for (std::thread& t : readers) t.join();
    ::close(listener);
    ::unlink(path.c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace ctsim;
    // A client that disconnects mid-response must cost a failed write,
    // not a SIGPIPE that terminates every tenant's daemon.
    std::signal(SIGPIPE, SIG_IGN);
    serve::ServeSession::Config cfg;
    std::string socket_path;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workers")
            cfg.workers = static_cast<int>(cli::integer_arg(a, next(), 0, INT_MAX));
        else if (a == "--queue")
            cfg.queue_capacity = static_cast<int>(cli::integer_arg(a, next(), 1, INT_MAX));
        else if (a == "--memory-budget-mb") cfg.memory_budget_mb = nonneg_mb(a, next());
        else if (a == "--request-token-mb") cfg.request_token_mb = nonneg_mb(a, next());
        else if (a == "--library") cfg.library_path = next();
        else if (a == "--cache-dir") setenv("CTSIM_CACHE_DIR", next(), 1);
        else if (a == "--fit-quick") {
            cfg.fit.grid = delaylib::SweepGrid::quick();
            cfg.fit.single_degree = 3;
            cfg.fit.branch_degree = 2;
            if (cfg.library_path == "ctsim_delaylib_45nm.cache")
                cfg.library_path = "ctsim_delaylib_quick.cache";
        } else if (a == "--socket") socket_path = next();
        else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", a.c_str());
            usage();
            return 2;
        }
    }
    serve::ServeSession session(cfg);
    std::fprintf(stderr, "ctsimd: serving with %d worker(s), queue %d\n",
                 session.workers(), cfg.queue_capacity);

    if (!socket_path.empty()) return serve_socket(session, socket_path);

    const auto emit = [](const std::string& line) {
        std::fputs(line.c_str(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);  // clients pipeline; don't sit on responses
    };
    serve_stream(session, stdin, emit);
    session.drain();
    return 0;
}
