#include "net/server.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>

namespace kairos::net {

/// The poll loop's wake-up: an eventfd the loop always watches. It is closed
/// only when the last owner — the server or a Wake handed out — lets go, so
/// a Wake never writes a closed (or reused) descriptor. Should eventfd()
/// fail, fd_ stays -1: poll() ignores it, write() rejects it, and the loop
/// falls back to its timeout.
class WakeFd {
 public:
  WakeFd() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;
  ~WakeFd() {
    if (fd_ >= 0) ::close(fd_);
  }

  int fd() const { return fd_; }
  void notify() const {
    const std::uint64_t one = 1;
    // Only fails when the counter is saturated — the loop is awake then.
    [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof(one));
  }
  void drain() const {
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t n = ::read(fd_, &count, sizeof(count));
  }

 private:
  const int fd_;
};

namespace {

using util::Error;

/// The idle fallback: how long a busy connection waits for its tick when
/// nothing wakes the loop.
constexpr int kPollTimeoutMs = 20;

/// The wake of the server whose loop runs on this thread (see
/// Server::current_wake()).
thread_local std::shared_ptr<const WakeFd> t_loop_wake;

void set_nonblocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

/// True when a first line announces HTTP framing ("GET /x HTTP/1.1").
bool looks_like_http(const std::string& line) {
  static const char* kMethods[] = {"GET ", "HEAD ", "POST ", "PUT ",
                                   "DELETE "};
  for (const char* method : kMethods) {
    if (line.rfind(method, 0) == 0) {
      return line.find(" HTTP/") != std::string::npos;
    }
  }
  return false;
}

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

/// Status line, headers and (unless HEAD) body of an HTTP-lite response.
std::string render_response(const HttpResponse& response, bool head_only) {
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " +
                    status_reason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  if (!head_only) out += response.body;
  return out;
}

}  // namespace

Server::Server(Handler& handler)
    : handler_(handler), wake_(std::make_shared<const WakeFd>()) {}

Server::~Server() { stop(); }

Server::Wake Server::current_wake() {
  if (!t_loop_wake) return {};
  return [wake = t_loop_wake] { wake->notify(); };
}

util::VoidResult Server::listen(const Address& address) {
  if (running_.load(std::memory_order_relaxed)) {
    return Error("listen() must be called before start()");
  }
  int fd = -1;
  if (address.kind == Address::Kind::kUnix) {
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    if (address.path.size() >= sizeof(sun.sun_path)) {
      return Error("unix socket path too long: " + address.path);
    }
    std::strncpy(sun.sun_path, address.path.c_str(), sizeof(sun.sun_path) - 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Error(std::string("socket: ") + std::strerror(errno));
    ::unlink(address.path.c_str());  // stale socket from a previous run
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) != 0) {
      const std::string message =
          "bind " + address.path + ": " + std::strerror(errno);
      ::close(fd);
      return Error(message);
    }
    unix_paths_.push_back(address.path);
  } else {
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(static_cast<std::uint16_t>(address.port));
    if (::inet_pton(AF_INET, address.host.c_str(), &sin.sin_addr) != 1) {
      return Error("not a numeric IPv4 address: " + address.host);
    }
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Error(std::string("socket: ") + std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) != 0) {
      const std::string message =
          "bind " + to_string(address) + ": " + std::strerror(errno);
      ::close(fd);
      return Error(message);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port_ = ntohs(bound.sin_port);
  }
  if (::listen(fd, 64) != 0) {
    const std::string message =
        std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return Error(message);
  }
  set_nonblocking(fd);
  listen_fds_.push_back(fd);
  return {};
}

void Server::start() {
  if (running_.exchange(true)) return;
  stopping_.store(false);
  thread_ = std::thread([this] { loop(); });
}

void Server::stop() {
  if (running_.load(std::memory_order_relaxed)) {
    stopping_.store(true);
    wake_->notify();
    if (thread_.joinable()) thread_.join();
    running_.store(false);
  }
  for (auto& conn : conns_) {
    handler_.on_close(*conn);
    if (conn->fd_ >= 0) ::close(conn->fd_);
  }
  conns_.clear();
  for (const int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
  for (const std::string& path : unix_paths_) ::unlink(path.c_str());
  unix_paths_.clear();
  bound_port_ = 0;
}

void Server::dispatch_http(Conn& conn) {
  // Request line + headers end at the first blank line; clients that mix
  // bare "\n" with "\r\n" produce the "\n\r\n" form.
  auto end = conn.inbuf_.find("\r\n\r\n", conn.in_pos_);
  std::size_t skip = 4;
  if (end == std::string::npos) {
    end = conn.inbuf_.find("\n\r\n", conn.in_pos_);
    skip = 3;
  }
  if (end == std::string::npos) {
    end = conn.inbuf_.find("\n\n", conn.in_pos_);
    skip = 2;
  }
  if (end == std::string::npos) return;  // headers incomplete, keep reading

  const std::string head =
      conn.inbuf_.substr(conn.in_pos_, end - conn.in_pos_);
  conn.in_pos_ = end + skip;
  conn.http_dispatched_ = true;

  HttpRequest request;
  const auto line_end = head.find('\n');
  std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.pop_back();
  }
  const auto first_space = request_line.find(' ');
  const auto second_space = request_line.find(' ', first_space + 1);
  if (first_space != std::string::npos && second_space != std::string::npos) {
    request.method = request_line.substr(0, first_space);
    request.target =
        request_line.substr(first_space + 1, second_space - first_space - 1);
  }

  const HttpResponse response = handler_.on_http(request);
  conn.send(render_response(response, request.method == "HEAD"));
  conn.close_after_write();
}

void Server::reject_oversized(Conn& conn) {
  const std::string limit = std::to_string(kMaxPendingInput);
  if (conn.http_) {
    HttpResponse response;
    response.status = 431;
    response.body = "request headers exceed " + limit + " bytes\n";
    conn.send(render_response(response, false));
  } else {
    conn.send_line("error line exceeds " + limit + " bytes");
  }
  conn.inbuf_.clear();
  conn.in_pos_ = 0;
  conn.close_after_write();
}

void Server::read_input(Conn& conn, bool& dead) {
  // Stop once the pending input passes the cap (the connection is then
  // rejected, or — while busy — read again after it drains), and spend at
  // most about a cap's worth of reading per poll iteration, so one fast
  // sender can neither grow the buffer nor monopolise the poll thread.
  std::size_t read = 0;
  while (read <= kMaxPendingInput &&
         conn.pending_input() <= kMaxPendingInput) {
    char chunk[4096];
    const ssize_t n = ::recv(conn.fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      read += static_cast<std::size_t>(n);
      // Once closing, nothing will dispatch further input: drop it.
      if (!conn.closing_) {
        conn.inbuf_.append(chunk, static_cast<std::size_t>(n));
      }
      continue;
    }
    if (n == 0) dead = true;  // peer closed; flush what we owe, then drop
    return;                   // EAGAIN or error
  }
}

void Server::handle_input(Conn& conn) {
  if (conn.http_) {
    if (!conn.http_dispatched_) dispatch_http(conn);
  } else {
    // Dispatch buffered complete lines in order; pause while the handler has
    // a reply in flight (busy) so command order is preserved, and while the
    // client leaves too many replies unread (see "Bounded output").
    while (!conn.busy_ && !conn.closing_) {
      if (conn.outbuf_.size() > kMaxPendingOutput) {
        conn.output_paused_ = true;
        break;
      }
      const auto newline = conn.inbuf_.find('\n', conn.in_pos_);
      if (newline == std::string::npos) break;
      const std::size_t start = conn.in_pos_;
      conn.in_pos_ = newline + 1;
      std::string line = conn.inbuf_.substr(start, newline - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      // The first line decides the framing for the whole connection.
      if (!conn.saw_line_ && looks_like_http(line)) {
        conn.http_ = true;
        conn.in_pos_ = start;  // the HTTP parser re-reads the request line
        dispatch_http(conn);
        break;
      }
      conn.saw_line_ = true;
      handler_.on_line(conn, line);
    }
  }
  // Drop the consumed prefix once it is at least half the buffer, so every
  // byte is moved O(1) times however many lines it arrived with.
  if (conn.in_pos_ == conn.inbuf_.size()) {
    conn.inbuf_.clear();
    conn.in_pos_ = 0;
  } else if (conn.in_pos_ >= conn.inbuf_.size() / 2) {
    conn.inbuf_.erase(0, conn.in_pos_);
    conn.in_pos_ = 0;
  }
  // Over the cap with nothing left to dispatch: a line without its '\n',
  // or HTTP headers without their blank line.
  if (!conn.busy_ && !conn.closing_ && !conn.output_paused_ &&
      conn.pending_input() > kMaxPendingInput) {
    reject_oversized(conn);
  }
}

void Server::loop() {
  t_loop_wake = wake_;
  std::vector<pollfd> pfds;
  while (!stopping_.load(std::memory_order_relaxed)) {
    pfds.clear();
    pfds.push_back({wake_->fd(), POLLIN, 0});
    for (const int fd : listen_fds_) pfds.push_back({fd, POLLIN, 0});
    for (const auto& conn : conns_) {
      // Not read while its input is at the cap (a busy connection catching
      // up) or its unread replies are (a client not reading).
      const bool full = conn->pending_input() > kMaxPendingInput ||
                        conn->outbuf_.size() > kMaxPendingOutput;
      short events = full ? 0 : POLLIN;
      if (!conn->outbuf_.empty()) events |= POLLOUT;
      pfds.push_back({conn->fd_, events, 0});
    }

    ::poll(pfds.data(), pfds.size(), kPollTimeoutMs);
    if (pfds[0].revents & POLLIN) wake_->drain();

    // Accept new connections.
    for (std::size_t i = 0; i < listen_fds_.size(); ++i) {
      if (!(pfds[1 + i].revents & POLLIN)) continue;
      for (;;) {
        const int fd = ::accept(listen_fds_[i], nullptr, nullptr);
        if (fd < 0) break;
        set_nonblocking(fd);
        // Fails harmlessly on Unix-domain sockets, which have no Nagle.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_unique<Conn>();
        conn->fd_ = fd;
        conn->id_ = next_conn_id_++;
        conns_.push_back(std::move(conn));
      }
    }

    // Read, dispatch, write, tick — per connection.
    const std::size_t first_conn = 1 + listen_fds_.size();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = *conns_[i];
      bool dead = false;
      // New connections accepted this iteration have no pollfd yet.
      const bool polled = first_conn + i < pfds.size();
      if (polled && (pfds[first_conn + i].revents & (POLLIN | POLLHUP))) {
        read_input(conn, dead);
        handle_input(conn);
      }
      if (conn.busy_) {
        handler_.on_tick(conn);
        if (!conn.busy_) handle_input(conn);  // resume buffered commands
      }
      if (!conn.outbuf_.empty()) {
        const ssize_t n = ::send(conn.fd_, conn.outbuf_.data(),
                                 conn.outbuf_.size(), MSG_NOSIGNAL);
        if (n > 0) {
          conn.outbuf_.erase(0, static_cast<std::size_t>(n));
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          dead = true;
        }
      }
      if (conn.output_paused_ && conn.outbuf_.size() <= kMaxPendingOutput) {
        conn.output_paused_ = false;
        handle_input(conn);  // the client read its replies: resume
      }
      // Close once the reason to stay is gone: nothing left to write and no
      // reply in flight. A dead peer therefore still receives queued output
      // this iteration, and a busy connection's parked replies are never
      // dropped mid-batch.
      if ((conn.closing_ || dead) && conn.outbuf_.empty() && !conn.busy_) {
        handler_.on_close(conn);
        ::close(conn.fd_);
        conn.fd_ = -1;
      }
    }
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Conn>& c) {
                                  return c->fd_ < 0;
                                }),
                 conns_.end());
  }
  t_loop_wake.reset();
}

}  // namespace kairos::net
