// A small poll(2)-driven socket server: one background thread multiplexing
// every listener (TCP and/or Unix-domain) and every accepted connection,
// non-blocking I/O throughout, no thread per connection.
//
// Two framings share one listener, decided by the *first line* a connection
// sends:
//
//   "GET /metrics HTTP/1.1"  -> HTTP-lite: headers are consumed up to the
//                               blank line, Handler::on_http() produces the
//                               response, the server writes status line +
//                               Content-Length and closes (HTTP/1.0 style —
//                               exactly what curl / Prometheus / kubelet
//                               probes expect from a scrape endpoint).
//   anything else            -> newline-delimited line protocol: each line
//                               is handed to Handler::on_line(), which
//                               writes replies through the Conn.
//
// Slow-work contract: handlers run on the poll thread, so they must not
// block (a blocked handler stalls every other connection's scrape). A
// handler whose reply depends on asynchronous work (admission futures)
// marks the connection *busy* instead: the server stops dispatching further
// lines from that connection (input stays buffered, preserving command
// order) and calls Handler::on_tick() for it on every poll iteration until
// the handler clears the flag. To get that tick as soon as the work is
// done, the handler takes Server::current_wake() inside on_line() and hands
// it to the work, which calls it once its result is ready: the wake makes
// the poll loop run an iteration at once. Without a wake a busy connection
// is still ticked on the next socket event or poll timeout (20 ms), the
// idle fallback. This is how `--serve --listen` sends each verdict as soon
// as it settles while it keeps answering /metrics.
//
// Bounded input: a connection holds at most Server::kMaxPendingInput bytes
// of undispatched input. A line that outgrows it without its '\n' (or HTTP
// headers without their blank line) gets one error reply — an "error" line,
// or HTTP 431 — and the connection is closed; a busy connection whose
// buffered commands reach the cap is simply not read until it catches up.
// Consumed input is skipped by offset and compacted in bulk, so dispatching
// n buffered lines costs O(total bytes), not O(n * buffer).
//
// Bounded output: while a connection's unsent replies exceed
// Server::kMaxPendingOutput bytes — a client that sends commands without
// reading the answers — no further lines are dispatched and the connection
// is not read; both resume once the client drains the replies.
//
// TCP connections are accepted with TCP_NODELAY: a command's replies are
// written as they become ready (e.g. "queued", then the verdict), and Nagle
// would hold the later ones until the client acknowledged the first.
//
// Shutdown: stop() (or destruction) joins the poll thread and closes every
// socket; Unix-domain socket paths are unlinked.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/net.hpp"
#include "util/result.hpp"

namespace kairos::net {

class Server;
class WakeFd;

/// One accepted connection, as seen by the Handler. Only valid inside
/// handler callbacks (the poll thread owns it).
class Conn {
 public:
  /// Queues bytes for writing (flushed by the poll loop).
  void send(const std::string& text) { outbuf_ += text; }
  void send_line(const std::string& line) {
    outbuf_ += line;
    outbuf_ += '\n';
  }
  /// Bytes queued but not yet written to the peer.
  std::size_t pending_output() const { return outbuf_.size(); }
  /// Close once the queued output has drained.
  void close_after_write() { closing_ = true; }

  /// While busy, no further input lines are dispatched from this connection
  /// and on_tick() fires every poll iteration. See the slow-work contract.
  void set_busy(bool busy) { busy_ = busy; }
  bool busy() const { return busy_; }

  /// Handler-owned per-connection state (e.g. a command session).
  std::shared_ptr<void> user;

  /// Dense id, unique over the server's lifetime (log correlation).
  std::uint64_t id() const { return id_; }

 private:
  friend class Server;
  int fd_ = -1;
  std::uint64_t id_ = 0;
  std::string inbuf_;
  std::size_t in_pos_ = 0;  ///< inbuf_ bytes already consumed
  std::string outbuf_;
  bool busy_ = false;
  bool closing_ = false;
  bool http_ = false;          ///< first line looked like an HTTP request
  bool http_dispatched_ = false;
  bool saw_line_ = false;      ///< a protocol line was already dispatched
  bool output_paused_ = false; ///< dispatch stopped at kMaxPendingOutput

  std::size_t pending_input() const { return inbuf_.size() - in_pos_; }
};

class Server {
 public:
  struct Handler {
    virtual ~Handler() = default;
    virtual HttpResponse on_http(const HttpRequest& request) = 0;
    virtual void on_line(Conn& conn, const std::string& line) = 0;
    /// Called for every *busy* connection each poll iteration, including
    /// the one a Wake triggers.
    virtual void on_tick(Conn& conn) { (void)conn; }
    /// Connection is going away (peer closed or server stopping).
    virtual void on_close(Conn& conn) { (void)conn; }
  };

  /// Undispatched input a connection may hold; see "Bounded input".
  static constexpr std::size_t kMaxPendingInput = 64 * 1024;
  /// Unsent output past which a connection's input waits; see "Bounded
  /// output".
  static constexpr std::size_t kMaxPendingOutput = 64 * 1024;

  /// Makes a server's poll loop run an iteration at once (ticking every
  /// busy connection). Callable from any thread, any number of times, also
  /// after the server has stopped or been destroyed: it holds the loop's
  /// wake descriptor open itself.
  using Wake = std::function<void()>;

  /// The wake of the server whose poll thread is calling — i.e. from inside
  /// a handler callback; empty on every other thread.
  static Wake current_wake();

  explicit Server(Handler& handler);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();

  /// Binds a listener; call before start(). Port 0 picks an ephemeral port
  /// (read it back with bound_port()). Both may be called — one TCP and one
  /// Unix listener can serve side by side.
  util::VoidResult listen(const Address& address);

  /// The TCP listener's actual port (after listen()); 0 when none.
  int bound_port() const { return bound_port_; }

  /// Spawns the poll thread. No-op when already running.
  void start();
  /// Joins the poll thread, closes all sockets, unlinks Unix paths.
  /// Idempotent; the destructor calls it.
  void stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }

 private:
  void loop();
  void read_input(Conn& conn, bool& dead);
  void handle_input(Conn& conn);
  void dispatch_http(Conn& conn);
  /// The error reply for input past kMaxPendingInput; closes after writing.
  void reject_oversized(Conn& conn);

  Handler& handler_;
  /// Always polled; shared with every Wake handed out, so it outlives them.
  std::shared_ptr<const WakeFd> wake_;
  std::vector<int> listen_fds_;
  std::vector<std::string> unix_paths_;  ///< unlinked on stop()
  int bound_port_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace kairos::net
