// Tests for the net layer: address parsing, the poll-driven server's dual
// framing (HTTP-lite and line protocol on one listener), the busy/on_tick
// slow-work contract and its wake, bounded per-connection input and output,
// and Unix-domain listeners.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "net/net.hpp"
#include "net/server.hpp"

namespace kairos::net {
namespace {

TEST(AddressTest, ParsesEveryDocumentedSpelling) {
  auto bare = parse_address("7070");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().kind, Address::Kind::kTcp);
  EXPECT_EQ(bare.value().host, "127.0.0.1");
  EXPECT_EQ(bare.value().port, 7070);

  auto colon = parse_address(":7070");
  ASSERT_TRUE(colon.ok());
  EXPECT_EQ(colon.value().port, 7070);
  EXPECT_EQ(colon.value().host, "127.0.0.1");

  auto full = parse_address("0.0.0.0:9090");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().host, "0.0.0.0");
  EXPECT_EQ(full.value().port, 9090);

  auto ephemeral = parse_address("127.0.0.1:0");
  ASSERT_TRUE(ephemeral.ok());
  EXPECT_EQ(ephemeral.value().port, 0);

  auto unix_addr = parse_address("unix:/tmp/kairos-test.sock");
  ASSERT_TRUE(unix_addr.ok());
  EXPECT_EQ(unix_addr.value().kind, Address::Kind::kUnix);
  EXPECT_EQ(unix_addr.value().path, "/tmp/kairos-test.sock");
}

TEST(AddressTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(parse_address("").ok());
  EXPECT_FALSE(parse_address("not-a-port").ok());
  EXPECT_FALSE(parse_address("127.0.0.1:notaport").ok());
  EXPECT_FALSE(parse_address("127.0.0.1:99999").ok());
  EXPECT_FALSE(parse_address("unix:").ok());
}

TEST(AddressTest, ToStringRoundTrips) {
  EXPECT_EQ(to_string(parse_address("127.0.0.1:7070").value()),
            "127.0.0.1:7070");
  EXPECT_EQ(to_string(parse_address("unix:/tmp/k.sock").value()),
            "unix:/tmp/k.sock");
}

/// Echo handler exercising both framings plus the busy/tick contract:
/// "defer" marks the connection busy and replies only after two ticks.
class EchoHandler : public Server::Handler {
 public:
  HttpResponse on_http(const HttpRequest& request) override {
    HttpResponse response;
    if (request.method != "GET") {
      response.status = 405;
      return response;
    }
    if (request.target == "/hello") {
      response.body = "hello\n";
    } else {
      response.status = 404;
      response.body = "not found\n";
    }
    return response;
  }

  void on_line(Conn& conn, const std::string& line) override {
    if (line == "defer") {
      ticks_seen_ = 0;
      conn.set_busy(true);
      return;
    }
    conn.send_line("echo " + line);
    if (line == "quit") conn.close_after_write();
  }

  void on_tick(Conn& conn) override {
    if (++ticks_seen_ >= 2) {
      conn.send_line("deferred done");
      conn.set_busy(false);
    }
  }

 private:
  int ticks_seen_ = 0;
};

TEST(ServerTest, HttpAndLineProtocolShareOneListener) {
  EchoHandler handler;
  Server server(handler);
  ASSERT_TRUE(server.listen(parse_address("127.0.0.1:0").value()).ok());
  ASSERT_GT(server.bound_port(), 0);
  server.start();

  Address address;
  address.port = server.bound_port();

  // HTTP framing: request line decides, headers consumed, one response.
  auto hello = http_get(address, "/hello");
  ASSERT_TRUE(hello.ok()) << hello.error();
  EXPECT_EQ(hello.value().status, 200);
  EXPECT_EQ(hello.value().body, "hello\n");

  auto missing = http_get(address, "/definitely-not-here");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);

  // Line framing on the very same port.
  LineClient client;
  ASSERT_TRUE(client.connect(address).ok());
  ASSERT_TRUE(client.send_line("ping").ok());
  auto reply = client.read_line();
  ASSERT_TRUE(reply.ok()) << reply.error();
  EXPECT_EQ(reply.value(), "echo ping");

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(ServerTest, AnswersHeaderlessHttpRequests) {
  // A minimal probe sends "GET /x HTTP/1.0\r\n\r\n" with no headers at all;
  // the framing replay must still find the end of the (empty) header block.
  EchoHandler handler;
  Server server(handler);
  ASSERT_TRUE(server.listen(parse_address("127.0.0.1:0").value()).ok());
  server.start();

  Address address;
  address.port = server.bound_port();
  LineClient raw;
  ASSERT_TRUE(raw.connect(address).ok());
  ASSERT_TRUE(raw.send_line("GET /hello HTTP/1.0\r").ok());
  ASSERT_TRUE(raw.send_line("\r").ok());
  auto status_line = raw.read_line(5000);
  ASSERT_TRUE(status_line.ok()) << status_line.error();
  EXPECT_EQ(status_line.value(), "HTTP/1.0 200 OK");

  server.stop();
}

TEST(ServerTest, BusyConnectionDefersInputAndPreservesOrder) {
  EchoHandler handler;
  Server server(handler);
  ASSERT_TRUE(server.listen(parse_address("127.0.0.1:0").value()).ok());
  server.start();

  Address address;
  address.port = server.bound_port();
  LineClient client;
  ASSERT_TRUE(client.connect(address).ok());

  // Both lines land at once; "after" must wait behind the busy flag and
  // still be answered after the deferred reply — order preserved.
  ASSERT_TRUE(client.send_line("defer").ok());
  ASSERT_TRUE(client.send_line("after").ok());

  auto first = client.read_line();
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first.value(), "deferred done");
  auto second = client.read_line();
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_EQ(second.value(), "echo after");

  server.stop();
}

TEST(ServerTest, UnixDomainListenerServesAndUnlinksOnStop) {
  const std::string path =
      testing::TempDir() + "kairos_net_test_" +
      std::to_string(::getpid()) + ".sock";
  std::remove(path.c_str());

  EchoHandler handler;
  Server server(handler);
  ASSERT_TRUE(server.listen(parse_address("unix:" + path).value()).ok());
  server.start();

  Address address;
  address.kind = Address::Kind::kUnix;
  address.path = path;

  LineClient client;
  ASSERT_TRUE(client.connect(address).ok());
  ASSERT_TRUE(client.send_line("over unix").ok());
  auto reply = client.read_line();
  ASSERT_TRUE(reply.ok()) << reply.error();
  EXPECT_EQ(reply.value(), "echo over unix");

  auto scrape = http_get(address, "/hello");
  ASSERT_TRUE(scrape.ok()) << scrape.error();
  EXPECT_EQ(scrape.value().body, "hello\n");

  client.close();
  server.stop();
  // The socket path is unlinked on stop — a fresh bind must succeed.
  Server second(handler);
  EXPECT_TRUE(second.listen(address).ok());
  second.stop();
  std::remove(path.c_str());
}

/// Connects to 127.0.0.1:`port`, sends `payload` (stopping quietly if the
/// server closes first), then returns everything the server wrote before it
/// closed. Raw sockets: LineClient only sends '\n'-terminated lines.
std::string send_and_collect(int port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "socket failed";
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &sin.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) != 0) {
    ::close(fd);
    return "connect failed";
  }
  for (std::size_t sent = 0; sent < payload.size();) {
    const ssize_t n = ::send(fd, payload.data() + sent, payload.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;  // the server closed on us: expected past the cap
    sent += static_cast<std::size_t>(n);
  }
  std::string received;
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) break;  // a hang fails the caller
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return received;
}

TEST(ServerTest, OversizedInputIsRejectedAndClosed) {
  EchoHandler handler;
  Server server(handler);
  ASSERT_TRUE(server.listen(parse_address("127.0.0.1:0").value()).ok());
  server.start();
  Address address;
  address.port = server.bound_port();
  const std::string mib(std::size_t{1} << 20, 'x');
  ASSERT_GT(mib.size(), Server::kMaxPendingInput);

  // A 1 MiB line with no newline: one error line, then the server closes
  // (send_and_collect returning at all proves the close).
  const std::string line_reply = send_and_collect(address.port, mib);
  EXPECT_EQ(line_reply.rfind("error line exceeds", 0), 0u) << line_reply;
  EXPECT_EQ(line_reply.find('\n'), line_reply.size() - 1) << line_reply;

  // HTTP headers that never reach their blank line: 431, then closed.
  const std::string http_reply =
      send_and_collect(address.port, "GET /hello HTTP/1.1\r\nX-Pad: " + mib);
  EXPECT_EQ(http_reply.rfind("HTTP/1.0 431 ", 0), 0u) << http_reply;

  // The server is unharmed: a second connection is served as usual.
  LineClient client;
  ASSERT_TRUE(client.connect(address).ok());
  ASSERT_TRUE(client.send_line("still here").ok());
  auto reply = client.read_line();
  ASSERT_TRUE(reply.ok()) << reply.error();
  EXPECT_EQ(reply.value(), "echo still here");
  auto hello = http_get(address, "/hello");
  ASSERT_TRUE(hello.ok()) << hello.error();
  EXPECT_EQ(hello.value().status, 200);

  server.stop();
}

TEST(ServerTest, QuitClosesAfterReplyIsWritten) {
  EchoHandler handler;
  Server server(handler);
  ASSERT_TRUE(server.listen(parse_address("127.0.0.1:0").value()).ok());
  server.start();

  Address address;
  address.port = server.bound_port();
  LineClient client;
  ASSERT_TRUE(client.connect(address).ok());
  ASSERT_TRUE(client.send_line("quit").ok());
  auto reply = client.read_line();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value(), "echo quit");
  // Peer closes after the reply: the next read reports closed, not a hang.
  EXPECT_FALSE(client.read_line(2000).ok());

  server.stop();
}

/// Answers each line from another thread, the way the daemon answers an
/// admission: on_line marks the connection busy and hands the poll loop's
/// wake to a worker, which finishes the reply after 1 ms and wakes the
/// loop; on_tick sends the reply once it exists.
class AsyncReplyHandler : public Server::Handler {
 public:
  ~AsyncReplyHandler() override { join(); }

  HttpResponse on_http(const HttpRequest&) override { return {}; }

  void on_line(Conn& conn, const std::string& line) override {
    join();  // the previous reply was sent: its worker is finishing
    conn.set_busy(true);
    last_wake_ = Server::current_wake();
    worker_ = std::thread([this, wake = last_wake_, line] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        reply_ = "done " + line;
      }
      wake();
    });
  }

  void on_tick(Conn& conn) override {
    std::optional<std::string> reply;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      reply.swap(reply_);
    }
    if (!reply) return;
    conn.send_line(*reply);
    conn.set_busy(false);
  }

  void join() {
    if (worker_.joinable()) worker_.join();
  }
  /// The wake the last on_line() captured; read after the server stopped.
  const Server::Wake& last_wake() const { return last_wake_; }

 private:
  std::mutex mutex_;
  std::optional<std::string> reply_;  ///< guarded by mutex_
  Server::Wake last_wake_;
  std::thread worker_;
};

TEST(ServerTest, SettledReplyWakesThePollLoop) {
  // Only a poll thread has a wake to hand out.
  EXPECT_FALSE(Server::current_wake());

  AsyncReplyHandler handler;
  Server server(handler);
  ASSERT_TRUE(server.listen(parse_address("127.0.0.1:0").value()).ok());
  server.start();
  Address address;
  address.port = server.bound_port();
  LineClient client;
  ASSERT_TRUE(client.connect(address).ok());

  // Nothing else happens on the socket while a reply is in flight, so
  // without the wake every round trip waits out the 20 ms poll timeout:
  // 50 of them would take at least 1 s.
  constexpr int kRoundTrips = 50;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRoundTrips; ++i) {
    const std::string line = "work " + std::to_string(i);
    ASSERT_TRUE(client.send_line(line).ok());
    auto reply = client.read_line();
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value(), "done " + line);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(kRoundTrips * 20 / 2));

  server.stop();
  handler.join();
  // A wake that outlives its server stays safe to call.
  ASSERT_TRUE(handler.last_wake());
  handler.last_wake()();
}

/// Answers every line with one 1 KiB line and records the most unsent
/// output a connection held when a line was dispatched.
class BulkReplyHandler : public Server::Handler {
 public:
  static constexpr std::size_t kReplyBytes = 1024;

  HttpResponse on_http(const HttpRequest&) override { return {}; }

  void on_line(Conn& conn, const std::string&) override {
    // Only the poll thread writes; the test thread reads.
    max_pending_output.store(
        std::max(max_pending_output.load(), conn.pending_output()));
    conn.send_line(std::string(kReplyBytes - 1, 'r'));
    lines.fetch_add(1);
  }

  std::atomic<std::size_t> max_pending_output{0};
  std::atomic<int> lines{0};
};

TEST(ServerTest, UnreadRepliesPauseInputUntilTheClientDrains) {
  BulkReplyHandler handler;
  Server server(handler);
  ASSERT_TRUE(server.listen(parse_address("127.0.0.1:0").value()).ok());
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_port = htons(static_cast<std::uint16_t>(server.bound_port()));
  ::inet_pton(AF_INET, "127.0.0.1", &sin.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)),
            0);

  // Thousands of pipelined commands: every read burst holds far more
  // lines than kMaxPendingOutput of replies, and 20 MiB of replies is far
  // more than the socket buffers absorb while the client does not read.
  constexpr int kLines = 20000;
  std::string payload;
  for (int i = 0; i < kLines; ++i) payload += "stats\n";
  std::thread sender([fd, &payload] {
    for (std::size_t sent = 0; sent < payload.size();) {
      const ssize_t n = ::send(fd, payload.data() + sent,
                               payload.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  });

  // The client reads nothing yet: the daemon's unsent output stays bounded.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(handler.lines.load(), kLines);
  EXPECT_LE(handler.max_pending_output.load(), Server::kMaxPendingOutput);

  // Draining the replies resumes the connection until every line is
  // answered.
  const std::size_t expected =
      std::size_t{kLines} * BulkReplyHandler::kReplyBytes;
  std::size_t received = 0;
  while (received < expected) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) break;
    char chunk[65536];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    received += static_cast<std::size_t>(n);
  }
  sender.join();
  EXPECT_EQ(received, expected);
  EXPECT_EQ(handler.lines.load(), kLines);
  EXPECT_LE(handler.max_pending_output.load(), Server::kMaxPendingOutput);

  ::close(fd);
  server.stop();
}

}  // namespace
}  // namespace kairos::net
