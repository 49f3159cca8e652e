// Tests for the net layer: address parsing, the poll-driven server's dual
// framing (HTTP-lite and line protocol on one listener), the busy/on_tick
// slow-work contract, and Unix-domain listeners.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

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

}  // namespace
}  // namespace kairos::net
