// MetricsServer behavior under real (and badly behaved) HTTP clients:
// whole-request scrapes, clients that dribble the request line across
// several sends, and clients that connect and say nothing.
#include <gtest/gtest.h>

#include "obs/metrics_server.h"
#include "obs/registry.h"
#include "tests/obs_test_util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

namespace lumen::obs {
namespace {

/// A loopback TCP client socket connected to `port`; -1 on failure.
int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
}

std::string recv_all(int fd) {
  std::string out;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

TEST(MetricsServerTest, ServesPrometheusTextToAWholeRequest) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  registry.counter("lumen.rwa.offered").add(5);
  const auto server = serve_metrics(0, registry);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->ok());

  const int fd = connect_to(server->port());
  ASSERT_GE(fd, 0);
  send_all(fd, "GET /metrics HTTP/1.0\r\n\r\n");
  const std::string response = recv_all(fd);
  ::close(fd);

  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("lumen_rwa_offered 5"), std::string::npos);
}

TEST(MetricsServerTest, SlowClientDribblingTheRequestLineStillGets200) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  registry.counter("lumen.rwa.blocked").add(2);
  const auto server = serve_metrics(0, registry);
  ASSERT_NE(server, nullptr);

  const int fd = connect_to(server->port());
  ASSERT_GE(fd, 0);
  // The request line arrives in three short writes with pauses between
  // them; the server must keep reading until the newline, not respond to
  // (or choke on) a fragment.
  for (const char* part : {"GET /met", "rics HT", "TP/1.0\r\n\r\n"}) {
    send_all(fd, part);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const std::string response = recv_all(fd);
  ::close(fd);

  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("lumen_rwa_blocked 2"), std::string::npos);
}

TEST(MetricsServerTest, ClientThatClosesWithoutARequestDoesNotWedge) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  registry.counter("lumen.rwa.offered").add(1);
  const auto server = serve_metrics(0, registry);
  ASSERT_NE(server, nullptr);

  // Connect and immediately close: the server's read loop sees EOF and
  // must move on to the next connection rather than wedging the
  // accept thread.
  const int silent = connect_to(server->port());
  ASSERT_GE(silent, 0);
  ::close(silent);

  const int fd = connect_to(server->port());
  ASSERT_GE(fd, 0);
  send_all(fd, "GET / HTTP/1.0\r\n\r\n");
  const std::string response = recv_all(fd);
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
}

TEST(MetricsServerTest, StopIsIdempotentAndPortStaysBound) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  const auto server = serve_metrics(0, registry);
  ASSERT_NE(server, nullptr);
  EXPECT_NE(server->port(), 0);
  server->stop();
  server->stop();  // second stop must be a no-op, not a crash
  EXPECT_FALSE(server->ok());
}

}  // namespace
}  // namespace lumen::obs
