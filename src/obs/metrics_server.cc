#include "obs/metrics_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace lumen::obs {
inline namespace LUMEN_OBS_MODE_NAMESPACE {

MetricsServer::MetricsServer(std::uint16_t port, const Registry& registry)
    : registry_(registry) {
  if constexpr (!kObsEnabled) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return;
  }

  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  thread_ = std::thread([this] { accept_loop(); });
}

MetricsServer::~MetricsServer() { stop(); }

void MetricsServer::stop() {
  if (!stopping_.exchange(true)) {
    // shutdown() wakes the blocked accept(); the loop then exits on the
    // stopping_ flag.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void MetricsServer::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      continue;
    }
    // Read (and ignore) the request; every path serves the same scrape.
    // A slow client may dribble the request line across several short
    // reads, so keep reading until a line terminator arrives — bounded
    // by the buffer and a receive timeout so a silent client cannot
    // wedge the accept loop, and retrying interrupted reads (EINTR).
    timeval timeout{};
    timeout.tv_sec = 2;
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    char buf[2048];
    std::size_t got = 0;
    while (got < sizeof buf) {
      const ssize_t n = ::recv(conn, buf + got, sizeof buf - got, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // EOF, timeout, or hard error: serve anyway
      got += static_cast<std::size_t>(n);
      if (std::memchr(buf, '\n', got) != nullptr) break;  // line complete
    }

    const std::string body = prometheus_text(registry_);
    std::string response =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) +
        "\r\n"
        "Connection: close\r\n\r\n" +
        body;
    std::size_t sent = 0;
    while (sent < response.size()) {
      const ssize_t n = ::send(conn, response.data() + sent,
                               response.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::close(conn);
  }
}

std::unique_ptr<MetricsServer> serve_metrics(std::uint16_t port,
                                             const Registry& registry) {
  auto server = std::make_unique<MetricsServer>(port, registry);
  if (!server->ok()) return nullptr;
  return server;
}

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE
}  // namespace lumen::obs
