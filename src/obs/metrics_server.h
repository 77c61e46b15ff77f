// Optional plain-socket Prometheus pull endpoint.  Off by default — a
// process gets one only by constructing it explicitly:
//
//   auto server = obs::serve_metrics(9100);   // or port 0 = ephemeral
//   ... scrape http://127.0.0.1:<server->port()>/metrics ...
//
// Implementation is a minimal HTTP/1.0 responder over POSIX sockets (no
// external dependencies): every connection gets a 200 with the current
// obs::prometheus_text() rendering, whatever the request path.  Binds to
// 127.0.0.1 only — this is a scrape endpoint for a local agent, not a
// public listener.  With LUMEN_OBS_DISABLED construction fails cleanly
// (serve_metrics returns nullptr) and nothing listens.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "obs/export.h"
#include "obs/obs.h"
#include "obs/registry.h"

namespace lumen::obs {
inline namespace LUMEN_OBS_MODE_NAMESPACE {

class MetricsServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port) and
  /// starts the accept thread.  Check ok() — a failed bind (or a build
  /// with telemetry compiled out) leaves the server inert rather than
  /// throwing.
  explicit MetricsServer(std::uint16_t port = 0,
                         const Registry& registry = Registry::global());
  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;
  ~MetricsServer();

  /// True when the listener is up.
  [[nodiscard]] bool ok() const noexcept { return listen_fd_ >= 0; }
  /// The bound port (the kernel's pick when constructed with port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stops accepting and joins the thread (idempotent; destructor calls
  /// it).  In-flight responses finish.
  void stop();

 private:
  void accept_loop();

  const Registry& registry_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

/// Starts a metrics server; nullptr when the bind failed (port in use,
/// sockets unavailable).
[[nodiscard]] std::unique_ptr<MetricsServer> serve_metrics(
    std::uint16_t port = 0, const Registry& registry = Registry::global());

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE
}  // namespace lumen::obs
