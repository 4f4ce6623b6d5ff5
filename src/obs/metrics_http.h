// Minimal embedded HTTP/1.0 server for Prometheus scrapes: one accept
// thread, one connection at a time, two routes (`GET /metrics` renders the
// registry's exposition text, anything else is 404). Connection: close on
// every response — scrapers reconnect per scrape, which keeps the server a
// hundred lines instead of an HTTP stack.
#pragma once

#include <string>
#include <thread>

#include "common/status.h"
#include "net/socket.h"

namespace mlkv {
namespace obs {

class MetricsRegistry;

class MetricsHttpServer {
 public:
  explicit MetricsHttpServer(MetricsRegistry* registry)
      : registry_(registry) {}
  ~MetricsHttpServer() { Stop(); }
  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  // Binds `addr` ("host:port", port 0 for ephemeral — see port()) and
  // starts the accept thread.
  Status Start(const std::string& addr);
  void Stop();

  uint16_t port() const { return listener_.port(); }

 private:
  void AcceptLoop();
  void ServeConnection(net::Socket conn);

  MetricsRegistry* const registry_;
  net::ListenSocket listener_;
  std::thread accept_thread_;
  bool running_ = false;
};

// Tiny HTTP/1.0 GET client for tests: fetches http://host:port/path,
// returns the body (headers stripped). Non-2xx statuses surface as IOError
// naming the status line. (Remote tools read the same exposition over
// kStats, RemoteBackend::FetchStats.)
Status HttpGet(const std::string& addr, const std::string& path,
               std::string* body);

}  // namespace obs
}  // namespace mlkv
