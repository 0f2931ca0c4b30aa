// serve::HttpClient — a deliberately tiny blocking HTTP/1.1 client for
// loopback use: the tests and perfbench's serve workload drive the
// server through real sockets with it. It speaks just enough HTTP for that
// job: GET over an existing keep-alive connection, Content-Length
// framing, no chunked encoding, no redirects, no TLS.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace georank::serve {

struct HttpClientResponse {
  int status = 0;
  std::string body;
  /// Connection header from the server ("keep-alive" / "close").
  std::string connection;
};

class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;
  HttpClient(HttpClient&& other) noexcept;
  HttpClient& operator=(HttpClient&& other) noexcept;

  /// Connects to host:port (IPv4 dotted quad). False on failure.
  [[nodiscard]] bool connect(const std::string& host, std::uint16_t port);

  /// Sends one GET and reads the full response. Reconnects first when
  /// the previous response closed the connection. nullopt on transport
  /// or framing failure.
  [[nodiscard]] std::optional<HttpClientResponse> get(std::string_view target);

  /// Sends one POST with a Content-Length framed body (what /v1/whatif
  /// speaks); same reconnect and framing rules as get().
  [[nodiscard]] std::optional<HttpClientResponse> post(
      std::string_view target, std::string_view body,
      std::string_view content_type = "text/plain");

  void close();

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

 private:
  /// Writes one fully rendered request and reads one response.
  [[nodiscard]] std::optional<HttpClientResponse> round_trip(
      const std::string& request);

  int fd_ = -1;
  std::string host_;
  std::uint16_t port_ = 0;
  /// Bytes read past the previous response (keep-alive pipelining).
  std::string leftover_;
};

}  // namespace georank::serve
