#include "src/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace pkrusafe {
namespace server {

ServerClient::~ServerClient() { Close(); }

Status ServerClient::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return UnavailableError("socket: " + std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return InvalidArgumentError("not an IPv4 address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = UnavailableError("connect: " + std::string(std::strerror(errno)));
    Close();
    return status;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::Ok();
}

void ServerClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Result<json::Value> ServerClient::Call(const std::string& tenant, const std::string& script,
                                       const std::vector<std::string>& warm) {
  if (fd_ < 0) {
    return FailedPreconditionError("not connected");
  }
  std::string request;
  json::Writer w(&request);
  w.BeginObject().Key("tenant").String(tenant).Key("script").String(script);
  if (!warm.empty()) {
    w.Key("warm").BeginArray();
    for (const std::string& name : warm) {
      w.String(name);
    }
    w.EndArray();
  }
  w.EndObject();
  request += "\n";

  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return UnavailableError("send: " + std::string(std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }

  char chunk[4096];
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      const std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return json::Parse(line);
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return UnavailableError("server closed the connection");
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return UnavailableError("recv: " + std::string(std::strerror(errno)));
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace server
}  // namespace pkrusafe
