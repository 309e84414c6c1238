#include "src/server/sandbox_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "src/jsvm/vm.h"
#include "src/support/json.h"
#include "src/support/string_util.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {
namespace server {

namespace {

// Registry-backed metrics: the Sampler picks these up like any other
// counter, so requests/s and request-latency percentiles come out of the
// standard JSONL rows with no server-specific plumbing.
struct ServerMetrics {
  telemetry::Counter* requests = nullptr;
  telemetry::Counter* ok = nullptr;
  telemetry::Counter* script_errors = nullptr;
  telemetry::Counter* violations = nullptr;
  telemetry::Counter* rejected = nullptr;
  telemetry::Histogram* request_ns = nullptr;
};

// {"ok":false,"error":...}: a request refused before it reached a tenant.
std::string ErrorResponse(std::string_view error) {
  std::string response;
  json::Writer w(&response);
  w.BeginObject().Key("ok").Bool(false).Key("error").String(error).EndObject();
  return response;
}

ServerMetrics& Metrics() {
  static ServerMetrics metrics = [] {
    auto& registry = telemetry::MetricsRegistry::Global();
    ServerMetrics m;
    m.requests = registry.GetOrCreateCounter("server.requests");
    m.ok = registry.GetOrCreateCounter("server.requests_ok");
    m.script_errors = registry.GetOrCreateCounter("server.script_errors");
    m.violations = registry.GetOrCreateCounter("server.violations");
    m.rejected = registry.GetOrCreateCounter("server.rejected");
    m.request_ns = registry.GetOrCreateHistogram(
        "server.request_ns", telemetry::Histogram::ExponentialBounds(1024, 2.0, 24));
    return m;
  }();
  return metrics;
}

uint64_t NowMsLocal() { return telemetry::NowNs() / 1'000'000; }

// Tenant names come off the wire and end up in file names (the per-tenant
// crash report is crash_dir + "/crash-" + tenant + ".json"), so they must be
// a single safe path component: a name like "../../etc/x" would otherwise
// let an untrusted client steer the crash-report write to an arbitrary path.
// Restricting the charset (no '/' or '\\') and refusing "." / ".." makes
// traversal unrepresentable rather than filtered.
bool ValidTenantName(std::string_view name) {
  constexpr size_t kMaxTenantNameBytes = 128;
  if (name.empty() || name.size() > kMaxTenantNameBytes) {
    return false;
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) {
      return false;
    }
  }
  return name != "." && name != "..";
}

Status WriteAll(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return UnavailableError("send: " + std::string(std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<SandboxServer>> SandboxServer::Create(PkruSafeRuntime* runtime,
                                                             SandboxServerOptions options) {
  if (runtime == nullptr) {
    return InvalidArgumentError("SandboxServer: runtime is required");
  }
  if (options.workers == 0) {
    return InvalidArgumentError("SandboxServer: at least one worker");
  }
  std::unique_ptr<SandboxServer> server(new SandboxServer(runtime, std::move(options)));

  MultiCompartmentConfig config;
  config.trusted_pool_bytes = server->options_.trusted_pool_bytes;
  config.shared_pool_bytes = server->options_.shared_pool_bytes;
  config.library_pool_bytes = server->options_.tenant_pool_bytes;
  // Tenant masks must deny the embedder runtime's M_T too, not just the
  // compartment manager's own trusted pool.
  config.extra_deny = {runtime->trusted_key()};
  PS_ASSIGN_OR_RETURN(server->mc_, MultiCompartment::Create(&runtime->backend(), config));
  server->registry_ = std::make_unique<TenantRegistry>(
      server->mc_.get(),
      TenantRegistryOptions{server->options_.idle_timeout_ms, server->options_.scratch_bytes});

  // The secret tenants must never reach: a trusted-heap allocation of the
  // embedder runtime (site 9000:0:0 is reserved for the server embedder).
  server->secret_ = runtime->AllocTrusted(AllocId{9000, 0, 0}, sizeof(uint64_t));
  if (server->secret_ == nullptr) {
    return ResourceExhaustedError("SandboxServer: cannot allocate embedder secret");
  }
  *static_cast<uint64_t*>(server->secret_) = 0x5ec2e7;
  return server;
}

SandboxServer::SandboxServer(PkruSafeRuntime* runtime, SandboxServerOptions options)
    : runtime_(runtime), options_(std::move(options)) {}

SandboxServer::~SandboxServer() {
  Stop();
  if (secret_ != nullptr) {
    runtime_->Free(secret_);
  }
}

Status SandboxServer::Start() {
  if (running_.load()) {
    return FailedPreconditionError("SandboxServer already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return UnavailableError("socket: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const Status status = UnavailableError("bind/listen: " + std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void SandboxServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  // Wake the accept loop's poll; the fd stays open (and listen_fd_ stays
  // untouched) until the accept thread has joined — it reads both.
  ::shutdown(listen_fd_, SHUT_RDWR);
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::lock_guard lock(queue_mu_);
  for (const int fd : pending_fds_) {
    ::close(fd);
  }
  pending_fds_.clear();
}

void SandboxServer::AcceptLoop() {
  uint64_t last_sweep_ms = NowMsLocal();
  while (running_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(options_.sweep_interval_ms));
    if (!running_.load()) {
      break;
    }
    const uint64_t now_ms = NowMsLocal();
    if (now_ms >= last_sweep_ms + options_.sweep_interval_ms) {
      registry_->SweepIdle(now_ms);
      last_sweep_ms = now_ms;
    }
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) {
      continue;
    }
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      std::lock_guard lock(queue_mu_);
      pending_fds_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void SandboxServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return !pending_fds_.empty() || !running_.load(); });
      if (!running_.load() && pending_fds_.empty()) {
        return;
      }
      fd = pending_fds_.front();
      pending_fds_.pop_front();
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void SandboxServer::ServeConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  while (running_.load()) {
    const size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (StrStrip(line).empty()) {
        continue;
      }
      const std::string response = HandleRequestLine(line) + "\n";
      if (!WriteAll(fd, response).ok()) {
        return;
      }
      continue;
    }
    if (buffer.size() > options_.max_request_bytes) {
      (void)WriteAll(fd, ErrorResponse("request line too large") + "\n");
      return;
    }
    // Bounded wait so an idle connection never wedges Stop(): the worker
    // re-checks running_ every tick instead of blocking in recv forever.
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 250);
    if (ready == 0) {
      continue;
    }
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return;  // orderly EOF
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

std::string SandboxServer::HandleRequestLine(const std::string& line) {
  auto reject = [&](const std::string& error) {
    Metrics().rejected->Increment();
    {
      std::lock_guard lock(stats_mu_);
      ++stats_.rejected;
    }
    return ErrorResponse(error);
  };

  auto parsed = json::Parse(line);
  if (!parsed.ok() || !parsed->is_object()) {
    return reject("request is not a JSON object");
  }
  const std::string tenant = parsed->GetString("tenant");
  const std::string script = parsed->GetString("script");
  if (tenant.empty() || script.empty()) {
    return reject("request needs nonempty 'tenant' and 'script'");
  }
  if (!ValidTenantName(tenant)) {
    return reject("tenant name must be 1-128 chars of [A-Za-z0-9._-], not '.' or '..'");
  }

  // Working-set hint: pre-fault the named tenants' keys for the batch this
  // request announces. Best effort, never fails the request.
  if (const json::Value* warm = parsed->Find("warm"); warm != nullptr && warm->is_array()) {
    std::vector<std::string> names;
    for (const json::Value& name : warm->AsArray()) {
      if (name.is_string()) {
        names.push_back(name.AsString());
      }
    }
    registry_->WarmTenants(names);
  }

  auto session = registry_->GetOrCreate(tenant, NowMsLocal());
  if (!session.ok()) {
    Metrics().rejected->Increment();
    {
      std::lock_guard lock(stats_mu_);
      ++stats_.rejected;
    }
    std::string response;
    json::Writer w(&response);
    w.BeginObject().Key("ok").Bool(false).Key("tenant").String(tenant);
    w.Key("error").String(session.status().message()).Key("dead").Bool(true).EndObject();
    return response;
  }

  const RequestOutcome outcome = RunInTenant(*session, script);
  Metrics().requests->Increment();
  Metrics().request_ns->Observe(outcome.latency_ns);
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.requests;
    if (outcome.ok) {
      ++stats_.ok;
    } else if (outcome.violation) {
      ++stats_.violations;
    } else {
      ++stats_.script_errors;
    }
  }
  std::string response;
  json::Writer w(&response);
  w.BeginObject().Key("ok").Bool(outcome.ok).Key("tenant").String(tenant);
  if (outcome.ok) {
    Metrics().ok->Increment();
    w.Key("result").String(outcome.result).Key("prints").BeginArray();
    for (const std::string& printed : outcome.prints) {
      w.String(printed);
    }
    w.EndArray();
  } else {
    if (outcome.violation) {
      Metrics().violations->Increment();
      registry_->Kill(*session);
      WriteCrashReport(tenant, (*session)->library, PermissionDeniedError(outcome.error));
    } else {
      Metrics().script_errors->Increment();
    }
    w.Key("error").String(outcome.error).Key("dead").Bool(outcome.violation);
  }
  w.Key("latency_ns").Uint(outcome.latency_ns).EndObject();
  // The request slot is released only after the LAST touch of the session —
  // the kill and crash report above included. While it is held the sweep
  // cannot retire the session or hand its name to a successor, so the kill
  // always lands on the session that violated.
  (*session)->in_flight.fetch_sub(1, std::memory_order_release);
  return response;
}

SandboxServer::RequestOutcome SandboxServer::RunInTenant(TenantSession* session,
                                                         const std::string& script) {
  RequestOutcome outcome;
  const uint64_t start_ns = telemetry::NowNs();

  VmOptions vm_options;
  vm_options.enable_vulnerability = options_.enable_vulnerability;
  Vm vm(runtime_, vm_options);
  // The embedder's bindings. secret_addr() leaks where the trusted secret
  // lives — finding addresses was never the hard part (§5.4); touching them
  // is what enforcement stops.
  const uintptr_t secret_addr = reinterpret_cast<uintptr_t>(secret_);
  vm.RegisterHost("secret_addr", [secret_addr](Vm&, const std::vector<Value>&) -> Result<Value> {
    return Value::Number(static_cast<double>(secret_addr));
  });
  const uintptr_t scratch_addr = reinterpret_cast<uintptr_t>(session->scratch);
  vm.RegisterHost("scratch_addr", [scratch_addr](Vm&, const std::vector<Value>&) -> Result<Value> {
    return Value::Number(static_cast<double>(scratch_addr));
  });

  const Status loaded = vm.Load(script);
  if (!loaded.ok()) {
    outcome.error = loaded.message();
    outcome.latency_ns = telemetry::NowNs() - start_ns;
    return outcome;
  }

  Result<Value> result = Value::Null();
  runtime_->gates().CallUntrusted([&] {
    MultiCompartment::Scope scope(*mc_, session->library);
    // Touch the tenant's private scratch from inside its own compartment:
    // every request exercises the tenant's key, and a stale mask would fault
    // right here rather than deep in a script.
    // scratch_bytes is word-aligned by TenantRegistry (and >= one word when
    // scratch exists); the guard keeps the modulus divisor nonzero even if a
    // future caller hands the session a smaller buffer.
    if (session->scratch != nullptr && session->scratch_bytes >= sizeof(uint64_t)) {
      auto* scratch = static_cast<uint64_t*>(session->scratch);
      const uint64_t n = session->requests.load(std::memory_order_relaxed);
      scratch[n % (session->scratch_bytes / sizeof(uint64_t))] = n;
    }
    result = vm.Run();
  });
  session->requests.fetch_add(1, std::memory_order_relaxed);
  outcome.latency_ns = telemetry::NowNs() - start_ns;

  if (result.ok()) {
    outcome.ok = true;
    outcome.result = vm.ToDisplayString(*result);
    outcome.prints = vm.print_output();
    return outcome;
  }
  outcome.error = result.status().message();
  outcome.violation = result.status().code() == StatusCode::kPermissionDenied;
  return outcome;
}

void SandboxServer::WriteCrashReport(const std::string& tenant, LibraryId library,
                                     const Status& status) {
  if (options_.crash_dir.empty()) {
    return;
  }
  // Names are validated at request parse time; refuse anything else reaching
  // this sink so the path below can never leave crash_dir.
  if (!ValidTenantName(tenant)) {
    return;
  }
  const std::string path = options_.crash_dir + "/crash-" + tenant + ".json";
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) {
    return;
  }
  // Same shape the flight recorder emits, produced from normal context: the
  // sim backend contains the violation as a Status, no signal ever fires.
  std::string report;
  json::Writer w(&report);
  w.BeginObject().Key("kind").String("pkru_safe_crash_report");
  w.Key("reason").String("tenant compartment violation").Key("signal").Int(0);
  w.Key("tenant").String(tenant).Key("library").Uint(library).Key("error").String(status.message());
  w.Key("ts_ns").Uint(telemetry::NowNs()).EndObject();
  out << report << "\n";
}

SandboxServer::Stats SandboxServer::stats() const {
  Stats snapshot;
  {
    std::lock_guard lock(stats_mu_);
    snapshot = stats_;
  }
  snapshot.tenants = registry_->stats();
  return snapshot;
}

}  // namespace server
}  // namespace pkrusafe
