#include "src/server/sandbox_server.h"

#include <algorithm>
#include <fstream>

#include "src/jsvm/vm.h"
#include "src/support/json.h"
#include "src/support/string_util.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {
namespace server {

namespace {

// Longer request lines are refused and their connection closed.
constexpr size_t kMaxRequestBytes = size_t{1} << 20;

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

// The embedder's bindings, in registration order. The program cache
// compiles against this list and Vm::Load refuses a program compiled
// against any other, so the two cannot drift.
enum HostFunction : size_t { kSecretAddr, kScratchAddr };
const std::vector<std::string>& HostNames() {
  static const std::vector<std::string> names = {"secret_addr", "scratch_addr"};
  return names;
}

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
  config.library_pool_bytes = server->options_.tenant_pool_bytes;
  PS_ASSIGN_OR_RETURN(server->mc_, MultiCompartment::Create(&runtime->allocator(), config));
  server->registry_ = std::make_unique<TenantRegistry>(
      server->mc_.get(),
      TenantRegistryOptions{server->options_.idle_timeout_ms});

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
    : runtime_(runtime),
      options_(std::move(options)),
      programs_(HostNames()),
      loop_(options_.idle_timeout_ms) {}

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
  PS_RETURN_IF_ERROR(loop_.Listen(options_.port));
  running_.store(true);
  io_thread_ = std::thread([this] { IoLoop(); });
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
  loop_.Wake();
  io_thread_.join();
  {
    // Under the lock, so a worker between its predicate check and its wait
    // cannot miss the notify.
    std::lock_guard lock(queue_mu_);
    requests_.clear();
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  responses_.clear();
  loop_.Shutdown();
}

void SandboxServer::IoLoop() {
  const auto on_input = [this](uint64_t id, std::string& input) { OnInput(id, input); };
  uint64_t last_sweep_ms = NowMsLocal();
  while (running_.load()) {
    // Fails only if poll itself does; the next iteration retries.
    (void)loop_.PollOnce(static_cast<int>(options_.sweep_interval_ms), on_input, nullptr);
    std::vector<Job> responses;
    {
      std::lock_guard lock(queue_mu_);
      responses.swap(responses_);
    }
    for (const Job& response : responses) {
      // Clearing the mark offers the connection's next line to OnInput. A
      // connection that broke while its request ran is gone: both no-ops.
      loop_.SetBusy(response.connection, false);
      if (!loop_.Send(response.connection, response.text).ok()) {
        loop_.Close(response.connection);  // the peer stopped reading, or is gone
      }
    }
    const uint64_t now_ms = NowMsLocal();
    if (now_ms >= last_sweep_ms + options_.sweep_interval_ms) {
      registry_->SweepIdle(now_ms);
      last_sweep_ms = now_ms;
    }
  }
}

void SandboxServer::OnInput(uint64_t id, std::string& input) {
  while (true) {
    const size_t newline = input.find('\n');
    if (std::min(newline, input.size()) > kMaxRequestBytes) {
      (void)loop_.Send(id, ErrorResponse("request line too large") + "\n");
      input.clear();
      loop_.Close(id);
      return;
    }
    if (newline == std::string::npos) {
      return;
    }
    std::string line = input.substr(0, newline);
    input.erase(0, newline + 1);
    if (!StrStrip(line).empty()) {
      loop_.SetBusy(id, true);
      {
        std::lock_guard lock(queue_mu_);
        requests_.push_back({id, std::move(line)});
      }
      queue_cv_.notify_one();
      return;
    }
  }
}

void SandboxServer::WorkerLoop() {
  while (true) {
    Job request;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return !requests_.empty() || !running_.load(); });
      if (!running_.load()) {
        return;
      }
      request = std::move(requests_.front());
      requests_.pop_front();
    }
    Job response{request.connection, HandleRequestLine(request.text) + "\n"};
    {
      std::lock_guard lock(queue_mu_);
      responses_.push_back(std::move(response));
    }
    loop_.Wake();
  }
}

std::string SandboxServer::HandleRequestLine(const std::string& line) {
  auto reject = [&](const std::string& error) {
    Metrics().rejected->Increment();
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
    std::string response;
    json::Writer w(&response);
    w.BeginObject().Key("ok").Bool(false).Key("tenant").String(tenant);
    w.Key("error").String(session.status().message()).Key("dead").Bool(true).EndObject();
    return response;
  }

  const RequestOutcome outcome = RunInTenant(*session, script);
  Metrics().requests->Increment();
  Metrics().request_ns->Observe(outcome.latency_ns);
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
  vm_options.max_steps = kRequestStepBudget;
  Vm vm(runtime_, vm_options);
  // The embedder's bindings. secret_addr() leaks where the trusted secret
  // lives — finding addresses was never the hard part (§5.4); touching them
  // is what enforcement stops.
  const uintptr_t secret_addr = reinterpret_cast<uintptr_t>(secret_);
  vm.RegisterHost(HostNames()[kSecretAddr],
                  [secret_addr](Vm&, std::span<const Value>) -> Result<Value> {
                    return Value::Number(static_cast<double>(secret_addr));
                  });
  const uintptr_t scratch_addr = reinterpret_cast<uintptr_t>(session->scratch);
  vm.RegisterHost(HostNames()[kScratchAddr],
                  [scratch_addr](Vm&, std::span<const Value>) -> Result<Value> {
                    return Value::Number(static_cast<double>(scratch_addr));
                  });

  auto program = programs_.Get(script);
  const Status loaded = program.ok() ? vm.Load(std::move(*program)) : program.status();
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
    // right here rather than deep in a script. Always the same word, so a
    // long-lived session keeps one scratch page resident.
    *static_cast<uint64_t*>(session->scratch) = session->requests.load(std::memory_order_relaxed);
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

}  // namespace server
}  // namespace pkrusafe
