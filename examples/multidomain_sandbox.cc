// Multi-compartment sandbox (§6 "Number of Compartments"): a browser with
// TWO untrusted libraries — a codec and a script engine — each locked into
// its own pool. A compromise of one cannot reach the other's heap, nor the
// browser's M_T. The compartments are built on the browser's PkAllocator,
// which owns M_T and M_U.
//
// With --libraries=N the demo scales past the 16 hardware protection keys:
// every tenant gets a virtual key (src/multidomain/vpkey.h) and the sweep
// verifies the full isolation matrix while the hardware key slots churn
// through evictions. Flags:
//
//   --libraries=N          scaled mode with N tenants (N > 16 is the point)
//   --backend=sim|mprotect enforcement substrate (default sim)
//   --policy=lru|lfu       eviction policy for the key cache (default lru)
//   --slots=K              hardware slots to claim, 0 = all (default 0)
//
// Exit status is nonzero if any cell of the matrix comes out wrong, so the
// scaled mode doubles as a smoke test on both backends.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/mpk/mprotect_backend.h"
#include "src/mpk/sim_backend.h"
#include "src/multidomain/multi_compartment.h"

namespace {

using namespace pkrusafe;  // NOLINT: example brevity

// Counts native faults serviced in scaled --backend=mprotect mode: each
// denied probe is one genuine SIGSEGV that the profiler machinery resolves
// as "allow exactly this access" (kRetryAllowed), so denial is observable
// without dying.
std::atomic<uint64_t> g_faults{0};

// Probes whether `what` is readable from the current compartment. On the sim
// backend the check is explicit; on mprotect we dereference and count faults.
bool ProbeDenied(MpkBackend& backend, const void* what) {
  if (!backend.enforces_natively()) {
    return !backend.CheckAccess(reinterpret_cast<uintptr_t>(what), AccessKind::kRead).ok();
  }
  const uint64_t before = g_faults.load();
  volatile const char* p = static_cast<volatile const char*>(what);
  (void)*p;
  return g_faults.load() != before;
}

int RunScaled(MpkBackend& backend, int libraries, EvictionPolicy policy, size_t slots) {
  std::printf("== Multi-compartment sandbox: %d tenants on backend '%s' ==\n\n", libraries,
              std::string(backend.name()).c_str());
  SetCurrentThreadPkru(PkruValue::AllowAll());
  if (backend.enforces_natively()) {
    const Status prepared = backend.PrepareNativeEnforcement();
    if (!prepared.ok()) {
      std::fprintf(stderr, "%s\n", prepared.ToString().c_str());
      return 1;
    }
    backend.SetFaultHandler([](const MpkFault&) {
      g_faults.fetch_add(1, std::memory_order_relaxed);
      return FaultResolution::kRetryAllowed;
    });
  }

  PkAllocatorConfig pool_config;
  pool_config.trusted_pool_bytes = size_t{2} << 20;
  pool_config.untrusted_pool_bytes = size_t{2} << 20;
  auto pools = PkAllocator::Create(&backend, pool_config);
  if (!pools.ok()) {
    std::fprintf(stderr, "%s\n", pools.status().ToString().c_str());
    return 1;
  }
  MultiCompartmentConfig config;
  config.library_pool_bytes = size_t{2} << 20;
  config.eviction_policy = policy;
  config.max_hw_slots = slots;
  auto mc = MultiCompartment::Create(pools->get(), config);
  if (!mc.ok()) {
    std::fprintf(stderr, "%s\n", mc.status().ToString().c_str());
    return 1;
  }

  std::vector<uint64_t*> objs;
  for (int i = 0; i < libraries; ++i) {
    auto id = (*mc)->RegisterLibrary("tenant" + std::to_string(i));
    if (!id.ok()) {
      std::fprintf(stderr, "register %d: %s\n", i, id.status().ToString().c_str());
      return 1;
    }
    objs.push_back(static_cast<uint64_t*>((*mc)->AllocateIn(*id, sizeof(uint64_t))));
    *objs.back() = static_cast<uint64_t>(i);
  }
  auto* secret = static_cast<uint64_t*>((*pools)->Allocate(Domain::kTrusted, sizeof(uint64_t)));
  auto* mailbox =
      static_cast<uint64_t*>((*pools)->Allocate(Domain::kUntrusted, sizeof(uint64_t)));
  *secret = 42;
  *mailbox = 7;

  const VpkeyStats registered = (*mc)->vpkey_stats();
  std::printf("virtual keys: %zu over %zu hardware slots (policy %s)\n\n",
              registered.virtual_keys, registered.hw_slots, EvictionPolicyName(policy));

  // Sweep: inside tenant i, exactly {own pool, shared pool} are readable;
  // the trusted pool and the previous tenant's pool are not.
  int wrong = 0;
  for (int i = 0; i < libraries; ++i) {
    MultiCompartment::Scope scope(**mc, static_cast<LibraryId>(i + 1));
    const bool own_denied = ProbeDenied(backend, objs[i]);
    const bool shared_denied = ProbeDenied(backend, mailbox);
    const bool trusted_denied = ProbeDenied(backend, secret);
    const bool neighbor_denied =
        libraries < 2 || ProbeDenied(backend, objs[(i + libraries - 1) % libraries]);
    if (own_denied || shared_denied || !trusted_denied || !neighbor_denied) {
      ++wrong;
      std::printf("  tenant%-4d MATRIX VIOLATION: own=%s shared=%s trusted=%s neighbor=%s\n", i,
                  own_denied ? "DENIED" : "ok", shared_denied ? "DENIED" : "ok",
                  trusted_denied ? "denied" : "OPEN", neighbor_denied ? "denied" : "OPEN");
    }
  }

  const VpkeyStats stats = (*mc)->vpkey_stats();
  std::printf("matrix: %d tenants checked, %d violations\n", libraries, wrong);
  std::printf("vpkey cache: %llu hits, %llu misses, %llu evictions, %.1f KiB re-tagged\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions),
              static_cast<double>(stats.retag_bytes) / 1024.0);
  std::printf("resident now: %zu/%zu; transitions: %llu\n", stats.resident, stats.hw_slots,
              static_cast<unsigned long long>((*mc)->transition_count()));

  (*mc)->Free(secret);
  (*mc)->Free(mailbox);
  for (uint64_t* obj : objs) {
    (*mc)->Free(obj);
  }
  if (backend.enforces_natively()) {
    backend.SetFaultHandler(nullptr);
  }
  return wrong == 0 ? 0 : 1;
}

int RunDemo() {
  std::printf("== Multi-compartment sandbox ==\n\n");

  SetCurrentThreadPkru(PkruValue::AllowAll());
  SimMpkBackend backend;
  auto pools = PkAllocator::Create(&backend);
  if (!pools.ok()) {
    std::fprintf(stderr, "%s\n", pools.status().ToString().c_str());
    return 1;
  }
  auto mc = MultiCompartment::Create(pools->get());
  if (!mc.ok()) {
    std::fprintf(stderr, "%s\n", mc.status().ToString().c_str());
    return 1;
  }
  const LibraryId codec = *(*mc)->RegisterLibrary("codec");
  const LibraryId jsengine = *(*mc)->RegisterLibrary("jsengine");
  // Fault both keys in so the banner shows the distinct hardware slots.
  (void)(*mc)->PolicyFor(codec);
  (void)(*mc)->PolicyFor(jsengine);
  std::printf("registered libraries: %s (pkey %u), %s (pkey %u); trusted pkey %u\n\n",
              (*mc)->library_name(codec).c_str(), (*mc)->key_of(codec),
              (*mc)->library_name(jsengine).c_str(), (*mc)->key_of(jsengine),
              (*pools)->trusted_key());

  auto* secret = static_cast<int64_t*>((*pools)->Allocate(Domain::kTrusted, sizeof(int64_t)));
  auto* frame = static_cast<int64_t*>((*mc)->AllocateIn(codec, sizeof(int64_t)));
  auto* script_obj = static_cast<int64_t*>((*mc)->AllocateIn(jsengine, sizeof(int64_t)));
  auto* mailbox = static_cast<int64_t*>((*pools)->Allocate(Domain::kUntrusted, sizeof(int64_t)));
  *secret = 42;
  *frame = 1;
  *script_obj = 2;
  *mailbox = 0;

  auto probe = [&](const char* who, const void* what, const char* label) {
    const Status status =
        backend.CheckAccess(reinterpret_cast<uintptr_t>(what), AccessKind::kRead);
    std::printf("  %-10s -> %-14s : %s\n", who, label, status.ok() ? "ok" : "DENIED");
  };

  std::printf("access matrix (rows = executing compartment):\n");
  {
    MultiCompartment::Scope scope(**mc, codec);
    probe("codec", secret, "browser secret");
    probe("codec", frame, "codec frame");
    probe("codec", script_obj, "js object");
    probe("codec", mailbox, "shared mailbox");
  }
  {
    MultiCompartment::Scope scope(**mc, jsengine);
    probe("jsengine", secret, "browser secret");
    probe("jsengine", frame, "codec frame");
    probe("jsengine", script_obj, "js object");
    probe("jsengine", mailbox, "shared mailbox");
  }
  probe("trusted", secret, "browser secret");
  probe("trusted", frame, "codec frame");
  probe("trusted", script_obj, "js object");

  // Legitimate cross-library communication goes through the shared pool.
  std::printf("\ncross-library message through the shared pool:\n");
  {
    MultiCompartment::Scope scope(**mc, codec);
    *mailbox = 7700;  // codec posts a decoded-frame notification
  }
  {
    MultiCompartment::Scope scope(**mc, jsengine);
    std::printf("  jsengine reads mailbox: %lld\n", static_cast<long long>(*mailbox));
  }
  std::printf("\ntransitions: %llu; browser secret still %lld\n",
              static_cast<unsigned long long>((*mc)->transition_count()),
              static_cast<long long>(*secret));

  (*mc)->Free(secret);
  (*mc)->Free(frame);
  (*mc)->Free(script_obj);
  (*mc)->Free(mailbox);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int libraries = 0;
  std::string backend_name = "sim";
  EvictionPolicy policy = EvictionPolicy::kLru;
  size_t slots = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--libraries=", 0) == 0) {
      libraries = std::atoi(arg.c_str() + 12);
    } else if (arg.rfind("--backend=", 0) == 0) {
      backend_name = arg.substr(10);
    } else if (arg.rfind("--policy=", 0) == 0) {
      policy = arg.substr(9) == "lfu" ? EvictionPolicy::kLfu : EvictionPolicy::kLru;
    } else if (arg.rfind("--slots=", 0) == 0) {
      slots = static_cast<size_t>(std::atoi(arg.c_str() + 8));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--libraries=N] [--backend=sim|mprotect] "
                   "[--policy=lru|lfu] [--slots=K]\n",
                   argv[0]);
      return 2;
    }
  }
  if (libraries <= 0) {
    return RunDemo();
  }
  if (backend_name == "mprotect") {
    MprotectMpkBackend backend;
    const int rc = RunScaled(backend, libraries, policy, slots);
    backend.WritePkru(PkruValue::AllowAll());
    backend.UninstallSignalHandlers();
    return rc;
  }
  SimMpkBackend backend;
  return RunScaled(backend, libraries, policy, slots);
}
