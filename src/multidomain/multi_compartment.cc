#include "src/multidomain/multi_compartment.h"

#include "src/support/logging.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"

namespace pkrusafe {

namespace {

telemetry::Counter* ForeignFreeCounter() {
  static auto* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("multidomain.free.foreign");
  return counter;
}

}  // namespace

Result<std::unique_ptr<MultiCompartment>> MultiCompartment::Create(
    PkAllocator* pools, const MultiCompartmentConfig& config) {
  if (pools == nullptr) {
    return InvalidArgumentError("null allocator");
  }
  auto mc = std::unique_ptr<MultiCompartment>(new MultiCompartment(pools, config));

  VpkeyConfig vpkey_config;
  vpkey_config.max_hw_slots = config.max_hw_slots;
  vpkey_config.always_deny = {pools->trusted_key()};
  PS_ASSIGN_OR_RETURN(mc->vpkeys_, VirtualPkeyTable::Create(mc->backend_, vpkey_config));

  // Make sure the foreign-free counter exists before any crash report could
  // want it, and let an already-configured flight recorder pick it (and the
  // vpkey counters) up.
  ForeignFreeCounter();
  telemetry::FlightRecorder::Global().RefreshMetricHandles();
  return mc;
}

Result<LibraryId> MultiCompartment::RegisterLibrary(const std::string& name) {
  std::lock_guard lock(mu_);
  PS_ASSIGN_OR_RETURN(const VirtualKeyId vkey, vpkeys_->AllocateVirtualKey());

  // Every failure below releases the key: without that this slot of the
  // (virtual) key space would burn forever — the pre-virtualization bug
  // permanently lost one of the 15 hardware keys here.
  const bool recycled = !free_ids_.empty();
  Library* library;
  LibraryId id;
  if (recycled) {
    id = free_ids_.back();
    library = &LibraryAt(id);
  } else {
    library = libraries_.Claim();
    if (library == nullptr) {
      (void)vpkeys_->ReleaseVirtualKey(vkey);
      return ResourceExhaustedError("library table full");
    }
    id = static_cast<LibraryId>(libraries_.size() + 1);
    // A claimed slot whose registration failed below keeps its pool for the
    // next claim of the same slot.
    if (library->arena == nullptr) {
      auto arena = Arena::Create(config_.library_pool_bytes);
      if (!arena.ok()) {
        (void)vpkeys_->ReleaseVirtualKey(vkey);
        return arena.status();
      }
      library->heap = std::make_unique<FreeListHeap>(arena->get());
      library->arena = std::move(*arena);
    }
  }
  // A recycled pool's pages already carry the evicted key (release re-tags
  // a resident pool out), so this only binds the range to the new key.
  const Status tag =
      vpkeys_->TagRange(vkey, library->arena->base(), library->arena->reserved_bytes());
  if (!tag.ok()) {
    (void)vpkeys_->ReleaseVirtualKey(vkey);
    return tag;
  }
  library->name = name;
  library->vkey.store(vkey, std::memory_order_relaxed);
  library->live_heap.store(library->heap.get(), std::memory_order_release);
  if (recycled) {
    free_ids_.pop_back();
  } else {
    // Publish after the entry is complete: lock-free readers that observe
    // the new count see a fully-built Library.
    libraries_.Publish();
  }
  return id;
}

Status MultiCompartment::ReleaseLibrary(LibraryId library) {
  std::lock_guard lock(mu_);
  if (library < 1 || library > libraries_.size()) {
    return InvalidArgumentError("ReleaseLibrary: unknown library id");
  }
  Library& entry = LibraryAt(library);
  if (entry.live_heap.load(std::memory_order_relaxed) == nullptr) {
    return FailedPreconditionError("ReleaseLibrary: library already released");
  }
  // The quarantine gate: a pinned key (an EnterLibrary scope still open
  // anywhere) refuses with FailedPrecondition and nothing below runs. On
  // success the vpkey layer re-tags any resident pool pages to the shared
  // evicted key before recycling the id, so the dying pool is locked from
  // the instant the key is gone.
  PS_RETURN_IF_ERROR(vpkeys_->ReleaseVirtualKey(entry.vkey.load(std::memory_order_relaxed)));
  // Dead to lock-free scanners first, then return the pool's pages. The
  // heap/arena objects stay (see Library), so a scan that loaded live_heap a
  // moment ago still reads valid memory.
  entry.live_heap.store(nullptr, std::memory_order_release);
  // A pool whose pages could not be dropped is never handed to another
  // library: it would expose this one's data.
  PS_RETURN_IF_ERROR(entry.arena->DecommitAll());
  entry.heap->Reset();
  free_ids_.push_back(library);
  return Status::Ok();
}

Status MultiCompartment::PrefaultWorkingSet(const std::vector<LibraryId>& working_set) {
  std::lock_guard lock(mu_);
  for (const LibraryId id : working_set) {
    if (id < 1 || id > libraries_.size()) {
      return InvalidArgumentError("PrefaultWorkingSet: unknown library id");
    }
    Library& entry = LibraryAt(id);
    if (entry.live_heap.load(std::memory_order_relaxed) == nullptr) {
      continue;  // released between batch assembly and prefault
    }
    // PolicyFor faults the key into a hardware slot without pinning it —
    // exactly the warm-up wanted here. It can still be evicted before the
    // batch runs; that only costs the fault-in this call tried to hoist.
    // (An id released and reused in between warms its new holder: harmless
    // for a hint.)
    PS_RETURN_IF_ERROR(
        vpkeys_->PolicyFor(entry.vkey.load(std::memory_order_relaxed)).status());
  }
  return Status::Ok();
}

void* MultiCompartment::AllocateIn(LibraryId library, size_t size) {
  FreeListHeap* heap = LibraryAt(library).live_heap.load(std::memory_order_acquire);
  return heap != nullptr ? heap->Allocate(size) : nullptr;
}

void MultiCompartment::Free(void* ptr) {
  if (ptr == nullptr) {
    return;
  }
  if (pools_->OwnerOf(ptr).has_value()) {
    pools_->Free(ptr);
    return;
  }
  const size_t library_count = libraries_.size();
  for (size_t i = 0; i < library_count; ++i) {
    Library* library = libraries_.at(i);
    if (library == nullptr) {
      continue;
    }
    // One acquire load decides liveness and ownership together: a released
    // library's pointers are no longer freeable (its pool is decommitted),
    // so they fall through to the foreign-pointer diagnostics below.
    FreeListHeap* heap = library->live_heap.load(std::memory_order_acquire);
    if (heap != nullptr && heap->Owns(ptr)) {
      heap->Free(ptr);
      return;
    }
  }
  // A tenant handed us a pointer no pool owns. Take the same diagnostics
  // path as pkalloc's canary aborts: bump the metric (visible in the crash
  // report's counter table via the flight recorder's SIGABRT hook) and die
  // with the address in the message instead of a bare check failure.
  ForeignFreeCounter()->Increment();
  PS_LOG(Fatal) << "multidomain: Free of foreign pointer 0x" << std::hex
                << reinterpret_cast<uintptr_t>(ptr) << std::dec
                << " owned by no compartment pool (trusted, shared, " << library_count
                << " libraries)";
}

std::optional<LibraryId> MultiCompartment::PrivateOwnerOf(const void* ptr) const {
  if (pools_->OwnerOf(ptr) == Domain::kTrusted) {
    return kTrustedLibrary;
  }
  const size_t library_count = libraries_.size();
  for (size_t i = 0; i < library_count; ++i) {
    const Library* library = libraries_.at(i);
    if (library == nullptr) {
      continue;
    }
    FreeListHeap* heap = library->live_heap.load(std::memory_order_acquire);
    if (heap != nullptr && heap->Owns(ptr)) {
      return static_cast<LibraryId>(i + 1);
    }
  }
  return std::nullopt;
}

PkruValue MultiCompartment::PolicyFor(LibraryId library) {
  if (library == kTrustedLibrary) {
    return PkruValue::AllowAll();
  }
  std::lock_guard lock(mu_);
  auto mask = vpkeys_->PolicyFor(LibraryAt(library).vkey.load(std::memory_order_relaxed));
  PS_CHECK(mask.ok()) << "PolicyFor(" << library << "): " << mask.status().ToString();
  return *mask;
}

void MultiCompartment::EnterLibrary(LibraryId library) {
  PS_CHECK_GE(library, 1u);
  const VirtualKeyId vkey = LibraryAt(library).vkey.load(std::memory_order_relaxed);
  // Resident key: pin with no lock and no RMW — the path bench_vpkey's
  // resident row measures. Evicted (or racing an eviction): fall into the
  // locked fault-in.
  std::optional<PkruValue> mask = vpkeys_->TryPinFast(vkey);
  if (!mask.has_value()) {
    std::lock_guard lock(mu_);
    auto pinned = vpkeys_->PinResident(vkey);
    PS_CHECK(pinned.ok()) << "EnterLibrary(" << library << "): " << pinned.status().ToString();
    mask = *pinned;
  }
  crossings_.Local().Add(0);
  CompartmentStack::Enter(backend_, Domain::kUntrusted, backend_->ReadPkru(), *mask,
                          /*verify=*/true);
}

void MultiCompartment::ExitLibrary() {
  // Restore the caller's rights first, then drop the pin: the key must stay
  // bound to its slot for as long as any installed PKRU can refer to it.
  CompartmentStack::Exit(backend_, Domain::kUntrusted, /*verify=*/true);
  crossings_.Local().Add(0);
  vpkeys_->UnpinFast();
}

size_t MultiCompartment::library_count() const { return libraries_.size(); }

size_t MultiCompartment::live_library_count() const {
  std::lock_guard lock(mu_);
  return libraries_.size() - free_ids_.size();
}

std::string MultiCompartment::library_name(LibraryId id) const {
  std::lock_guard lock(mu_);
  return LibraryAt(id).name;
}

PkeyId MultiCompartment::key_of(LibraryId id) const {
  std::lock_guard lock(mu_);
  return vpkeys_->CurrentHardwareKey(LibraryAt(id).vkey.load(std::memory_order_relaxed));
}

bool MultiCompartment::library_resident(LibraryId id) const {
  std::lock_guard lock(mu_);
  return vpkeys_->IsResident(LibraryAt(id).vkey.load(std::memory_order_relaxed));
}

VpkeyStats MultiCompartment::vpkey_stats() const {
  std::lock_guard lock(mu_);
  return vpkeys_->stats();
}

}  // namespace pkrusafe
