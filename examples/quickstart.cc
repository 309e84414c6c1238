// Quickstart: the paper's artifact experiment E1 as a runnable walkthrough.
//
// A program allocates two trusted objects and passes one of them to an
// annotated unsafe library. We build it three times:
//   step 1 — enforcement with no profile: the library's access faults;
//   step 2 — profiling build: the access is recorded, execution continues;
//   step 3 — enforcement with the profile: the shared site now allocates
//            from M_U and the value visibly changes 0 -> 1337.
#include <cstdio>

#include "src/core/pkru_safe.h"

namespace {

constexpr const char* kProgram = R"(
module quickstart
untrusted "clib"
extern @clib_update(1) lib "clib"

func @main(0) {
entry:
  %0 = alloc 64          ; shared with the unsafe library
  %1 = alloc 64          ; private browser state
  store %0, 0, 0
  store %1, 0, 424242
  call @clib_update(%0)  ; gated FFI call
  %2 = load %0, 0        ; read back what the library wrote
  %3 = load %1, 0
  print %2
  print %3
  free %0
  free %1
  ret %2
}
)";

pkrusafe::ExternRegistry MakeExterns() {
  pkrusafe::ExternRegistry externs;
  // The unsafe library writes 1337 into the object it was handed. It runs in
  // the untrusted compartment and reaches memory through checked accesses.
  externs.Register("clib_update",
                   [](pkrusafe::Interpreter& interp,
                      const std::vector<int64_t>& args) -> pkrusafe::Result<int64_t> {
                     PS_RETURN_IF_ERROR(interp.StoreChecked(args[0], 1337));
                     return 0;
                   });
  return externs;
}

int Fail(const pkrusafe::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  using pkrusafe::AllocId;
  using pkrusafe::Profile;
  using pkrusafe::RuntimeMode;
  using pkrusafe::System;
  using pkrusafe::SystemConfig;

  std::printf("== PKRU-Safe quickstart (artifact experiment E1) ==\n\n");

  // ---- Step 1: enforcement, empty profile ----
  {
    SystemConfig config;
    config.mode = RuntimeMode::kEnforcing;
    auto system = System::Create(kProgram, config, MakeExterns());
    if (!system.ok()) {
      return Fail(system.status());
    }
    std::printf("[step 1] enforcing build, no profile: %zu sites, %zu gates\n",
                (*system)->total_alloc_sites(), (*system)->gates_inserted());
    auto result = (*system)->Call("main");
    std::printf("[step 1] run -> %s  (expected: denied — the library touched M_T)\n\n",
                result.ok() ? "OK (unexpected!)" : result.status().ToString().c_str());
  }

  // ---- Step 2: profiling build ----
  Profile profile;
  {
    SystemConfig config;
    config.mode = RuntimeMode::kProfiling;
    auto system = System::Create(kProgram, config, MakeExterns());
    if (!system.ok()) {
      return Fail(system.status());
    }
    auto result = (*system)->Call("main");
    if (!result.ok()) {
      return Fail(result.status());
    }
    profile = (*system)->TakeProfile();
    std::printf("[step 2] profiling run completed; recorded %zu shared allocation site(s):\n",
                profile.site_count());
    for (const AllocId& id : profile.Sites()) {
      std::printf("  %s %llu fault(s)\n", id.ToString().c_str(),
                  static_cast<unsigned long long>(profile.CountFor(id)));
    }
  }

  // ---- Step 3: enforcement with the profile ----
  {
    SystemConfig config;
    config.mode = RuntimeMode::kEnforcing;
    config.profile = profile;
    auto system = System::Create(kProgram, config, MakeExterns());
    if (!system.ok()) {
      return Fail(system.status());
    }
    std::printf("[step 3] enforcing build with profile: %zu of %zu sites moved to M_U\n",
                (*system)->sites_moved_to_untrusted(), (*system)->total_alloc_sites());
    auto result = (*system)->Call("main");
    if (!result.ok()) {
      return Fail(result.status());
    }
    const auto& out = (*system)->interpreter().output();
    std::printf("[step 3] run -> shared value %lld (0 -> 1337), private value %lld (intact)\n",
                static_cast<long long>(out[0]), static_cast<long long>(out[1]));
    std::printf("\nInstrumented IR:\n%s", (*system)->DumpIr().c_str());
  }
  return 0;
}
