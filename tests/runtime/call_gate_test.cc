#include "src/runtime/call_gate.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "src/memmap/page.h"
#include "src/mpk/sim_backend.h"

namespace pkrusafe {
namespace {

constexpr uintptr_t kTrustedAddr = 0x40000000;

class CallGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    auto key = backend_.AllocateKey();
    ASSERT_TRUE(key.ok());
    key_ = *key;
    ASSERT_TRUE(backend_.TagRange(kTrustedAddr, kPageSize, key_).ok());
    gates_ = std::make_unique<GateSet>(&backend_, key_);
  }

  void TearDown() override { SetCurrentThreadPkru(PkruValue::AllowAll()); }

  SimMpkBackend backend_;
  PkeyId key_ = 0;
  std::unique_ptr<GateSet> gates_;
};

TEST_F(CallGateTest, EnterUntrustedDropsTrustedAccess) {
  EXPECT_TRUE(backend_.CheckAccess(kTrustedAddr, AccessKind::kRead).ok());
  gates_->EnterUntrusted();
  EXPECT_FALSE(backend_.CheckAccess(kTrustedAddr, AccessKind::kRead).ok());
  gates_->ExitUntrusted();
  EXPECT_TRUE(backend_.CheckAccess(kTrustedAddr, AccessKind::kRead).ok());
}

TEST_F(CallGateTest, PkruRestoredExactly) {
  // DESIGN.md invariant 3: PKRU after return equals PKRU before the call,
  // whatever it was (§3.3: "we do not assume the previous permissions").
  const PkruValue odd = PkruValue::AllowAll().WithWriteDisabled(7);
  backend_.WritePkru(odd);
  gates_->EnterUntrusted();
  gates_->ExitUntrusted();
  EXPECT_EQ(backend_.ReadPkru(), odd);
}

TEST_F(CallGateTest, TrustedEntryRestoresAccessInsideUntrusted) {
  gates_->EnterUntrusted();
  ASSERT_FALSE(backend_.CheckAccess(kTrustedAddr, AccessKind::kRead).ok());
  // Callback from U into an exported trusted API.
  gates_->EnterTrusted();
  EXPECT_TRUE(backend_.CheckAccess(kTrustedAddr, AccessKind::kWrite).ok());
  gates_->ExitTrusted();
  EXPECT_FALSE(backend_.CheckAccess(kTrustedAddr, AccessKind::kRead).ok());
  gates_->ExitUntrusted();
}

TEST_F(CallGateTest, DeepNestingUnwindsCorrectly) {
  // The paper observed "deeply nested stack of compartment transitions" in
  // Servo's dom suite; each frame must restore its exact predecessor.
  constexpr int kDepth = 100;
  for (int i = 0; i < kDepth; ++i) {
    gates_->EnterUntrusted();
    gates_->EnterTrusted();
  }
  EXPECT_EQ(CompartmentStack::Depth(), size_t{2 * kDepth});
  EXPECT_TRUE(backend_.CheckAccess(kTrustedAddr, AccessKind::kRead).ok());
  for (int i = 0; i < kDepth; ++i) {
    gates_->ExitTrusted();
    gates_->ExitUntrusted();
  }
  EXPECT_EQ(CompartmentStack::Depth(), 0u);
  EXPECT_EQ(backend_.ReadPkru(), PkruValue::AllowAll());
}

TEST_F(CallGateTest, TransitionsAreCounted) {
  gates_->EnterUntrusted();
  gates_->ExitUntrusted();
  EXPECT_EQ(gates_->transition_count(), 2u);
  gates_->CallUntrusted([] {});
  EXPECT_EQ(gates_->transition_count(), 4u);
}

TEST_F(CallGateTest, TransitionsAreCountedPerDirection) {
  // Table 1 in the paper reports T->U and U->T separately; each Enter/Exit
  // pair contributes one crossing in each direction.
  gates_->EnterUntrusted();  // T -> U
  EXPECT_EQ(gates_->transitions_to_untrusted(), 1u);
  EXPECT_EQ(gates_->transitions_to_trusted(), 0u);
  gates_->EnterTrusted();  // U -> T (callback)
  gates_->ExitTrusted();   // T -> U (return to callback's caller)
  gates_->ExitUntrusted();  // U -> T
  EXPECT_EQ(gates_->transitions_to_untrusted(), 2u);
  EXPECT_EQ(gates_->transitions_to_trusted(), 2u);
  EXPECT_EQ(gates_->transition_count(), 4u);
}

TEST_F(CallGateTest, CallUntrustedUnwindsOnException) {
  // A throwing untrusted callable must not leak the untrusted PKRU or a
  // compartment-stack frame: the exception propagates through the gate the
  // same way a return does.
  EXPECT_THROW(gates_->CallUntrusted([]() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_EQ(CompartmentStack::Depth(), 0u);
  EXPECT_EQ(backend_.ReadPkru(), PkruValue::AllowAll());
  EXPECT_TRUE(backend_.CheckAccess(kTrustedAddr, AccessKind::kRead).ok());
  EXPECT_EQ(gates_->transition_count(), 2u);  // enter + unwind both counted
}

TEST_F(CallGateTest, CallTrustedUnwindsOnExceptionInsideUntrusted) {
  gates_->CallUntrusted([&] {
    EXPECT_THROW(gates_->CallTrusted([]() { throw std::logic_error("inner"); }),
                 std::logic_error);
    // Back in the untrusted frame: trusted memory is inaccessible again.
    EXPECT_EQ(CompartmentStack::CurrentDomain(), Domain::kUntrusted);
    EXPECT_FALSE(backend_.CheckAccess(kTrustedAddr, AccessKind::kRead).ok());
  });
  EXPECT_EQ(CompartmentStack::Depth(), 0u);
  EXPECT_EQ(backend_.ReadPkru(), PkruValue::AllowAll());
}

TEST_F(CallGateTest, CallUntrustedForwardsResult) {
  const int result = gates_->CallUntrusted([](int x) { return x * 2; }, 21);
  EXPECT_EQ(result, 42);
  EXPECT_EQ(CompartmentStack::Depth(), 0u);
}

TEST_F(CallGateTest, CallUntrustedRunsInUntrustedDomain) {
  bool denied_inside = false;
  gates_->CallUntrusted([&] {
    denied_inside = !backend_.CheckAccess(kTrustedAddr, AccessKind::kRead).ok();
  });
  EXPECT_TRUE(denied_inside);
}

TEST_F(CallGateTest, CallTrustedNestsInsideCallUntrusted) {
  int observed = 0;
  gates_->CallUntrusted([&] {
    observed = gates_->CallTrusted([&] {
      return backend_.CheckAccess(kTrustedAddr, AccessKind::kWrite).ok() ? 1 : -1;
    });
  });
  EXPECT_EQ(observed, 1);
}

TEST_F(CallGateTest, CurrentDomainTracksStack) {
  EXPECT_EQ(CompartmentStack::CurrentDomain(), Domain::kTrusted);
  gates_->EnterUntrusted();
  EXPECT_EQ(CompartmentStack::CurrentDomain(), Domain::kUntrusted);
  gates_->EnterTrusted();
  EXPECT_EQ(CompartmentStack::CurrentDomain(), Domain::kTrusted);
  gates_->ExitTrusted();
  gates_->ExitUntrusted();
  EXPECT_EQ(CompartmentStack::CurrentDomain(), Domain::kTrusted);
}

TEST_F(CallGateTest, ScopesAreRaii) {
  {
    UntrustedScope scope(*gates_);
    EXPECT_FALSE(backend_.CheckAccess(kTrustedAddr, AccessKind::kRead).ok());
    {
      TrustedScope inner(*gates_);
      EXPECT_TRUE(backend_.CheckAccess(kTrustedAddr, AccessKind::kRead).ok());
    }
    EXPECT_FALSE(backend_.CheckAccess(kTrustedAddr, AccessKind::kRead).ok());
  }
  EXPECT_TRUE(backend_.CheckAccess(kTrustedAddr, AccessKind::kRead).ok());
}

TEST_F(CallGateTest, StacksAreThreadLocal) {
  gates_->EnterUntrusted();
  size_t other_depth = 99;
  Domain other_domain = Domain::kUntrusted;
  std::thread t([&] {
    other_depth = CompartmentStack::Depth();
    other_domain = CompartmentStack::CurrentDomain();
  });
  t.join();
  EXPECT_EQ(other_depth, 0u);
  EXPECT_EQ(other_domain, Domain::kTrusted);
  gates_->ExitUntrusted();
}

TEST_F(CallGateTest, VerificationCanBeDisabled) {
  gates_->set_verify(false);
  EXPECT_FALSE(gates_->verify());
  gates_->CallUntrusted([] {});  // still balanced, just unverified
  EXPECT_EQ(backend_.ReadPkru(), PkruValue::AllowAll());
}

}  // namespace
}  // namespace pkrusafe
