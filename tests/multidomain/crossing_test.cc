// A request's crossings, end to end: a GateSet gate (CallUntrusted), a
// library Scope inside it and a TrustedScope callback inside that, on every
// backend (hardware skips without PKU). Each level must restore exactly the
// PKRU it found, also when an exception unwinds through it, and a library
// crossing must be verified and traced like any gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/mpk/backend_factory.h"
#include "src/mpk/sim_backend.h"
#include "src/multidomain/multi_compartment.h"
#include "src/runtime/call_gate.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {
namespace {

class CrossingTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    auto backend = CreateMpkBackend(*ParseBackendKind(GetParam()));
    if (!backend.ok()) {
      GTEST_SKIP() << GetParam() << " backend unavailable: " << backend.status().ToString();
    }
    backend_ = std::move(*backend);
    backend_->WritePkru(PkruValue::AllowAll());
    PkAllocatorConfig pool_config;
    pool_config.trusted_pool_bytes = size_t{1} << 20;
    pool_config.untrusted_pool_bytes = size_t{1} << 20;
    auto pools = PkAllocator::Create(backend_.get(), pool_config);
    ASSERT_TRUE(pools.ok()) << pools.status().ToString();
    pools_ = std::move(*pools);
    MultiCompartmentConfig config;
    config.library_pool_bytes = size_t{1} << 20;
    auto mc = MultiCompartment::Create(pools_.get(), config);
    ASSERT_TRUE(mc.ok()) << mc.status().ToString();
    mc_ = std::move(*mc);
    auto library = mc_->RegisterLibrary("tenant");
    ASSERT_TRUE(library.ok()) << library.status().ToString();
    library_ = *library;
    gates_ = std::make_unique<GateSet>(backend_.get(), pools_->trusted_key());
  }

  void TearDown() override {
    gates_.reset();
    mc_.reset();
    pools_.reset();
    if (backend_ != nullptr) {
      backend_->WritePkru(PkruValue::AllowAll());
    }
  }

  std::unique_ptr<MpkBackend> backend_;
  std::unique_ptr<PkAllocator> pools_;
  std::unique_ptr<MultiCompartment> mc_;
  std::unique_ptr<GateSet> gates_;
  LibraryId library_ = 0;
};

TEST_P(CrossingTest, EveryLevelRestoresTheExactPkru) {
  const PkruValue outer = backend_->ReadPkru();
  const PkruValue library_mask = mc_->PolicyFor(library_);
  PkruValue in_gate;
  PkruValue in_scope;
  PkruValue in_callback;
  PkruValue after_callback;
  PkruValue after_scope;
  gates_->CallUntrusted([&] {
    in_gate = backend_->ReadPkru();
    {
      MultiCompartment::Scope scope(*mc_, library_);
      in_scope = backend_->ReadPkru();
      {
        TrustedScope callback(*gates_);
        in_callback = backend_->ReadPkru();
        EXPECT_EQ(CompartmentStack::Depth(), 3u);
        EXPECT_EQ(CompartmentStack::CurrentDomain(), Domain::kTrusted);
      }
      after_callback = backend_->ReadPkru();
      EXPECT_EQ(CompartmentStack::CurrentDomain(), Domain::kUntrusted);
    }
    after_scope = backend_->ReadPkru();
  });
  EXPECT_EQ(in_gate, outer.WithAccessDisabled(pools_->trusted_key()));
  EXPECT_EQ(in_scope, library_mask);
  EXPECT_EQ(in_callback, library_mask.WithKeyAllowed(pools_->trusted_key()));
  EXPECT_EQ(after_callback, in_scope);
  EXPECT_EQ(after_scope, in_gate);
  EXPECT_EQ(backend_->ReadPkru(), outer);
  EXPECT_EQ(CompartmentStack::Depth(), 0u);
}

TEST_P(CrossingTest, ExceptionInALibraryScopeUnwindsBothFrames) {
  const PkruValue outer = backend_->ReadPkru();
  EXPECT_THROW(gates_->CallUntrusted([&] {
    MultiCompartment::Scope scope(*mc_, library_);
    throw std::runtime_error("script error");
  }),
               std::runtime_error);
  EXPECT_EQ(backend_->ReadPkru(), outer);
  EXPECT_EQ(CompartmentStack::Depth(), 0u);
  // The Scope's pin was dropped too: the library can be released.
  EXPECT_TRUE(mc_->ReleaseLibrary(library_).ok());
}

TEST_P(CrossingTest, OneRequestIsOneGateCrossingEachWay) {
  // A fresh gate set per test: its counts start at zero.
  const uint64_t library_crossings = mc_->transition_count();
  gates_->CallUntrusted([&] { MultiCompartment::Scope scope(*mc_, library_); });
  EXPECT_EQ(gates_->transitions_to_untrusted(), 1u);
  EXPECT_EQ(gates_->transitions_to_trusted(), 1u);
  EXPECT_EQ(mc_->transition_count() - library_crossings, 2u);
}

INSTANTIATE_TEST_SUITE_P(Backends, CrossingTest,
                         ::testing::Values("sim", "mprotect", "hardware"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           return std::string(param.param);
                         });

// Loses the next PKRU write once armed, as a gate whose WRPKRU did not take
// effect would.
class DroppingBackend : public SimMpkBackend {
 public:
  void WritePkru(PkruValue value) override {
    if (drop_next_) {
      drop_next_ = false;
      return;
    }
    SimMpkBackend::WritePkru(value);
  }
  void DropNextWrite() { drop_next_ = true; }

 private:
  bool drop_next_ = false;
};

class LibraryCrossingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    PkAllocatorConfig pool_config;
    pool_config.trusted_pool_bytes = size_t{1} << 20;
    pool_config.untrusted_pool_bytes = size_t{1} << 20;
    auto pools = PkAllocator::Create(&backend_, pool_config);
    ASSERT_TRUE(pools.ok()) << pools.status().ToString();
    pools_ = std::move(*pools);
    MultiCompartmentConfig config;
    config.library_pool_bytes = size_t{1} << 20;
    auto mc = MultiCompartment::Create(pools_.get(), config);
    ASSERT_TRUE(mc.ok()) << mc.status().ToString();
    mc_ = std::move(*mc);
    library_ = *mc_->RegisterLibrary("tenant");
    { MultiCompartment::Scope warm(*mc_, library_); }  // resident from here on
  }

  void TearDown() override {
    mc_.reset();
    pools_.reset();
    SetCurrentThreadPkru(PkruValue::AllowAll());
  }

  DroppingBackend backend_;
  std::unique_ptr<PkAllocator> pools_;
  std::unique_ptr<MultiCompartment> mc_;
  LibraryId library_ = 0;
};

TEST_F(LibraryCrossingTest, ADroppedPkruWriteIsCaught) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        backend_.DropNextWrite();
        MultiCompartment::Scope scope(*mc_, library_);
      },
      "PKRU verification failed");
}

TEST_F(LibraryCrossingTest, AScopeIsTracedAsOneGatePair) {
  telemetry::ResetForTesting();
  telemetry::SetEnabled(true);
  { MultiCompartment::Scope scope(*mc_, library_); }
  telemetry::SetEnabled(false);
  const std::vector<telemetry::TraceEvent> events = telemetry::CollectTrace();
  const auto count = [&](telemetry::TraceEventType type) {
    return std::count_if(events.begin(), events.end(),
                         [&](const telemetry::TraceEvent& event) { return event.type == type; });
  };
  EXPECT_EQ(count(telemetry::TraceEventType::kGateEnter), 1);
  EXPECT_EQ(count(telemetry::TraceEventType::kGateExit), 1);
  const auto enter = std::find_if(events.begin(), events.end(), [](const auto& event) {
    return event.type == telemetry::TraceEventType::kGateEnter;
  });
  ASSERT_NE(enter, events.end());
  EXPECT_EQ(enter->detail,
            static_cast<uint8_t>(telemetry::TraceDirection::kTrustedToUntrusted));
  EXPECT_EQ(enter->b, mc_->PolicyFor(library_).raw());
  telemetry::ResetForTesting();
}

}  // namespace
}  // namespace pkrusafe
