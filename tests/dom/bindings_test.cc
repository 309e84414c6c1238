// Unit tests for the VM<->DOM bindings layer (the mozjs stand-in).
#include "src/dom/bindings.h"

#include <gtest/gtest.h>

namespace pkrusafe {
namespace {

class BindingsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    RuntimeConfig config;
    config.backend = BackendKind::kSim;
    config.mode = RuntimeMode::kDisabled;
    auto runtime = PkruSafeRuntime::Create(std::move(config));
    ASSERT_TRUE(runtime.ok());
    runtime_ = std::move(*runtime);
    document_ = std::make_unique<Document>(runtime_.get());
    vm_ = std::make_unique<Vm>(runtime_.get());
    bindings_ = std::make_unique<DomBindings>(document_.get(), vm_.get());
  }

  // Runs a script, expecting success; returns print output.
  std::vector<std::string> Run(const std::string& source) {
    const Status load = vm_->Load(source);
    EXPECT_TRUE(load.ok()) << load.ToString();
    auto result = vm_->Run();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return vm_->print_output();
  }

  Status RunExpectingError(const std::string& source) {
    Status load = vm_->Load(source);
    if (!load.ok()) {
      return load;
    }
    return vm_->Run().status();
  }

  std::unique_ptr<PkruSafeRuntime> runtime_;
  std::unique_ptr<Document> document_;
  std::unique_ptr<Vm> vm_;
  std::unique_ptr<DomBindings> bindings_;
};

TEST_F(BindingsTest, CreateAppendAndCount) {
  auto out = Run(R"(
let root = dom_root();
let div = dom_create_element("div");
dom_append_child(root, div);
print(dom_node_count());
)");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "2");  // html root + div
  EXPECT_EQ(document_->root()->first_child->tag_view(), "div");
}

TEST_F(BindingsTest, IdsRoundTripThroughScript) {
  auto out = Run(R"(
let e = dom_create_element("p");
dom_append_child(dom_root(), e);
dom_set_id(e, "para");
let found = dom_get_by_id("para");
print(found == e);
print(dom_get_by_id("missing") == null);
)");
  EXPECT_EQ(out[0], "true");
  EXPECT_EQ(out[1], "true");
}

TEST_F(BindingsTest, TextCreationAndMarshalledRead) {
  auto out = Run(R"(
let t = dom_create_text("payload");
dom_append_child(dom_root(), t);
print(dom_get_text(t));
print(dom_text_len(t));
print(dom_char_at(t, 0));
print(dom_text_sum(t));
)");
  EXPECT_EQ(out[0], "payload");
  EXPECT_EQ(out[1], "7");
  EXPECT_EQ(out[2], "112");  // 'p'
  EXPECT_EQ(out[3], "746");  // 112+97+121+108+111+97+100
}

TEST_F(BindingsTest, SetTextInvalidatesCachedReference) {
  auto out = Run(R"(
let t = dom_create_text("aaaa");
dom_append_child(dom_root(), t);
let before = dom_text_sum(t);
dom_set_text(t, "zz");
let after = dom_text_sum(t);
print(before);
print(after);
)");
  EXPECT_EQ(out[0], "388");  // 4 * 'a'
  EXPECT_EQ(out[1], "244");  // 2 * 'z'
}

TEST_F(BindingsTest, InnerHtmlAndLayoutFromScript) {
  auto out = Run(R"(
let n = dom_inner_html(dom_root(), "<div>hello</div><div>world</div>");
print(n);
print(dom_layout(800));
)");
  EXPECT_EQ(out[0], "4");
  EXPECT_EQ(out[1], "32");
}

TEST_F(BindingsTest, RemoveDropsSubtreeAndHandles) {
  auto out = Run(R"(
let div = dom_create_element("div");
dom_append_child(dom_root(), div);
let t = dom_create_text("inner");
dom_append_child(div, t);
let before = dom_node_count();
dom_remove(div);
print(before);
print(dom_node_count());
)");
  EXPECT_EQ(out[0], "3");
  EXPECT_EQ(out[1], "1");
}

TEST_F(BindingsTest, ErrorsOnBadHandles) {
  EXPECT_FALSE(RunExpectingError("dom_append_child(9999, 9998);").ok());
  EXPECT_FALSE(RunExpectingError("dom_set_text(9999, \"x\");").ok());
  EXPECT_FALSE(RunExpectingError("dom_get_text(9999);").ok());
  EXPECT_FALSE(RunExpectingError("dom_remove(9999);").ok());
  EXPECT_FALSE(RunExpectingError("dom_text_sum(9999);").ok());
}

TEST_F(BindingsTest, ErrorsOnWrongArgumentTypes) {
  EXPECT_FALSE(RunExpectingError("dom_create_element(42);").ok());
  EXPECT_FALSE(RunExpectingError("dom_get_by_id(42);").ok());
  EXPECT_FALSE(RunExpectingError("dom_layout(\"wide\");").ok());
}

// Host calls are not arity-checked at compile time and their arguments are
// a view of the operand stack: a binding called with too few arguments
// must refuse, not read past them.
TEST_F(BindingsTest, ErrorsOnMissingArguments) {
  EXPECT_EQ(RunExpectingError("dom_create_element();").message(), "expected a string");
  EXPECT_EQ(RunExpectingError("dom_set_id(dom_root());").message(), "expected a string");
  EXPECT_EQ(RunExpectingError("dom_append_child(dom_root());").message(),
            "expected a node handle");
  EXPECT_EQ(RunExpectingError("dom_layout();").message(), "viewport width must be a number");
  EXPECT_EQ(RunExpectingError("let t = dom_create_text(\"ab\"); dom_char_at(t);").message(),
            "index must be a number");
}

TEST_F(BindingsTest, CharAtBoundsChecked) {
  EXPECT_FALSE(RunExpectingError(R"(
let t = dom_create_text("ab");
dom_append_child(dom_root(), t);
dom_char_at(t, 2);
)")
                   .ok());
}

TEST_F(BindingsTest, MalformedHtmlSurfacesAsScriptError) {
  EXPECT_FALSE(RunExpectingError("dom_inner_html(dom_root(), \"<div>\");").ok());
}

TEST_F(BindingsTest, CallCountersAdvance) {
  Run(R"(
let t = dom_create_text("count me");
dom_append_child(dom_root(), t);
dom_text_sum(t);
)");
  EXPECT_GT(bindings_->trusted_calls(), 0u);
  EXPECT_GT(bindings_->untrusted_reads(), 0u);
}

}  // namespace
}  // namespace pkrusafe
