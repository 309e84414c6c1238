// Byte-for-byte golden comparison for emitter tests. A golden file holds the
// exact bytes an emitter produced for a fixed input, so any drift in an
// output format shows up as a diff.
#ifndef TESTS_GOLDEN_FILE_H_
#define TESTS_GOLDEN_FILE_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef PKRUSAFE_TEST_GOLDEN_DIR
#error "build must define PKRUSAFE_TEST_GOLDEN_DIR"
#endif

namespace pkrusafe {
namespace golden {

// Compares `actual` with PKRUSAFE_TEST_GOLDEN_DIR/`name`. With
// PKRUSAFE_REGOLDEN set in the environment the file is rewritten from
// `actual` instead and the test is skipped.
inline void ExpectMatches(const std::string& actual, const std::string& name) {
  const std::string path = std::string(PKRUSAFE_TEST_GOLDEN_DIR) + "/" + name;
  if (std::getenv("PKRUSAFE_REGOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "output drifted from " << path
      << "; rerun with PKRUSAFE_REGOLDEN=1 if the change is intentional";
}

}  // namespace golden
}  // namespace pkrusafe

#endif  // TESTS_GOLDEN_FILE_H_
