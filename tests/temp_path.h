// Per-test temp-file paths. gtest_discover_tests runs every test as its
// own process, so under `ctest -j` two tests of one fixture run at once;
// a fixed path shared by the fixture lets one test overwrite or delete
// the other's file.

#ifndef VAQ_TESTS_TEMP_PATH_H_
#define VAQ_TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace vaq {

/// "/tmp/<stem>.<Suite>.<Test>.<pid>.bin" for the running test.
inline std::string TestTempPath(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return "/tmp/" + stem + "." + info->test_suite_name() + "." + info->name() +
         "." + std::to_string(getpid()) + ".bin";
}

}  // namespace vaq

#endif  // VAQ_TESTS_TEMP_PATH_H_
