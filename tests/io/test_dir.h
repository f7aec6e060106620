// Per-test scratch directories for the io suites. ctest runs every test
// case in its own process, concurrently under -j, so two tests writing the
// same file name into testing::TempDir() race each other. Each test writes
// under a directory named after itself instead.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace mch::io {

/// testing::TempDir()/<Suite>.<Test>, created on first use.
inline std::string test_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (std::string(info->test_suite_name()) + "." + info->name());
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace mch::io
