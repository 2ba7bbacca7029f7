// Scaffolding shared by the tests that touch the file system or exec the
// ccfuzz CLI.
#pragma once

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>
#include <system_error>

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/fs.h"

namespace ccfuzz::test {

/// Fixture base: each test gets `base_`, an empty directory of its own under
/// the system temp directory, removed after the test. The name carries the
/// pid and the full test name, since ctest runs every case in its own
/// process, in parallel. Made in the constructor and removed in the
/// destructor, so derived fixtures keep their own SetUp/TearDown.
class ScratchDirTest : public ::testing::Test {
 protected:
  ScratchDirTest() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "." +
                       info->name();
    std::replace(name.begin(), name.end(), '/', '_');
    base_ = std::filesystem::temp_directory_path() /
            ("ccfuzz_" + std::to_string(::getpid()) + "_" + name);
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
  }
  ~ScratchDirTest() override {
    std::error_code ec;
    std::filesystem::remove_all(base_, ec);
  }

  std::filesystem::path base_;
};

/// The ccfuzz CLI of this build.
inline const char* ccfuzz_binary() { return CCFUZZ_TOOLS_DIR "/ccfuzz"; }

/// ScratchDirTest for tests that fork+exec the ccfuzz CLI (fork without exec
/// is unsafe once the test binary's thread pool exists); skipped when the
/// CLI is not built.
class CliTest : public ScratchDirTest {
 protected:
  void SetUp() override {
    if (!std::filesystem::exists(ccfuzz_binary())) {
      GTEST_SKIP() << "ccfuzz CLI not built at " << ccfuzz_binary();
    }
  }
};

/// Waits for child `pid` and returns its wait status.
inline int wait_exit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

/// The bytes of the file at `p`, or "" when it cannot be read.
inline std::string slurp(const std::filesystem::path& p) {
  Result<std::string> body = read_file(p.string());
  return body ? *body : std::string();
}

/// Expects every file `rels` names to exist under `dir` and to equal, byte
/// for byte, its namesake under `ref`.
inline void expect_same_files(const std::filesystem::path& dir,
                              const std::filesystem::path& ref,
                              std::initializer_list<const char*> rels) {
  for (const char* rel : rels) {
    ASSERT_TRUE(std::filesystem::exists(dir / rel)) << rel;
    EXPECT_EQ(slurp(dir / rel), slurp(ref / rel))
        << rel << " differs from " << (ref / rel);
  }
}

/// Expects the JSONL feed at `feed` to be non-empty and to hold only whole
/// `{...}` lines — what a reader sees even after the writer was SIGKILLed.
inline void expect_whole_json_lines(const std::filesystem::path& feed) {
  std::ifstream is(feed);
  std::string line;
  bool any = false;
  while (std::getline(is, line)) {
    any = true;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  EXPECT_TRUE(any) << feed << " is empty";
}

}  // namespace ccfuzz::test
