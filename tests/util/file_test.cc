#include "podium/util/file.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace podium::util {
namespace {

TEST(ReadFileTest, ReadsEveryByteIntoAnExactSizeString) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "podium_read_file.bin")
          .string();
  std::string bytes(200000, 'x');
  bytes[7] = '\0';
  bytes.back() = '\n';
  std::ofstream(path, std::ios::binary) << bytes;
  Result<std::string> text = ReadFile(path);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(text.value(), bytes);
  EXPECT_LT(text->capacity(), bytes.size() + 64);  // no doubling slack
  std::remove(path.c_str());
}

TEST(ReadFileTest, ReadsFilesWithoutASizeUpFront) {
  // /proc files report size 0; their bytes arrive by reading.
  Result<std::string> status = ReadFile("/proc/self/status");
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_NE(status->find("VmHWM"), std::string::npos);
}

TEST(ReadFileTest, KeepsTheIoErrorMessages) {
  Result<std::string> missing = ReadFile("/nonexistent/podium.json");
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
  EXPECT_EQ(missing.status().message(),
            "cannot open file: /nonexistent/podium.json");
  const std::string directory =
      std::filesystem::temp_directory_path().string();
  Result<std::string> unreadable = ReadFile(directory);
  EXPECT_EQ(unreadable.status().code(), StatusCode::kIoError);
  EXPECT_EQ(unreadable.status().message(), "error reading file: " + directory);
}

}  // namespace
}  // namespace podium::util
