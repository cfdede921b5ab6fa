// Unit tests for the atomic whole-file writer and the whole-file reader
// (util/atomic_file.hpp).
#include "testing/temp_path.hpp"
#include "util/atomic_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "util/check.hpp"

namespace ftc::util {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class AtomicFile : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = testing::temp_path("ftc_atomic_file_test");
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    fs::path dir_;
};

TEST_F(AtomicFile, WritesNewFile) {
    const fs::path target = dir_ / "out.txt";
    atomic_write_file(target, std::string_view{"hello"});
    EXPECT_EQ(slurp(target), "hello");
}

TEST_F(AtomicFile, ReplacesExistingFileCompletely) {
    const fs::path target = dir_ / "out.txt";
    atomic_write_file(target, std::string_view{"a much longer first version"});
    atomic_write_file(target, std::string_view{"short"});
    EXPECT_EQ(slurp(target), "short");
}

TEST_F(AtomicFile, WritesBinaryBytesExactly) {
    const fs::path target = dir_ / "out.bin";
    byte_vector bytes;
    for (int i = 0; i < 256; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(i));
    }
    atomic_write_file(target, byte_view{bytes});
    const std::string back = slurp(target);
    ASSERT_EQ(back.size(), 256u);
    for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(static_cast<std::uint8_t>(back[static_cast<std::size_t>(i)]), i);
    }
}

TEST_F(AtomicFile, LeavesNoTemporaryBehind) {
    const fs::path target = dir_ / "out.txt";
    atomic_write_file(target, std::string_view{"payload"});
    std::size_t entries = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
        (void)entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST_F(AtomicFile, UnwritableTargetThrowsAndPreservesOriginal) {
    const fs::path target = dir_ / "no_such_subdir" / "out.txt";
    // Parent directory does not exist: the temp file cannot even be created.
    EXPECT_THROW(atomic_write_file(target, std::string_view{"x"}), ftc::error);
    EXPECT_FALSE(fs::exists(target));
}

TEST_F(AtomicFile, EmptyPayloadMakesEmptyFile) {
    const fs::path target = dir_ / "empty.txt";
    atomic_write_file(target, std::string_view{""});
    EXPECT_TRUE(fs::exists(target));
    EXPECT_EQ(fs::file_size(target), 0u);
}

TEST_F(AtomicFile, ReadFileReturnsWhatWasWritten) {
    // Empty, one byte, and sizes around the 64 KiB chunk a read beyond
    // the reported size grows by.
    for (const std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{65535},
                                   std::size_t{65536}, std::size_t{200000}}) {
        byte_vector bytes(size);
        for (std::size_t i = 0; i < size; ++i) {
            bytes[i] = static_cast<std::uint8_t>(i * 31 + 7);
        }
        const fs::path target = dir_ / "round.bin";
        atomic_write_file(target, byte_view{bytes});
        const std::optional<byte_vector> back = read_file(target);
        ASSERT_TRUE(back.has_value()) << size;
        EXPECT_EQ(*back, bytes) << size;
    }
}

TEST_F(AtomicFile, ReadFileOfMissingFileOrDirectoryIsNullopt) {
    EXPECT_FALSE(read_file(dir_ / "missing.bin").has_value());
    EXPECT_FALSE(read_file(dir_).has_value());
}

}  // namespace
}  // namespace ftc::util
