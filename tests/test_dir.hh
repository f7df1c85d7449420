/**
 * @file
 * Hermetic per-test scratch directories.
 *
 * ctest runs every gtest case in its own process, in parallel, from
 * one shared working directory, so a fixture that writes to a fixed
 * path races its siblings (and the same case in a concurrent ctest
 * invocation). ScopedTestDir gives each test a fresh directory named
 * after the running test and the process id, and removes it when the
 * test ends.
 */

#ifndef JSCALE_TESTS_TEST_DIR_HH
#define JSCALE_TESTS_TEST_DIR_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace jscale::testutil {

class ScopedTestDir
{
  public:
    ScopedTestDir()
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = "jscale-test";
        if (info != nullptr)
            name += std::string("-") + info->test_suite_name() + "." +
                    info->name();
        name += "-" + std::to_string(::getpid());
        // Parameterized names carry '/'; keep the directory flat.
        for (char &c : name)
            c = c == '/' ? '_' : c;
        path_ = (std::filesystem::temp_directory_path() / name).string();
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~ScopedTestDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ScopedTestDir(const ScopedTestDir &) = delete;
    ScopedTestDir &operator=(const ScopedTestDir &) = delete;

    const std::string &path() const { return path_; }

    /** Path of @p name inside the directory. */
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

} // namespace jscale::testutil

#endif // JSCALE_TESTS_TEST_DIR_HH
