/**
 * @file
 * Temporary file names for tests, unique per process.
 *
 * ctest runs every gtest-discovered case as its own process, and the
 * dedicated filter entries (telemetry_determinism, ckpt_roundtrip, ...)
 * run the same cases again in another; under ctest -j two processes
 * using one fixed name under TempDir() can read each other's
 * half-written file. Every name built here carries the process id.
 */

#ifndef EBCP_TESTS_TEMP_PATH_HH
#define EBCP_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

namespace ebcp_test
{

/** TempDir()/ebcp_<pid>_<name>. */
inline std::string
tempPath(const std::string &name)
{
    std::string dir = ::testing::TempDir();
    if (!dir.empty() && dir.back() != '/')
        dir += '/';
    return dir + "ebcp_" + std::to_string(::getpid()) + "_" + name;
}

/** A tempPath() that is removed when this object goes out of scope. */
struct TempFile
{
    explicit TempFile(const std::string &name) : path(tempPath(name)) {}
    ~TempFile() { std::remove(path.c_str()); }

    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;

    std::string path;
};

} // namespace ebcp_test

#endif // EBCP_TESTS_TEMP_PATH_HH
