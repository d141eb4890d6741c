/**
 * @file
 * Test entry point. Library configs read RIO_* knobs from the
 * environment in their default initializers, so a knob the caller's
 * shell exports (RIO_T1_POSTCRASH, RIO_MC_OPS, ...) would silently
 * change what a test runs. Scrub them all before any test starts;
 * tests that exercise a knob set it themselves. RIO_FUZZ_PROFILE
 * only adds diagnostic output and is kept.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

int
main(int argc, char **argv)
{
    std::vector<std::string> inherited;
    for (char **env = environ; *env != nullptr; ++env) {
        const std::string_view entry(*env);
        const std::string_view name = entry.substr(0, entry.find('='));
        if (name.starts_with("RIO_") && name != "RIO_FUZZ_PROFILE")
            inherited.emplace_back(name);
    }
    for (const std::string &name : inherited)
        ::unsetenv(name.c_str());

    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
