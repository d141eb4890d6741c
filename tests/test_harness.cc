/**
 * @file
 * Tests for the experiment harness: single crash-campaign runs on
 * each system, cell accounting, Table 1 rendering, the performance
 * runner on one preset, and the report formatter.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include "harness/crashcampaign.hh"
#include "harness/perfrun.hh"
#include "harness/report.hh"

using namespace rio;

TEST(Report, TableAlignsColumns)
{
    harness::Table table({"a", "long header", "x"});
    table.addRow({"1", "2", "3"});
    table.addSeparator();
    table.addRow({"wide cell", "", "9"});
    const std::string out = table.render();
    EXPECT_NE(out.find("| a "), std::string::npos);
    EXPECT_NE(out.find("| long header "), std::string::npos);
    EXPECT_NE(out.find("| wide cell "), std::string::npos);
    // Every line has the same length.
    std::size_t lineLen = out.find('\n');
    for (std::size_t pos = 0; pos < out.size();) {
        const std::size_t next = out.find('\n', pos);
        EXPECT_EQ(next - pos, lineLen);
        pos = next + 1;
    }
}

TEST(Report, FmtRounds)
{
    EXPECT_EQ(harness::fmt(1.25, 1), "1.2");
    EXPECT_EQ(harness::fmt(1.0, 0), "1");
    EXPECT_EQ(harness::fmt(3.14159, 3), "3.142");
}

TEST(Campaign, RunOneOnEachSystemKind)
{
    harness::CampaignConfig config;
    config.crashesPerCell = 1;
    harness::CrashCampaign campaign(config);
    for (int system = 0; system < 3; ++system) {
        // Try a handful of seeds until one crashes.
        bool crashed = false;
        for (u64 seed = 1; seed <= 10 && !crashed; ++seed) {
            const auto run = campaign.runOne(
                static_cast<harness::SystemKind>(system),
                fault::FaultType::PointerCorruption, seed * 17);
            if (run.discarded)
                continue;
            crashed = true;
            EXPECT_TRUE(run.crashed);
            EXPECT_FALSE(run.message.empty());
        }
        EXPECT_TRUE(crashed);
    }
}

TEST(Campaign, RioRunReportsWarmRebootActivity)
{
    harness::CampaignConfig config;
    harness::CrashCampaign campaign(config);
    for (u64 seed = 1; seed <= 12; ++seed) {
        const auto run =
            campaign.runOne(harness::SystemKind::RioNoProtection,
                            fault::FaultType::DeleteBranch, seed * 31);
        if (run.discarded)
            continue;
        EXPECT_GT(run.warm.entriesSeen, 0u);
        return;
    }
    FAIL() << "no run crashed in 12 attempts";
}

TEST(Campaign, CellCollectsRequestedCrashes)
{
    harness::CampaignConfig config;
    config.crashesPerCell = 2;
    harness::CrashCampaign campaign(config);
    harness::CampaignResult result;
    const auto cell =
        campaign.runCell(harness::SystemKind::RioNoProtection,
                         fault::FaultType::BitFlipHeap, result);
    EXPECT_EQ(cell.crashes, 2u);
    EXPECT_GE(cell.attempts, cell.crashes);
    EXPECT_FALSE(result.uniqueErrorMessages.empty());
}

TEST(Campaign, Table1RendererShowsAllRows)
{
    harness::CampaignConfig config;
    harness::CampaignResult result;
    result.cells[1][10].crashes = 50;
    result.cells[1][10].corruptions = 4;
    const std::string out =
        harness::CrashCampaign::renderTable1(result, config);
    for (std::size_t type = 0; type < fault::kNumFaultTypes; ++type) {
        EXPECT_NE(out.find(fault::faultTypeName(
                      static_cast<fault::FaultType>(type))),
                  std::string::npos);
    }
    EXPECT_NE(out.find("4 of 50"), std::string::npos);
}

TEST(Perf, SinglePresetProducesPositiveTimes)
{
    harness::PerfConfig config;
    config.cprmBytes = 2ull << 20; // Keep the test fast.
    config.andrewFiles = 10;
    harness::PerfRun perf(config);
    const auto row = perf.runPreset(os::SystemPreset::RioProtected);
    EXPECT_GT(row.cprmCopySeconds, 0.0);
    EXPECT_GT(row.cprmRmSeconds, 0.0);
    EXPECT_GT(row.sdetSeconds, 0.0);
    EXPECT_GT(row.andrewSeconds, 0.0);
}

TEST(Perf, Table2RendererShowsSystems)
{
    std::vector<harness::PerfRow> rows(1);
    rows[0].preset = os::SystemPreset::RioProtected;
    rows[0].cprmCopySeconds = 18;
    rows[0].cprmRmSeconds = 7;
    rows[0].sdetSeconds = 42;
    rows[0].andrewSeconds = 13;
    const std::string out = harness::PerfRun::renderTable2(rows);
    EXPECT_NE(out.find("Rio with protection"), std::string::npos);
    EXPECT_NE(out.find("25.0 (18.0+7.0)"), std::string::npos);
}

TEST(Campaign, DiskSystemSkipsWarmReboot)
{
    harness::CampaignConfig config;
    harness::CrashCampaign campaign(config);
    for (u64 seed = 1; seed <= 12; ++seed) {
        const auto run =
            campaign.runOne(harness::SystemKind::DiskWriteThrough,
                            fault::FaultType::DeleteRandomInst,
                            seed * 41);
        if (run.discarded)
            continue;
        EXPECT_EQ(run.warm.entriesSeen, 0u);
        EXPECT_EQ(run.protectionSaves, 0u);
        return;
    }
    FAIL() << "no run crashed in 12 attempts";
}

namespace
{

/** Scoped setenv: restores the prior value (or unset) on exit. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr) {
            hadOld_ = true;
            old_ = old;
        }
        ::setenv(name, value, 1);
    }

    ~EnvGuard()
    {
        if (hadOld_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool hadOld_ = false;
    std::string old_;
};

} // namespace

TEST(EnvStrict, UnsetOrEmptyUsesFallbackEvenBelowMinimum)
{
    ::unsetenv("RIO_TEST_KNOB");
    EXPECT_EQ(harness::envU64Strict("RIO_TEST_KNOB", 0), 0u);
    EXPECT_EQ(harness::envU64Strict("RIO_TEST_KNOB", 26), 26u);
    EnvGuard guard("RIO_TEST_KNOB", "");
    EXPECT_EQ(harness::envU64Strict("RIO_TEST_KNOB", 7), 7u);
}

TEST(EnvStrict, CleanValueParses)
{
    EnvGuard guard("RIO_TEST_KNOB", "8");
    EXPECT_EQ(harness::envU64Strict("RIO_TEST_KNOB", 1), 8u);
}

TEST(EnvStrict, ExplicitZeroRejected)
{
    EnvGuard guard("RIO_TEST_KNOB", "0");
    EXPECT_THROW(harness::envU64Strict("RIO_TEST_KNOB", 4),
                 std::invalid_argument);
}

TEST(EnvStrict, GarbageRejectedLoudly)
{
    for (const char *bad : {"abc", "5x", "-1", "0x10", "1.5", "+"}) {
        EnvGuard guard("RIO_TEST_KNOB", bad);
        EXPECT_THROW(harness::envU64Strict("RIO_TEST_KNOB", 4),
                     std::invalid_argument)
            << "accepted garbage value \"" << bad << "\"";
    }
}

TEST(EnvStrict, ErrorMessageNamesKnobAndRemedy)
{
    EnvGuard guard("RIO_T1_JOBS", "banana");
    try {
        harness::envU64Strict("RIO_T1_JOBS", 0);
        FAIL() << "garbage RIO_T1_JOBS did not throw";
    } catch (const std::invalid_argument &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("RIO_T1_JOBS"), std::string::npos);
        EXPECT_NE(what.find("banana"), std::string::npos);
        EXPECT_NE(what.find("unset it for the default"),
                  std::string::npos);
    }
}

TEST(EnvStrict, CampaignConfigRejectsZeroJobs)
{
    // RIO_T1_JOBS=0 must fail loudly at config construction instead
    // of silently running the campaign single-threaded (or worse).
    EnvGuard guard("RIO_T1_JOBS", "0");
    EXPECT_THROW(harness::CampaignConfig{}, std::invalid_argument);
}

TEST(Hermetic, TestsInheritNoRioKnobs)
{
    // tests/main.cc scrubs RIO_* before any test runs, so library
    // configs see their documented defaults whatever the caller's
    // shell exports (CI runs the suite with two knobs exported to
    // prove it). RIO_FUZZ_PROFILE only adds output and is kept.
    for (char **env = environ; *env != nullptr; ++env) {
        const std::string entry(*env);
        if (entry.starts_with("RIO_FUZZ_PROFILE="))
            continue;
        EXPECT_FALSE(entry.starts_with("RIO_")) << entry;
    }
    const harness::CampaignConfig config;
    EXPECT_EQ(config.postCrashIntensity, 0.0);
    EXPECT_TRUE(config.hardenedRecovery);
}

TEST(EnvStrict, CampaignConfigAcceptsUnsetJobs)
{
    ::unsetenv("RIO_T1_JOBS");
    harness::CampaignConfig config;
    EXPECT_EQ(config.jobs, 0u); // 0 = "use all hardware threads".
}
