/**
 * @file
 * Counterexample-to-regression-test pipeline: replay every promoted
 * crash point from crashmc_corpus.hh through the model checker's own
 * record/replay machinery and require the recorded outcome.
 *
 * The failing cases keep the protocol's known windows demonstrable
 * (a trusting restore really does lose a completed update when the
 * crash lands in the endWrite commit window); their hardened twins
 * prove the guard covers the exact same point. If a refactor shifts
 * the event trace, the trace-length assertion below fails before any
 * misleading recovered/unrecovered verdict is produced.
 */

#include <gtest/gtest.h>

#include "crashmc_corpus.hh"
#include "harness/crashmc.hh"

using namespace rio;

namespace
{

class CrashMcCorpus
    : public ::testing::TestWithParam<tests::CrashMcCase>
{
};

std::string
caseName(const ::testing::TestParamInfo<tests::CrashMcCase> &info)
{
    const tests::CrashMcCase &c = info.param;
    std::string name;
    switch (c.workload) {
      case harness::McWorkloadKind::ShadowFlip:
        name = "ShadowFlip";
        break;
      case harness::McWorkloadKind::Journal:
        name = "Journal";
        break;
      case harness::McWorkloadKind::JournalWriteback:
        name = "JournalWriteback";
        break;
      case harness::McWorkloadKind::JournalOrdered:
        name = "JournalOrdered";
        break;
      case harness::McWorkloadKind::JournalData:
        name = "JournalData";
        break;
    }
    name += 'K';
    name += std::to_string(c.eventIndex);
    name += c.hardened ? "Hardened" : "Trusting";
    if (!c.shadowMetadata)
        name += "NoShadow";
    if (!c.journalChecksum)
        name += "NoChecksum";
    if (c.tornCommit)
        name += "Torn";
    return name;
}

} // namespace

TEST_P(CrashMcCorpus, ReplaysWithTheRecordedOutcome)
{
    const tests::CrashMcCase &c = GetParam();

    harness::CrashMcConfig config;
    config.seed = c.seed;
    config.ops = c.ops;
    config.hardened = c.hardened;
    config.shadowMetadata = c.shadowMetadata;
    config.journalChecksum = c.journalChecksum;
    config.tornCommit = c.tornCommit;
    harness::CrashMc checker(config);

    const auto trace = checker.record(c.workload);
    ASSERT_LT(c.eventIndex, trace.size())
        << "trace shrank below the promoted crash point; re-harvest "
           "the corpus coordinates (" << c.note << ")";

    const auto point =
        checker.runPoint(c.workload, c.eventIndex, trace);
    ASSERT_TRUE(point.crashed)
        << "trace drift: the crash never fired (" << c.note << ")";
    EXPECT_EQ(point.recovered, c.expectRecovered)
        << c.note << " — failure: " << point.failure;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CrashMcCorpus,
                         ::testing::ValuesIn(tests::kCrashMcCorpus),
                         caseName);
