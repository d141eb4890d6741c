/**
 * @file
 * Trace pin: the event trace crashmc records for each bounded
 * workload at seed 1, ops 4 — its length and a fingerprint over the
 * (class, addr) sequence. Every corpus coordinate and every crashmc
 * count is an index into these traces, so a change to what the
 * simulator reports, or in what order, shows up here first, before
 * any recovered/unrecovered verdict can shift silently.
 *
 * A deliberate change to the trace (a new event class, a reordered
 * protocol step) re-pins these numbers and says why in CHANGES.md.
 */

#include <gtest/gtest.h>

#include "harness/crashmc.hh"

using namespace rio;

namespace
{

struct TracePin
{
    harness::McWorkloadKind kind;
    u64 events;
    u64 fingerprint;
};

void
PrintTo(const TracePin &pin, std::ostream *os)
{
    *os << harness::mcWorkloadName(pin.kind);
}

/** FNV-1a 64 over each event's class byte and little-endian addr. */
u64
traceFingerprint(const std::vector<harness::McEvent> &trace)
{
    u64 h = 0xcbf29ce484222325ull;
    const auto fold = [&h](u8 byte) {
        h ^= byte;
        h *= 0x100000001b3ull;
    };
    for (const harness::McEvent &event : trace) {
        fold(static_cast<u8>(event.cls));
        for (int i = 0; i < 8; ++i)
            fold(static_cast<u8>(event.addr >> (8 * i)));
    }
    return h;
}

class CrashMcTrace : public ::testing::TestWithParam<TracePin>
{
};

} // namespace

TEST_P(CrashMcTrace, RecordedTraceIsPinned)
{
    const TracePin &pin = GetParam();
    harness::CrashMcConfig config;
    config.seed = 1;
    config.ops = 4;
    harness::CrashMc checker(config);

    const auto trace = checker.record(pin.kind);
    EXPECT_EQ(trace.size(), pin.events);
    EXPECT_EQ(traceFingerprint(trace), pin.fingerprint)
        << std::hex << "0x" << traceFingerprint(trace);
}

INSTANTIATE_TEST_SUITE_P(
    SeedOneOpsFour, CrashMcTrace,
    ::testing::Values(
        TracePin{harness::McWorkloadKind::ShadowFlip, 1375,
                 0xe5f6e0366e949185ull},
        TracePin{harness::McWorkloadKind::Journal, 12,
                 0xca74b269c16be523ull},
        TracePin{harness::McWorkloadKind::JournalWriteback, 28,
                 0xe9a6b54cdcaa049full},
        TracePin{harness::McWorkloadKind::JournalOrdered, 23,
                 0xd8f18ace243a765dull},
        TracePin{harness::McWorkloadKind::JournalData, 26,
                 0x09d614e7342a600cull}),
    [](const ::testing::TestParamInfo<TracePin> &info) {
        std::string name = harness::mcWorkloadName(info.param.kind);
        std::erase(name, '-');
        return name;
    });
