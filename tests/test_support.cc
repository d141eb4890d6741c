/**
 * @file
 * Unit tests for rio::support: the deterministic RNG, checksums,
 * the lazily zeroed store, Result, and helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/checksum.hh"
#include "support/errors.hh"
#include "support/lazyzero.hh"
#include "support/log.hh"
#include "support/rng.hh"
#include "support/types.hh"

using namespace rio;
using support::Rng;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (u64 bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneIsAlwaysZero)
{
    Rng rng(9);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(11);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const u64 value = rng.between(5, 8);
        EXPECT_GE(value, 5u);
        EXPECT_LE(value, 8u);
        sawLo |= value == 5;
        sawHi |= value == 8;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, BetweenDegenerateRange)
{
    Rng rng(13);
    EXPECT_EQ(rng.between(42, 42), 42u);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng rng(19);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i) {
        const double value = rng.real();
        EXPECT_GE(value, 0.0);
        EXPECT_LT(value, 1.0);
    }
}

TEST(Rng, FillCoversAllBytes)
{
    Rng rng(29);
    std::vector<u8> buffer(4096, 0);
    rng.fill(buffer);
    std::set<u8> seen(buffer.begin(), buffer.end());
    EXPECT_GT(seen.size(), 200u); // All byte values should appear.
}

TEST(Rng, FillOddSizes)
{
    Rng rng(31);
    for (std::size_t n : {0u, 1u, 3u, 7u, 9u, 15u}) {
        std::vector<u8> buffer(n, 0);
        rng.fill(buffer); // Must not crash or overrun.
    }
}

TEST(Rng, FillMatchesByteLoop)
{
    // fill() stores whole words; the stream must be the byte loop's:
    // each next() supplies eight bytes, least significant first, and
    // a short tail takes the low bytes of one more draw.
    for (std::size_t n = 0; n <= 40; ++n) {
        Rng fast(37);
        Rng slow(37);
        std::vector<u8> got(n, 0);
        fast.fill(got);
        std::vector<u8> want;
        while (want.size() < n) {
            u64 word = slow.next();
            for (int b = 0; b < 8 && want.size() < n; ++b) {
                want.push_back(static_cast<u8>(word));
                word >>= 8;
            }
        }
        EXPECT_EQ(got, want) << "n " << n;
        EXPECT_EQ(fast.next(), slow.next()) << "n " << n;
    }
}

TEST(Rng, WeightedRespectsZeroWeights)
{
    Rng rng(37);
    const double weights[] = {0.0, 1.0, 0.0};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.weighted(weights), 1u);
}

TEST(Rng, WeightedRoughProportions)
{
    Rng rng(41);
    const double weights[] = {1.0, 3.0};
    int counts[2] = {0, 0};
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        ++counts[rng.weighted(weights)];
    EXPECT_NEAR(static_cast<double>(counts[1]) / trials, 0.75, 0.02);
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(43);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 4);
}

TEST(Checksum, NeverZero)
{
    std::vector<u8> zeros(8192, 0);
    EXPECT_NE(support::checksum32(zeros), 0u);
    EXPECT_NE(support::checksum32(std::span<const u8>{}), 0u);
}

TEST(Checksum, SensitiveToSingleBit)
{
    std::vector<u8> data(4096, 0xaa);
    const u32 before = support::checksum32(data);
    data[1234] ^= 1;
    EXPECT_NE(support::checksum32(data), before);
}

TEST(Checksum, SensitiveToByteSwap)
{
    std::vector<u8> data(64, 0);
    data[3] = 0x11;
    data[40] = 0x22;
    const u32 before = support::checksum32(data);
    std::swap(data[3], data[40]);
    EXPECT_NE(support::checksum32(data), before);
}

TEST(Checksum, SensitiveToABitFlipAtEveryByteOfAPage)
{
    std::vector<u8> page(8192);
    Rng rng(41);
    rng.fill(page);
    const u32 before = support::checksum32(page);
    for (std::size_t i = 0; i < page.size(); ++i) {
        const u8 bit = static_cast<u8>(1u << (i % 8));
        page[i] ^= bit;
        EXPECT_NE(support::checksum32(page), before) << "byte " << i;
        page[i] ^= bit;
    }
    EXPECT_EQ(support::checksum32(page), before);
}

TEST(Checksum, SensitiveToWordSwap)
{
    // Words 0 and 1 of a 32-byte stripe feed different lanes; words 0
    // and 4 feed the same lane in consecutive stripes.
    std::vector<u8> data(256);
    Rng rng(43);
    rng.fill(data);
    const u32 before = support::checksum32(data);
    auto swapped = [&](std::size_t a, std::size_t b) {
        std::vector<u8> copy = data;
        std::swap_ranges(copy.begin() + 8 * a, copy.begin() + 8 * a + 8,
                         copy.begin() + 8 * b);
        EXPECT_NE(copy, data);
        return support::checksum32(copy);
    };
    EXPECT_NE(swapped(0, 1), before) << "different lanes";
    EXPECT_NE(swapped(0, 4), before) << "same lane";
    EXPECT_NE(swapped(2, 30), before) << "same lane, far apart";
    EXPECT_NE(swapped(31, 28), before) << "last stripe";
}

TEST(Checksum, SensitiveToLength)
{
    // Zero bytes add no content, so only the length tells these apart;
    // the empty span still has a non-zero sum.
    for (std::size_t n = 0; n <= 300; ++n) {
        const std::vector<u8> shorter(n, 0);
        const std::vector<u8> longer(n + 1, 0);
        EXPECT_NE(support::checksum32(shorter), 0u) << "n " << n;
        EXPECT_NE(support::checksum32(shorter),
                  support::checksum32(longer))
            << "n " << n;
    }
}

TEST(Checksum, DeterministicAcrossCalls)
{
    std::vector<u8> data(512, 0x5c);
    EXPECT_EQ(support::checksum32(data), support::checksum32(data));
}

TEST(Result, ValueRoundTrip)
{
    support::Result<int> ok(42);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 42);
    EXPECT_EQ(ok.status(), support::OsStatus::Ok);
}

TEST(Result, ErrorCarriesStatus)
{
    support::Result<int> err(support::OsStatus::NoEnt);
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.status(), support::OsStatus::NoEnt);
}

TEST(LazyZeroStore, ReadsZeroUntilWrittenAndZeroesAgain)
{
    constexpr std::size_t kBytes = 3 * 4096 + 100; // Not page-aligned.
    support::LazyZeroStore store(kBytes);
    ASSERT_EQ(store.size(), kBytes);
    const std::span<const u8> view(store.data(), store.size());
    EXPECT_TRUE(std::all_of(view.begin(), view.end(),
                            [](u8 b) { return b == 0; }));
    store.data()[0] = 1;
    store.data()[kBytes - 1] = 2;
    EXPECT_EQ(view[0], 1);
    EXPECT_EQ(view[kBytes - 1], 2);
    store.zero();
    EXPECT_TRUE(std::all_of(view.begin(), view.end(),
                            [](u8 b) { return b == 0; }));
    store.data()[5] = 7; // Still writable after zero().
    EXPECT_EQ(view[5], 7);
}

TEST(Result, VoidSpecialization)
{
    support::Result<void> ok;
    EXPECT_TRUE(ok.ok());
    support::Result<void> err(support::OsStatus::Io);
    EXPECT_FALSE(err.ok());
}

TEST(Errors, NamesAreUnique)
{
    std::set<std::string> names;
    for (int i = 0; i <= static_cast<int>(support::OsStatus::RoFs);
         ++i) {
        names.insert(
            support::osStatusName(static_cast<support::OsStatus>(i)));
    }
    EXPECT_EQ(names.size(),
              static_cast<std::size_t>(support::OsStatus::RoFs) + 1);
}

TEST(Helpers, RoundUpDown)
{
    using support::roundDown;
    using support::roundUp;
    EXPECT_EQ(roundUp(0, 8), 0u);
    EXPECT_EQ(roundUp(1, 8), 8u);
    EXPECT_EQ(roundUp(8, 8), 8u);
    EXPECT_EQ(roundUp(9, 8), 16u);
    EXPECT_EQ(roundDown(9, 8), 8u);
    EXPECT_EQ(roundDown(7, 8), 0u);
    EXPECT_TRUE(support::isPowerOfTwo(8192));
    EXPECT_FALSE(support::isPowerOfTwo(0));
    EXPECT_FALSE(support::isPowerOfTwo(12));
}

// ---------------------------------------------------------------
// Logging: the campaign worker pool logs from many threads, so the
// sink must serialize whole lines (regression for interleaved
// output observed before the mutex guard).
// ---------------------------------------------------------------

namespace
{

/** RAII: restore default sink + level even if the test fails. */
struct ScopedLogCapture
{
    explicit ScopedLogCapture(std::vector<std::string> &out)
    {
        support::setLogSink(
            [&out](support::LogLevel, const std::string &message) {
                // Serialized by the log mutex; a torn or interleaved
                // message would show up as a malformed line below.
                out.push_back(message);
            });
        support::setLogLevel(support::LogLevel::Info);
    }
    ~ScopedLogCapture()
    {
        support::setLogSink(nullptr);
        support::setLogLevel(support::LogLevel::Warn);
    }
};

} // namespace

TEST(Log, EightThreadHammerProducesOnlyWholeLines)
{
    constexpr int kThreads = 8;
    constexpr int kPerThread = 500;
    std::vector<std::string> captured;
    {
        ScopedLogCapture capture(captured);
        std::vector<std::jthread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([t] {
                for (int i = 0; i < kPerThread; ++i) {
                    RIO_LOG_INFO << "thread " << t << " line " << i
                                 << " end";
                }
            });
        }
    }
    ASSERT_EQ(captured.size(),
              static_cast<std::size_t>(kThreads) * kPerThread);

    // Every message is exactly one whole line: correct shape, every
    // (thread, i) pair seen exactly once, nothing torn or merged.
    std::set<std::pair<int, int>> seen;
    for (const std::string &message : captured) {
        int t = -1, i = -1;
        char tail[8] = {0};
        ASSERT_EQ(std::sscanf(message.c_str(),
                              "thread %d line %d %3s", &t, &i, tail),
                  3)
            << "torn line: '" << message << "'";
        EXPECT_EQ(std::string(tail), "end") << message;
        EXPECT_EQ(message, "thread " + std::to_string(t) + " line " +
                               std::to_string(i) + " end");
        ASSERT_GE(t, 0);
        ASSERT_LT(t, kThreads);
        ASSERT_GE(i, 0);
        ASSERT_LT(i, kPerThread);
        EXPECT_TRUE(seen.emplace(t, i).second)
            << "duplicate line: " << message;
    }
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(Log, LevelChangesAreSafeUnderConcurrentLogging)
{
    // TSan coverage: flip the level while other threads log; the
    // level is atomic and the sink mutex-guarded, so this must be
    // race-free (exact message count depends on timing).
    std::vector<std::string> captured;
    ScopedLogCapture capture(captured);
    std::jthread flipper([] {
        for (int i = 0; i < 200; ++i) {
            support::setLogLevel(i % 2 == 0
                                     ? support::LogLevel::Info
                                     : support::LogLevel::Warn);
        }
        support::setLogLevel(support::LogLevel::Info);
    });
    std::vector<std::jthread> loggers;
    for (int t = 0; t < 4; ++t) {
        loggers.emplace_back([] {
            for (int i = 0; i < 200; ++i)
                RIO_LOG_INFO << "level-flip " << i;
        });
    }
    loggers.clear(); // Join.
    flipper.join();
    for (const std::string &message : captured)
        EXPECT_EQ(message.rfind("level-flip ", 0), 0u) << message;
}
