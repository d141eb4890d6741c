/**
 * @file
 * Golden tests for the benchmark building blocks: the zipfian
 * popularity distribution and the log-linear latency histogram
 * (harness/bench.hh). The benchmark's published percentiles are only
 * as trustworthy as this math, so the bucket mapping and the sample
 * streams are pinned at fixed seeds. support::checksum32 is pinned
 * here too, against a plain scalar reference and known answers.
 */

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <string>
#include <vector>

#include "harness/bench.hh"
#include "support/checksum.hh"
#include "support/rng.hh"

using namespace rio;
using harness::LatencyHistogram;
using harness::Zipfian;

TEST(LatencyHistogramTest, ExactBelowThirtyTwo)
{
    LatencyHistogram hist;
    for (u64 v = 0; v < 32; ++v)
        hist.record(v);
    EXPECT_EQ(hist.count(), 32u);
    EXPECT_EQ(hist.min(), 0u);
    EXPECT_EQ(hist.max(), 31u);
    // With one sample per value, percentile boundaries are exact.
    EXPECT_EQ(hist.percentile(50), 15u);
    EXPECT_EQ(hist.percentile(100), 31u);
    EXPECT_EQ(hist.percentile(0), 0u);
}

TEST(LatencyHistogramTest, BucketMappingInvariants)
{
    // Every value maps to a bucket whose upper bound is >= the value
    // and within 1/16 relative error; bounds are monotone.
    for (u64 v : {0ull, 1ull, 31ull, 32ull, 33ull, 63ull, 64ull,
                  100ull, 1000ull, 40'000ull, 123'456'789ull,
                  (1ull << 40) + 12345, ~0ull >> 1}) {
        const std::size_t idx = LatencyHistogram::bucketIndex(v);
        const u64 upper = LatencyHistogram::bucketUpperBound(idx);
        EXPECT_GE(upper, v);
        EXPECT_LE(upper - v, v / 16 + 1) << "value " << v;
        if (idx > 0) {
            EXPECT_LT(LatencyHistogram::bucketUpperBound(idx - 1),
                      v);
        }
    }
    EXPECT_LT(LatencyHistogram::bucketIndex(~0ull),
              LatencyHistogram::numBuckets());
}

TEST(LatencyHistogramTest, GoldenPercentiles)
{
    // 1..100000 recorded in order; percentiles land in known
    // buckets. These are golden values: if the bucket layout ever
    // changes, every committed BENCH_server.json becomes
    // incomparable with future ones, so changing them must be loud.
    LatencyHistogram hist;
    for (u64 v = 1; v <= 100'000; ++v)
        hist.record(v);
    EXPECT_EQ(hist.count(), 100'000u);
    EXPECT_EQ(hist.percentile(50), 51199u); // bucket upper bound
    EXPECT_EQ(hist.percentile(90), 90111u); // bucket upper bound
    EXPECT_EQ(hist.percentile(99), 100000u);   // clamped to max
    EXPECT_EQ(hist.percentile(99.9), 100000u); // clamped to max
    EXPECT_NEAR(hist.mean(), 50000.5, 0.01);
}

TEST(LatencyHistogramTest, MergeMatchesCombinedStream)
{
    support::Rng rng(7);
    LatencyHistogram a, b, combined;
    for (int i = 0; i < 5000; ++i) {
        const u64 v = rng.next() >> (rng.below(40));
        combined.record(v);
        (i % 2 ? a : b).record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.min(), combined.min());
    EXPECT_EQ(a.max(), combined.max());
    for (double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9})
        EXPECT_EQ(a.percentile(p), combined.percentile(p)) << p;
}

TEST(ZipfianTest, UniformWhenThetaZero)
{
    Zipfian zipf(10, 0.0);
    support::Rng rng(3);
    std::map<u64, u64> counts;
    for (int i = 0; i < 100'000; ++i)
        ++counts[zipf.sample(rng)];
    for (u64 r = 0; r < 10; ++r) {
        EXPECT_GT(counts[r], 9'000u) << r;
        EXPECT_LT(counts[r], 11'000u) << r;
    }
}

TEST(ZipfianTest, SkewOrdersRanks)
{
    Zipfian zipf(100, 0.99);
    support::Rng rng(11);
    std::map<u64, u64> counts;
    for (int i = 0; i < 200'000; ++i)
        ++counts[zipf.sample(rng)];
    // Rank 0 dominates and popularity decays with rank.
    EXPECT_GT(counts[0], counts[9] * 5);
    EXPECT_GT(counts[0], 30'000u);
    EXPECT_GT(counts[9], counts[99]);
}

TEST(ZipfianTest, GoldenSampleStream)
{
    // The first draws at a fixed seed are pinned: the benchmark's op
    // stream (and thus any committed BENCH numbers) depends on them.
    Zipfian zipf(64, 0.99);
    support::Rng rng(42);
    std::vector<u64> draws;
    for (int i = 0; i < 16; ++i)
        draws.push_back(zipf.sample(rng));
    const std::vector<u64> golden = {0,  2,  13, 44, 61, 21, 16, 31,
                                     20, 8,  14, 1,  25, 2,  16, 36};
    EXPECT_EQ(draws, golden) << "zipfian sample stream changed";
}

namespace
{

/** Little-endian word assembled one byte at a time. */
u64
referenceWord(std::span<const u8> bytes, std::size_t at, int width)
{
    u64 word = 0;
    for (int b = 0; b < width; ++b)
        word |= static_cast<u64>(bytes[at + b]) << (8 * b);
    return word;
}

u64
referenceRotl(u64 x, int r)
{
    return (x << r) | (x >> (64 - r));
}

/**
 * checksum32 written out plainly: byte-assembled words, the four
 * lanes kept in an array, one word per step.
 */
u32
referenceChecksum(std::span<const u8> bytes)
{
    constexpr u64 p1 = 0x9e3779b185ebca87ull;
    constexpr u64 p2 = 0xc2b2ae3d27d4eb4full;
    constexpr u64 p3 = 0x165667b19e3779f9ull;
    constexpr u64 p4 = 0x85ebca77c2b2ae63ull;
    constexpr u64 p5 = 0x27d4eb2f165667c5ull;
    auto round = [&](u64 acc, u64 input) {
        return referenceRotl(acc + input * p2, 31) * p1;
    };
    const std::size_t n = bytes.size();
    std::size_t at = 0;
    u64 hash = p5;
    if (n >= 32) {
        u64 lane[4] = {p1 + p2, p2, 0, 0 - p1};
        for (; at + 32 <= n; at += 32) {
            for (int l = 0; l < 4; ++l) {
                lane[l] =
                    round(lane[l], referenceWord(bytes, at + 8 * l, 8));
            }
        }
        const int rot[4] = {1, 7, 12, 18};
        hash = 0;
        for (int l = 0; l < 4; ++l)
            hash += referenceRotl(lane[l], rot[l]);
        for (int l = 0; l < 4; ++l)
            hash = (hash ^ round(0, lane[l])) * p1 + p4;
    }
    hash += n;
    for (; at + 8 <= n; at += 8) {
        hash ^= round(0, referenceWord(bytes, at, 8));
        hash = referenceRotl(hash, 27) * p1 + p4;
    }
    if (at + 4 <= n) {
        hash ^= referenceWord(bytes, at, 4) * p1;
        hash = referenceRotl(hash, 23) * p2 + p3;
        at += 4;
    }
    for (; at < n; ++at) {
        hash ^= bytes[at] * p5;
        hash = referenceRotl(hash, 11) * p1;
    }
    hash = (hash ^ (hash >> 33)) * p2;
    hash = (hash ^ (hash >> 29)) * p3;
    hash ^= hash >> 32;
    const u32 folded = static_cast<u32>(hash ^ (hash >> 32));
    return folded == 0 ? 1u : folded;
}

u32
checksumOf(const std::string &text)
{
    return support::checksum32(
        {reinterpret_cast<const u8 *>(text.data()), text.size()});
}

} // namespace

TEST(ChecksumTest, WordAtATimeMatchesReferenceByteLoop)
{
    // The striped word loads must agree with the plain byte-at-a-time
    // reference at every length: each lane, tail word, half-word and
    // tail byte path, and the page sizes the registry checksums.
    support::Rng rng(123);
    std::vector<u8> data(8192);
    rng.fill(data);
    std::vector<std::size_t> lengths;
    for (std::size_t len = 0; len <= 300; ++len)
        lengths.push_back(len);
    lengths.push_back(4096);
    lengths.push_back(8192);
    for (std::size_t len : lengths) {
        std::span<const u8> view(data.data(), len);
        EXPECT_EQ(support::checksum32(view), referenceChecksum(view))
            << "len " << len;
        // An unaligned start takes the same path.
        if (len < data.size()) {
            std::span<const u8> shifted(data.data() + 1, len);
            EXPECT_EQ(support::checksum32(shifted),
                      referenceChecksum(shifted))
                << "unaligned len " << len;
        }
    }
}

TEST(ChecksumTest, KnownAnswers)
{
    // The first four are published XXH64 (seed 0) values folded to 32
    // bits as hi ^ lo, e.g. XXH64("abc") = 0x44bc2cf5ad770999.
    EXPECT_EQ(checksumOf(""), 0xbe9e32aeu);
    EXPECT_EQ(checksumOf("a"), 0x7bc2aaaau);
    EXPECT_EQ(checksumOf("abc"), 0xe9cb256cu);
    EXPECT_EQ(checksumOf("Nobody inspects the spammish repetition"),
              0x71f923cdu);
    // Page-sized inputs, pinned from this implementation.
    std::vector<u8> page(8192, 0);
    EXPECT_EQ(support::checksum32(page), 0x07118881u);
    support::Rng rng(7);
    rng.fill(page);
    EXPECT_EQ(support::checksum32(page), 0x6a5d8ba1u);
}
