/**
 * @file
 * Block checksums used by the corruption-detection apparatus.
 *
 * The paper (section 3.2) maintains a checksum for every file-cache
 * block, updated by all legitimate write paths; an unintentional store
 * leaves the checksum inconsistent. The checksums are detection
 * apparatus only: they cost no simulated time, so the function is
 * chosen for host speed. It is the xxHash64 algorithm (seed 0) folded
 * to 32 bits: four independent 64-bit multiply-rotate lanes consume
 * 32-byte stripes of little-endian words, the length is mixed in, and
 * the tail is taken a word, a half-word and a byte at a time. Every
 * input word passes through a round that is bijective in the word and
 * also depends on its lane's running state, so a flipped bit, two
 * swapped words (in one lane or across lanes) or a changed length
 * moves the sum, barring a chance 32-bit collision.
 */

#ifndef RIO_SUPPORT_CHECKSUM_HH
#define RIO_SUPPORT_CHECKSUM_HH

#include <bit>
#include <cstring>
#include <span>
#include <type_traits>

#include "support/types.hh"

namespace rio::support
{

namespace detail
{

constexpr u64 kHashP1 = 0x9e3779b185ebca87ull;
constexpr u64 kHashP2 = 0xc2b2ae3d27d4eb4full;
constexpr u64 kHashP3 = 0x165667b19e3779f9ull;
constexpr u64 kHashP4 = 0x85ebca77c2b2ae63ull;
constexpr u64 kHashP5 = 0x27d4eb2f165667c5ull;

/** Little-endian load of @p N bytes (4 or 8) at @p p, on any host. */
template <int N>
inline u64
hashLoad(const u8 *p)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::conditional_t<N == 8, u64, u32> word = 0;
        std::memcpy(&word, p, N);
        return word;
    } else {
        u64 word = 0;
        for (int b = N - 1; b >= 0; --b)
            word = (word << 8) | p[b];
        return word;
    }
}

inline u64
hashRound(u64 acc, u64 input)
{
    acc += input * kHashP2;
    acc = std::rotl(acc, 31);
    return acc * kHashP1;
}

inline u64
hashMerge(u64 acc, u64 lane)
{
    acc ^= hashRound(0, lane);
    return acc * kHashP1 + kHashP4;
}

} // namespace detail

/**
 * Checksum a byte span. Never returns 0 (0 means "no checksum"). The
 * result depends only on the bytes, never on the host's byte order.
 */
inline u32
checksum32(std::span<const u8> bytes)
{
    using namespace detail;
    const u8 *p = bytes.data();
    const std::size_t n = bytes.size();
    const u8 *const end = p + n;

    u64 hash;
    if (n >= 32) {
        u64 v1 = kHashP1 + kHashP2;
        u64 v2 = kHashP2;
        u64 v3 = 0;
        u64 v4 = 0 - kHashP1;
        for (const u8 *const last = end - 32; p <= last; p += 32) {
            v1 = hashRound(v1, hashLoad<8>(p));
            v2 = hashRound(v2, hashLoad<8>(p + 8));
            v3 = hashRound(v3, hashLoad<8>(p + 16));
            v4 = hashRound(v4, hashLoad<8>(p + 24));
        }
        hash = std::rotl(v1, 1) + std::rotl(v2, 7) +
               std::rotl(v3, 12) + std::rotl(v4, 18);
        hash = hashMerge(hash, v1);
        hash = hashMerge(hash, v2);
        hash = hashMerge(hash, v3);
        hash = hashMerge(hash, v4);
    } else {
        hash = kHashP5;
    }
    hash += static_cast<u64>(n);

    for (; end - p >= 8; p += 8) {
        hash ^= hashRound(0, hashLoad<8>(p));
        hash = std::rotl(hash, 27) * kHashP1 + kHashP4;
    }
    if (end - p >= 4) {
        hash ^= hashLoad<4>(p) * kHashP1;
        hash = std::rotl(hash, 23) * kHashP2 + kHashP3;
        p += 4;
    }
    for (; p < end; ++p) {
        hash ^= *p * kHashP5;
        hash = std::rotl(hash, 11) * kHashP1;
    }

    hash ^= hash >> 33;
    hash *= kHashP2;
    hash ^= hash >> 29;
    hash *= kHashP3;
    hash ^= hash >> 32;

    const u32 folded = static_cast<u32>(hash ^ (hash >> 32));
    return folded == 0 ? 1u : folded;
}

} // namespace rio::support

#endif // RIO_SUPPORT_CHECKSUM_HH
