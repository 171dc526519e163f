#include "recshard/hashing/hashers.hh"

#include "recshard/base/logging.hh"

namespace recshard {

std::uint64_t
mixSplitMix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

std::uint64_t
mixMurmur3(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

FastModulo::FastModulo(std::uint64_t divisor) : d(divisor)
{
    fatal_if(d == 0, "modulo divisor must be >= 1");
    // floor((2^128 - 1) / d) + 1 == ceil(2^128 / d); it wraps to 0
    // for d == 1, which still yields x % 1 == 0.
    reciprocal = ~Wide{0} / d + 1;
}

namespace {

/** Checked before FastModulo sees the size, for the hasher's own
 *  message. */
std::uint64_t
checkedHashSize(std::uint64_t hash_size)
{
    fatal_if(hash_size == 0, "hash size must be >= 1");
    return hash_size;
}

} // namespace

FeatureHasher::FeatureHasher(std::uint64_t hash_size,
                             std::uint64_t salt, HashKind kind_)
    : saltV(salt), kind(kind_),
      mixedSalt(salt * 0x9e3779b97f4a7c15ULL + 0x6a09e667f3bcc909ULL),
      modulo(checkedHashSize(hash_size))
{
}

std::uint64_t
FeatureHasher::operator()(std::uint64_t raw_value) const
{
    const std::uint64_t mixed = kind == HashKind::SplitMix64
        ? mixSplitMix64(raw_value ^ mixedSalt)
        : mixMurmur3(raw_value ^ mixedSalt);
    return modulo(mixed);
}

} // namespace recshard
