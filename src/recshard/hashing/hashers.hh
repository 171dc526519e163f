/**
 * @file
 * Feature hashing: raw categorical values to embedding-table rows.
 *
 * Industry DLRMs bound each EMB to a fixed hash size and hash raw
 * sparse-feature values into it (paper Section 2). The hash must be
 * cheap, deterministic, and well mixed; we provide the SplitMix64
 * and Murmur3 finalizers, both of which are bijective 64-bit mixers
 * (so collisions come only from the modulo reduction, exactly like a
 * production random hash).
 */

#ifndef RECSHARD_HASHING_HASHERS_HH
#define RECSHARD_HASHING_HASHERS_HH

#include <cstdint>

namespace recshard {

/** SplitMix64 finalizer: bijective 64-bit mix. */
std::uint64_t mixSplitMix64(std::uint64_t x);

/** Murmur3 fmix64 finalizer: bijective 64-bit mix. */
std::uint64_t mixMurmur3(std::uint64_t x);

/**
 * Exact x % d for a fixed divisor without a division (Lemire, Kaser
 * & Kurz, "Faster remainder by direct computation", 2019): with
 * c = ceil(2^128 / d), x % d == ((c * x mod 2^128) * d) >> 128 for
 * every 64-bit x and every d >= 1, since c * d - 2^128 < d <= 2^64.
 * The reciprocal is computed once; each remainder is four 64-bit
 * multiplies.
 */
class FastModulo
{
  public:
    /** @param divisor d, >= 1. */
    explicit FastModulo(std::uint64_t divisor);

    std::uint64_t operator()(std::uint64_t x) const
    {
        const Wide low = reciprocal * x; // c * x mod 2^128
        const Wide mid = (Wide{static_cast<std::uint64_t>(low)} * d) >> 64;
        return static_cast<std::uint64_t>(
            (Wide{static_cast<std::uint64_t>(low >> 64)} * d + mid) >> 64);
    }

    std::uint64_t divisor() const { return d; }

  private:
    using Wide = unsigned __int128;

    std::uint64_t d;
    Wide reciprocal = 0; //!< ceil(2^128 / d) mod 2^128 (0 for d == 1)
};

/** Selectable mixer family. */
enum class HashKind { SplitMix64, Murmur3 };

/**
 * Hashes raw categorical ids into [0, hash_size).
 *
 * A per-table salt decorrelates tables that ingest overlapping raw
 * id spaces, mirroring independent hash functions per EMB.
 */
class FeatureHasher
{
  public:
    /**
     * @param hash_size Output range (the EMB row count); >= 1.
     * @param salt      Per-table salt.
     * @param kind      Mixer family.
     */
    FeatureHasher(std::uint64_t hash_size, std::uint64_t salt = 0,
                  HashKind kind = HashKind::SplitMix64);

    /** Map one raw categorical value to an EMB row. */
    std::uint64_t operator()(std::uint64_t raw_value) const;

    std::uint64_t hashSize() const { return modulo.divisor(); }
    std::uint64_t salt() const { return saltV; }

  private:
    std::uint64_t saltV;
    HashKind kind;
    std::uint64_t mixedSalt; //!< the salt as xored into raw values
    FastModulo modulo;       //!< reduction into [0, size)
};

} // namespace recshard

#endif // RECSHARD_HASHING_HASHERS_HH
