#include "recshard/serving/lru_cache.hh"

#include <algorithm>

#include "recshard/serving/cache_admission.hh"

namespace recshard {

namespace {

/** Slots and index entries reserved up front; larger caches grow
 *  their arrays as they fill, so a huge capacity costs nothing
 *  until it is used. */
constexpr std::uint64_t kPreallocRows = 1u << 16;
/** Index entries per cached key, at least: at load <= 1/4 a linear
 *  probe rarely passes two entries. */
constexpr std::size_t kIndexSlack = 4;

} // namespace

LruRowCache::LruRowCache(std::uint64_t capacity_rows,
                         CacheAdmission *admission_)
    : capacityV(capacity_rows), admission(admission_)
{
    fatal_if(capacityV > kNil, "LRU capacity ", capacityV,
             " exceeds ", kNil, " rows");
    if (capacityV == 0)
        return;
    const std::uint64_t rows = std::min(capacityV, kPreallocRows);
    keys.reserve(rows);
    prev.reserve(rows);
    next.reserve(rows);
    std::size_t entries = 2;
    while (entries < kIndexSlack * rows)
        entries *= 2;
    rebuildIndex(entries);
}

std::size_t
LruRowCache::find(std::uint64_t key) const
{
    const std::size_t mask = index.size() - 1;
    std::size_t pos = home(key);
    while (index[pos] != kNil && keys[index[pos]] != key)
        pos = (pos + 1) & mask;
    return pos;
}

void
LruRowCache::eraseAt(std::size_t pos)
{
    // Backward-shift deletion: walk the run after the hole and pull
    // back every entry whose probe sequence passes the hole, so
    // lookups never need tombstones.
    const std::size_t mask = index.size() - 1;
    std::size_t hole = pos;
    for (std::size_t j = (pos + 1) & mask; index[j] != kNil;
         j = (j + 1) & mask) {
        const std::size_t h = home(keys[index[j]]);
        if (((j - h) & mask) >= ((j - hole) & mask)) {
            index[hole] = index[j];
            hole = j;
        }
    }
    index[hole] = kNil;
}

void
LruRowCache::rebuildIndex(std::size_t entries)
{
    index.assign(entries, kNil);
    indexShift = 64;
    for (std::size_t e = entries; e > 1; e >>= 1)
        --indexShift;
    for (std::uint32_t slot = 0; slot < keys.size(); ++slot)
        index[find(keys[slot])] = slot;
}

void
LruRowCache::unlink(std::uint32_t slot)
{
    const std::uint32_t p = prev[slot];
    const std::uint32_t n = next[slot];
    (p != kNil ? next[p] : head) = n;
    (n != kNil ? prev[n] : tail) = p;
}

void
LruRowCache::pushFront(std::uint32_t slot)
{
    prev[slot] = kNil;
    next[slot] = head;
    (head != kNil ? prev[head] : tail) = slot;
    head = slot;
}

bool
LruRowCache::touch(std::uint64_t key)
{
    if (capacityV == 0)
        return false;
    if (admission)
        admission->onAccess(key);
    const std::uint32_t found = index[find(key)];
    if (found != kNil) {
        if (found != head) {
            unlink(found);
            pushFront(found);
        }
        ++hitsV;
        return true;
    }
    ++missesV;
    const bool full = keys.size() >= capacityV;
    if (admission &&
        !admission->admit(key, full, full ? keys[tail] : 0)) {
        ++rejectedV;
        return false;
    }
    std::uint32_t slot;
    if (full) {
        // Reuse the LRU victim's slot.
        slot = tail;
        eraseAt(find(keys[slot]));
        unlink(slot);
        keys[slot] = key;
    } else {
        if (kIndexSlack * (keys.size() + 1) > index.size())
            rebuildIndex(2 * index.size());
        slot = static_cast<std::uint32_t>(keys.size());
        keys.push_back(key);
        prev.push_back(kNil);
        next.push_back(kNil);
    }
    index[find(key)] = slot;
    pushFront(slot);
    return false;
}

double
LruRowCache::hitRate() const
{
    const std::uint64_t total = hitsV + missesV;
    return total ? static_cast<double>(hitsV) /
            static_cast<double>(total)
                 : 0.0;
}

} // namespace recshard
