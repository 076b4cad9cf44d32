#include "mem/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace schedtask
{

namespace
{

unsigned
log2Exact(std::uint64_t v)
{
    SCHEDTASK_ASSERT(v != 0 && (v & (v - 1)) == 0,
                     "value must be a power of two, got ", v);
    return static_cast<unsigned>(std::countr_zero(v));
}

} // namespace

Cache::Cache(const CacheParams &params)
    : params_(params)
{
    SCHEDTASK_ASSERT(params_.assoc > 0, "associativity must be positive");
    SCHEDTASK_ASSERT(params_.assoc <= maxAssoc,
                     "associativity ", params_.assoc,
                     " exceeds the packed-way rank field (max ",
                     maxAssoc, ")");
    SCHEDTASK_ASSERT(params_.sizeBytes % (params_.blockBytes * params_.assoc)
                         == 0,
                     "cache size must be a multiple of assoc * block size");
    num_sets_ = params_.sizeBytes / (params_.blockBytes * params_.assoc);
    SCHEDTASK_ASSERT(num_sets_ > 0, "cache must have at least one set");
    // Non-power-of-two set counts are allowed (e.g. a 24-entry TLB);
    // the index is then a modulo rather than a mask.
    set_mask_ = (num_sets_ & (num_sets_ - 1)) == 0 ? num_sets_ - 1 : 0;
    block_shift_ = log2Exact(params_.blockBytes);
    lru_refresh_ = params_.replacement == ReplacementPolicy::Lru;
    ways_.resize(num_sets_ * params_.assoc);
}

std::optional<Addr>
Cache::insertAbsent(std::uint64_t base_index, Addr tag)
{
    SCHEDTASK_ASSERT(tag <= tagMask,
                     "block tag ", tag, " exceeds the packed 58-bit ",
                     "tag field");
    Way *base = &ways_[base_index];

    // Victim scan: the first invalid hole wins (an invalidate() can
    // leave one anywhere in the set), else the set's minimum-rank
    // (oldest) valid way. Lru evicts the oldest; Fifo works
    // identically because insert() reorders but access() refreshes
    // only under Lru (see access()). The caller's hit scan just
    // touched the set, so this pass stays in the host's L1.
    //
    // Both rules are one branch-free argmin over the packed
    // [valid:1][rank:5] key, keeping the first index on ties: an
    // invalid way's key is 0 (its rank is cleared), below every
    // valid key, and valid ranks are distinct.
    unsigned victim_way = 0;
    std::uint64_t victim_key = base[0].raw >> rankShift;
    unsigned valid_count = static_cast<unsigned>(base[0].raw >> validShift);
    for (unsigned w = 1; w < params_.assoc; ++w) {
        const std::uint64_t key = base[w].raw >> rankShift;
        victim_way = key < victim_key ? w : victim_way;
        victim_key = key < victim_key ? key : victim_key;
        valid_count += static_cast<unsigned>(base[w].raw >> validShift);
    }
    Way *victim = &base[victim_way];
    if (isValid(*victim)
            && params_.replacement == ReplacementPolicy::Random) {
        // 16-bit Galois LFSR: deterministic pseudo-random way.
        lfsr_ = (lfsr_ >> 1) ^ (-(lfsr_ & 1u) & 0xb400u);
        victim = &base[lfsr_ % params_.assoc];
        if ((victim->raw & tagMask) == tag) // never evict the incoming block
            victim = &base[(lfsr_ + 1) % params_.assoc];
    }

    // Slot the incoming block in at the top of the set's recency
    // order. Displacing a valid way removes it from the permutation
    // first (ways above it slide down), so valid ranks stay a dense
    // 0..valid-1 permutation either way.
    std::optional<Addr> evicted;
    std::uint64_t new_rank;
    if (isValid(*victim)) {
        evicted = (victim->raw & tagMask) << block_shift_;
        // Branchless removal from the recency order: invalid ways
        // and the victim itself never test as above the victim.
        const std::uint64_t rank = rankOf(*victim);
        for (unsigned v = 0; v < params_.assoc; ++v)
            base[v].raw -=
                std::uint64_t{rankOf(base[v]) > rank} << rankShift;
        new_rank = valid_count - 1;
    } else {
        new_rank = valid_count;
    }
    victim->raw = tag | (new_rank << rankShift) | validBit;
    mru_index_ = static_cast<std::uint64_t>(victim - ways_.data());
    return evicted;
}

bool
Cache::containsSlow(Addr tag) const
{
    const Way *base = &ways_[setIndexOfTag(tag) * params_.assoc];
    return findWay(base, tag) != params_.assoc;
}

void
Cache::flush()
{
    for (auto &w : ways_)
        w.raw &= tagMask; // clears valid and rank, keeps stale tags
}

std::uint64_t
Cache::validBlocks() const
{
    std::uint64_t n = 0;
    for (const auto &w : ways_)
        n += isValid(w) ? 1 : 0;
    return n;
}

bool
Cache::tagsUnique() const
{
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        const Way *base = &ways_[set * params_.assoc];
        for (unsigned a = 0; a < params_.assoc; ++a) {
            if (!isValid(base[a]))
                continue;
            for (unsigned b = a + 1; b < params_.assoc; ++b)
                if (isValid(base[b])
                        && (base[b].raw & tagMask)
                               == (base[a].raw & tagMask))
                    return false;
        }
    }
    return true;
}

} // namespace schedtask
