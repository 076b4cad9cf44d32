/**
 * @file
 * Tests for the set-associative cache: hit/miss behaviour, LRU
 * replacement, invalidation, and geometry derivation, plus a
 * differential fuzz of Cache and Tlb::translate against a plain
 * reference model.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"

using namespace schedtask;

namespace
{

CacheParams
smallCache()
{
    // 4 sets x 2 ways x 64 B = 512 B.
    CacheParams p;
    p.sizeBytes = 512;
    p.assoc = 2;
    p.blockBytes = 64;
    return p;
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000));
    c.insert(0x1000);
    EXPECT_TRUE(c.access(0x1000));
}

TEST(Cache, GeometryDerivation)
{
    Cache c(CacheParams{32 * 1024, 4, 64, 3});
    EXPECT_EQ(c.numSets(), 32u * 1024 / (4 * 64));
}

TEST(Cache, SameSetDifferentTagsCoexistUpToAssoc)
{
    Cache c(smallCache()); // 4 sets, 2 ways
    // Two addresses in the same set (stride = sets * block = 256).
    c.insert(0x0);
    c.insert(0x100);
    EXPECT_TRUE(c.access(0x0));
    EXPECT_TRUE(c.access(0x100));
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(smallCache());
    c.insert(0x0);   // set 0
    c.insert(0x100); // set 0, second way
    EXPECT_TRUE(c.access(0x0)); // 0x0 now MRU
    const std::optional<Addr> evicted = c.insert(0x200); // evicts 0x100
    EXPECT_EQ(evicted, 0x100u);
    EXPECT_TRUE(c.access(0x0));
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x200));
}

TEST(Cache, InsertIntoInvalidWayEvictsNothing)
{
    Cache c(smallCache());
    EXPECT_EQ(c.insert(0x40), std::nullopt);
}

TEST(Cache, EvictionOfAddressZeroIsReported)
{
    // Address 0 is a valid block address; eviction reporting must
    // distinguish "evicted block 0" from "evicted nothing".
    Cache c(smallCache());
    c.insert(0x0);
    c.insert(0x100);
    c.access(0x100); // 0x0 is LRU
    const std::optional<Addr> evicted = c.insert(0x200);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 0x0u);
}

TEST(Cache, ContainsDoesNotDisturbLru)
{
    Cache c(smallCache());
    c.insert(0x0);
    c.insert(0x100);
    // Probing 0x0 must not promote it.
    EXPECT_TRUE(c.contains(0x0));
    c.insert(0x200); // LRU is still 0x0
    EXPECT_FALSE(c.access(0x0));
    EXPECT_TRUE(c.access(0x100));
}

TEST(Cache, InvalidateRemovesBlock)
{
    Cache c(smallCache());
    c.insert(0x1000);
    c.invalidate(0x1000);
    EXPECT_FALSE(c.access(0x1000));
}

TEST(Cache, InvalidateMissingIsNoop)
{
    Cache c(smallCache());
    c.invalidate(0xdead000); // must not crash
    EXPECT_EQ(c.validBlocks(), 0u);
}

TEST(Cache, FlushEmptiesEverything)
{
    Cache c(smallCache());
    c.insert(0x0);
    c.insert(0x40);
    c.insert(0x80);
    EXPECT_EQ(c.validBlocks(), 3u);
    c.flush();
    EXPECT_EQ(c.validBlocks(), 0u);
}

TEST(Cache, SubBlockAddressesMapToSameBlock)
{
    Cache c(smallCache());
    c.insert(0x1000);
    EXPECT_TRUE(c.access(0x1004));
    EXPECT_TRUE(c.access(0x103f));
}

TEST(Cache, DoubleInsertTouchesInsteadOfDuplicating)
{
    Cache c(smallCache());
    c.insert(0x0);
    c.insert(0x0);
    EXPECT_EQ(c.validBlocks(), 1u);
}

TEST(Cache, InvalidateThenReinsertDoesNotDuplicate)
{
    // Regression: an invalid hole earlier in the set must not shadow
    // a still-resident copy of the tag — the tag scan has to cover
    // every way before a victim is chosen, or the set ends up with
    // the same block valid twice.
    Cache c(smallCache());
    c.insert(0x0);   // set 0, way 0
    c.insert(0x100); // set 0, way 1
    c.invalidate(0x0); // hole in way 0
    c.insert(0x100); // resident in way 1: touch, don't refill way 0
    EXPECT_EQ(c.validBlocks(), 1u);
    EXPECT_TRUE(c.tagsUnique());
    EXPECT_TRUE(c.access(0x100));
}

TEST(Cache, ValidBlocksNeverExceedsCapacityUnderChurn)
{
    // Deterministic churn of inserts, invalidations and touches; the
    // structural invariants the checked preset enforces must hold
    // after every step.
    Cache c(smallCache());
    for (Addr i = 0; i < 200; ++i) {
        c.insert((i * 0x40) % 0x800);
        if (i % 3 == 0)
            c.invalidate(((i / 2) * 0x40) % 0x800);
        if (i % 5 == 0)
            c.insert((i * 0x40) % 0x800); // double insert
        c.access(((i / 3) * 0x40) % 0x800);
        ASSERT_LE(c.validBlocks(), c.capacityBlocks()) << i;
        ASSERT_TRUE(c.tagsUnique()) << i;
    }
}

TEST(Cache, CyclicSweepLargerThanCacheAlwaysMisses)
{
    // Classic LRU adversary: sweeping N+1 blocks through an
    // N-block fully-conflicting set never hits.
    Cache c(smallCache()); // 8 blocks total, set-conflicting stride
    const Addr stride = 256; // same set
    for (int round = 0; round < 3; ++round) {
        for (Addr i = 0; i < 3; ++i) { // 3 > 2 ways
            const Addr a = i * stride;
            EXPECT_FALSE(c.access(a));
            c.insert(a);
        }
    }
}

/** Property sweep: size/assoc combinations keep basic invariants. */
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(CacheGeometry, FillAndRecall)
{
    const auto [size_kb, assoc] = GetParam();
    Cache c(CacheParams{size_kb * 1024ull, assoc, 64, 1});
    const std::uint64_t blocks = size_kb * 1024ull / 64;
    // Fill the whole cache with sequential addresses.
    for (std::uint64_t i = 0; i < blocks; ++i)
        c.insert(i * 64);
    EXPECT_EQ(c.validBlocks(), blocks);
    // Everything present: sequential addresses spread evenly.
    for (std::uint64_t i = 0; i < blocks; ++i)
        EXPECT_TRUE(c.access(i * 64));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::pair<unsigned, unsigned>{16, 4},
                      std::pair<unsigned, unsigned>{32, 4},
                      std::pair<unsigned, unsigned>{64, 8},
                      std::pair<unsigned, unsigned>{256, 4}));

TEST(CacheReplacement, FifoIgnoresAccessRecency)
{
    CacheParams p = smallCache();
    p.replacement = ReplacementPolicy::Fifo;
    Cache c(p);
    c.insert(0x0);   // oldest in set 0
    c.insert(0x100);
    EXPECT_TRUE(c.access(0x0)); // touching must NOT refresh
    c.insert(0x200); // evicts the oldest insert: 0x0
    EXPECT_FALSE(c.access(0x0));
    EXPECT_TRUE(c.access(0x100));
}

TEST(CacheReplacement, FifoDoubleInsertKeepsInsertionStamp)
{
    // Re-inserting a resident block is a touch, not a re-insertion:
    // under Fifo the original insertion stamp must survive, so the
    // block is still evicted in arrival order.
    CacheParams p = smallCache();
    p.replacement = ReplacementPolicy::Fifo;
    Cache c(p);
    c.insert(0x0);   // oldest in set 0
    c.insert(0x100);
    c.insert(0x0);   // touch; must NOT refresh the stamp
    EXPECT_EQ(c.insert(0x200), 0x0u); // still evicts the oldest
    EXPECT_FALSE(c.access(0x0));
    EXPECT_TRUE(c.access(0x100));
}

TEST(CacheReplacement, LruDoubleInsertRefreshesStamp)
{
    // The same touch under Lru *does* refresh recency.
    Cache c(smallCache());
    c.insert(0x0);
    c.insert(0x100);
    c.insert(0x0); // touch promotes 0x0
    EXPECT_EQ(c.insert(0x200), 0x100u);
    EXPECT_TRUE(c.access(0x0));
    EXPECT_FALSE(c.access(0x100));
}

TEST(CacheReplacement, RandomIsDeterministicAndValid)
{
    CacheParams p = smallCache();
    p.replacement = ReplacementPolicy::Random;
    Cache a(p), b(p);
    // Same insertion sequence -> same evictions (deterministic LFSR).
    std::vector<std::optional<Addr>> ev_a, ev_b;
    for (Addr i = 0; i < 16; ++i) {
        ev_a.push_back(a.insert(i * 0x100));
        ev_b.push_back(b.insert(i * 0x100));
    }
    EXPECT_EQ(ev_a, ev_b);
    // Capacity invariant holds.
    EXPECT_LE(a.validBlocks(), 8u);
}

TEST(CacheReplacement, RandomUnaffectedByInterleavedAccesses)
{
    // The replacement LFSR only advances on evicting inserts, so
    // read probes between inserts must not perturb the eviction
    // sequence.
    CacheParams p = smallCache();
    p.replacement = ReplacementPolicy::Random;
    Cache a(p), b(p);
    std::vector<std::optional<Addr>> ev_a, ev_b;
    for (Addr i = 0; i < 16; ++i) {
        ev_a.push_back(a.insert(i * 0x100));
        b.access((i / 2) * 0x100); // extra probes on b only
        b.contains(i * 0x100);
        ev_b.push_back(b.insert(i * 0x100));
    }
    EXPECT_EQ(ev_a, ev_b);
}

TEST(CacheReplacement, RandomNeverEvictsIncomingBlock)
{
    CacheParams p = smallCache();
    p.replacement = ReplacementPolicy::Random;
    Cache c(p);
    for (Addr i = 0; i < 64; ++i) {
        c.insert(i * 0x100);
        EXPECT_TRUE(c.access(i * 0x100)) << i;
    }
}

// ---------------------------------------------------------------------
// Differential fuzz against a plain reference model.
//
// The reference keeps one (valid, tag, stamp) record per way and
// decides everything the obvious way: stamped LRU (hits and inserts
// take a fresh stamp), insertion-order FIFO (only inserts stamp),
// and the same 16-bit Galois LFSR for Random. The victim is the
// first invalid way; in a full set it is the way with the smallest
// stamp, or under Random the LFSR's way. Rng-seeded interleavings of
// every public operation must agree with Cache on each step.
// ---------------------------------------------------------------------

namespace
{

class RefCache
{
  public:
    RefCache(std::uint64_t sets, unsigned assoc, unsigned block_shift,
             ReplacementPolicy policy)
        : sets_(sets), assoc_(assoc), block_shift_(block_shift),
          policy_(policy), ways_(sets * assoc)
    {
    }

    bool
    access(Addr tag)
    {
        const std::optional<std::uint64_t> w = find(tag);
        if (!w)
            return false;
        if (policy_ == ReplacementPolicy::Lru)
            ways_[*w].stamp = ++clock_;
        mru_ = *w;
        return true;
    }

    std::optional<Addr>
    accessOrInsert(Addr tag, bool &hit)
    {
        hit = access(tag);
        if (hit)
            return std::nullopt;
        const std::uint64_t base = (tag % sets_) * assoc_;
        std::uint64_t victim = base;
        bool found_invalid = false;
        for (unsigned w = 0; w < assoc_ && !found_invalid; ++w) {
            if (!ways_[base + w].valid) {
                victim = base + w;
                found_invalid = true;
            } else if (ways_[base + w].stamp < ways_[victim].stamp) {
                victim = base + w;
            }
        }
        if (!found_invalid && policy_ == ReplacementPolicy::Random) {
            lfsr_ = (lfsr_ >> 1) ^ (-(lfsr_ & 1u) & 0xb400u);
            victim = base + lfsr_ % assoc_;
            if (ways_[victim].tag == tag)
                victim = base + (lfsr_ + 1) % assoc_;
        }
        std::optional<Addr> evicted;
        if (ways_[victim].valid)
            evicted = ways_[victim].tag << block_shift_;
        ways_[victim] = Way{true, tag, ++clock_};
        mru_ = victim;
        return evicted;
    }

    bool contains(Addr tag) const { return find(tag).has_value(); }

    void
    invalidate(Addr tag)
    {
        if (const std::optional<std::uint64_t> w = find(tag))
            ways_[*w].valid = false;
    }

    void
    flush()
    {
        for (Way &w : ways_)
            w.valid = false;
    }

    bool
    mruIsTag(Addr tag) const
    {
        return ways_[mru_].valid && ways_[mru_].tag == tag;
    }

    std::uint64_t
    validBlocks() const
    {
        std::uint64_t n = 0;
        for (const Way &w : ways_)
            n += w.valid ? 1 : 0;
        return n;
    }

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t stamp = 0;
    };

    std::optional<std::uint64_t>
    find(Addr tag) const
    {
        const std::uint64_t base = (tag % sets_) * assoc_;
        for (unsigned w = 0; w < assoc_; ++w)
            if (ways_[base + w].valid && ways_[base + w].tag == tag)
                return base + w;
        return std::nullopt;
    }

    std::uint64_t sets_;
    unsigned assoc_;
    unsigned block_shift_;
    ReplacementPolicy policy_;
    std::vector<Way> ways_;
    std::uint64_t clock_ = 0;
    std::uint64_t mru_ = 0;
    std::uint32_t lfsr_ = 0xace1u;
};

struct FuzzShape
{
    std::uint64_t sets;
    unsigned assoc;
    ReplacementPolicy policy;
};

std::string
fuzzShapeName(const ::testing::TestParamInfo<FuzzShape> &info)
{
    const char *policy = info.param.policy == ReplacementPolicy::Lru
        ? "Lru"
        : info.param.policy == ReplacementPolicy::Fifo ? "Fifo"
                                                       : "Random";
    return std::string(policy) + "_sets" + std::to_string(info.param.sets)
        + "_assoc" + std::to_string(info.param.assoc);
}

std::vector<FuzzShape>
fuzzShapes()
{
    std::vector<FuzzShape> shapes;
    for (const ReplacementPolicy policy :
         {ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
          ReplacementPolicy::Random})
        for (const std::uint64_t sets : {4u, 6u})
            for (const unsigned assoc : {1u, 2u, 4u, 8u, 16u})
                shapes.push_back(FuzzShape{sets, assoc, policy});
    return shapes;
}

} // namespace

class CacheDifferentialFuzz : public ::testing::TestWithParam<FuzzShape>
{
};

TEST_P(CacheDifferentialFuzz, MatchesReferenceModel)
{
    const FuzzShape shape = GetParam();
    constexpr unsigned blockShift = 6;
    CacheParams params;
    params.assoc = shape.assoc;
    params.blockBytes = Addr{1} << blockShift;
    params.sizeBytes = shape.sets * shape.assoc * params.blockBytes;
    params.replacement = shape.policy;

    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Cache cache(params);
        RefCache ref(shape.sets, shape.assoc, blockShift, shape.policy);
        Rng rng(seed * 7919 + shape.assoc);
        // A pool a little larger than the cache keeps every set under
        // conflict pressure. Seed 3 also sets the top two bits of the
        // 58-bit tag field at random, so tags that differ only there
        // share a set and every tag bit takes part in matching.
        const Addr pool = shape.sets * (shape.assoc + shape.assoc / 2 + 2);
        const unsigned high_bits = seed == 3 ? 2 : 0;

        for (unsigned step = 0; step < 3000; ++step) {
            const Addr high = rng.below(Addr{1} << high_bits);
            const Addr tag = (high << 56) | rng.below(pool);
            const Addr addr = (tag << blockShift) + rng.below(64);
            const std::uint64_t op = rng.below(100);
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " step " << step
                         << " op " << op << " tag " << tag);
            if (op < 20) {
                const bool want = ref.access(tag);
                ASSERT_EQ(cache.access(addr), want);
            } else if (op < 30) {
                const bool want = ref.access(tag);
                ASSERT_EQ(cache.accessTag(tag), want);
            } else if (op < 50) {
                bool hit = false;
                const std::optional<Addr> want =
                    ref.accessOrInsert(tag, hit);
                ASSERT_EQ(cache.insert(addr), want);
            } else if (op < 55) {
                bool hit = false;
                const std::optional<Addr> want =
                    ref.accessOrInsert(tag, hit);
                ASSERT_EQ(cache.insertTag(tag), want);
            } else if (op < 75) {
                bool want_hit = false;
                const std::optional<Addr> want =
                    ref.accessOrInsert(tag, want_hit);
                bool hit = !want_hit;
                ASSERT_EQ(cache.accessOrInsertTag(tag, hit), want);
                ASSERT_EQ(hit, want_hit);
            } else if (op < 85) {
                ASSERT_EQ(cache.contains(addr), ref.contains(tag));
                ASSERT_EQ(cache.containsTag(tag), ref.contains(tag));
            } else if (op < 99) {
                ref.invalidate(tag);
                cache.invalidate(addr);
            } else {
                ref.flush();
                cache.flush();
            }
            ASSERT_EQ(cache.mruIsTag(tag), ref.mruIsTag(tag));
            ASSERT_EQ(cache.validBlocks(), ref.validBlocks());
            ASSERT_TRUE(cache.tagsUnique());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, CacheDifferentialFuzz,
                         ::testing::ValuesIn(fuzzShapes()),
                         fuzzShapeName);

TEST(TlbDifferentialFuzz, TranslateMatchesReferenceModel)
{
    // 128 entries is the paper's TLB; 24 entries at 4 ways gives a
    // non-power-of-two set count (6 sets, modulo indexing).
    const std::vector<TlbParams> shapes = {
        {128, 4, 40}, {24, 4, 40}, {16, 1, 30}, {32, 16, 50}};
    for (const TlbParams &tp : shapes) {
        Tlb tlb(tp);
        const std::uint64_t sets = tp.entries / tp.assoc;
        RefCache ref(sets, tp.assoc, pageShift, ReplacementPolicy::Lru);
        Rng rng(tp.entries * 131 + tp.assoc);
        std::uint64_t accesses = 0;
        std::uint64_t hits = 0;
        const Addr pool = tp.entries + tp.entries / 2 + 3;
        Addr last_page = 0;
        for (unsigned step = 0; step < 20000; ++step) {
            SCOPED_TRACE(::testing::Message()
                         << "entries " << tp.entries << " assoc "
                         << tp.assoc << " step " << step);
            const std::uint64_t op = rng.below(100);
            if (op < 1) {
                tlb.flush();
                ref.flush();
                continue;
            }
            // Half the draws repeat the last page: the MRU fast path.
            const Addr page =
                op < 50 ? last_page : 0x100 + rng.below(pool);
            last_page = page;
            const Addr addr = (page << pageShift) + rng.below(pageBytes);
            bool hit = false;
            ref.accessOrInsert(page, hit);
            ++accesses;
            hits += hit ? 1 : 0;
            ASSERT_EQ(tlb.translate(addr), hit ? 0 : tp.missPenalty);
            ASSERT_EQ(tlb.accesses(), accesses);
            ASSERT_EQ(tlb.hits(), hits);
            ASSERT_TRUE(tlb.mruIsPage(page));
            ASSERT_EQ(tlb.mruIsPage(page + 1), ref.mruIsTag(page + 1));
        }
    }
}
