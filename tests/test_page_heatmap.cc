/**
 * @file
 * Tests for the Page-heatmap Bloom filter (Section 3.2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "core/page_heatmap.hh"

using namespace schedtask;

TEST(PageHeatmap, StartsEmpty)
{
    PageHeatmap hm(512);
    EXPECT_TRUE(hm.empty());
    EXPECT_EQ(hm.popcount(), 0u);
}

TEST(PageHeatmap, NoFalseNegatives)
{
    PageHeatmap hm(512);
    Rng rng(42);
    std::vector<Addr> pfns;
    for (int i = 0; i < 100; ++i)
        pfns.push_back(rng());
    for (Addr pf : pfns)
        hm.insertPfn(pf);
    for (Addr pf : pfns)
        EXPECT_TRUE(hm.mightContainPfn(pf));
}

TEST(PageHeatmap, PaperHashUsesAllPfnBits)
{
    // Two PFNs differing only in bit 50 must hash differently
    // (the five 9-bit shifts fold the high bits in).
    const Addr a = 0x1;
    const Addr b = a | (Addr{1} << 50);
    EXPECT_NE(PageHeatmap::hashPfn(a) % 512,
              PageHeatmap::hashPfn(b) % 512);
}

TEST(PageHeatmap, HashMatchesPaperFormula)
{
    const Addr pf = 0x123456789abull;
    const std::uint64_t expect = pf + (pf >> 9) + (pf >> 18)
        + (pf >> 27) + (pf >> 36) + (pf >> 45);
    EXPECT_EQ(PageHeatmap::hashPfn(pf), expect);
}

TEST(PageHeatmap, InsertAddrUsesPageFrame)
{
    PageHeatmap a(512), b(512);
    a.insertAddr(0x5000);
    b.insertPfn(0x5);
    EXPECT_EQ(a, b);
}

TEST(PageHeatmap, ClearZeroesEverything)
{
    PageHeatmap hm(512);
    hm.insertPfn(123);
    EXPECT_FALSE(hm.empty());
    hm.clear();
    EXPECT_TRUE(hm.empty());
}

TEST(PageHeatmap, OrWithIsUnion)
{
    PageHeatmap a(512), b(512), u(512);
    a.insertPfn(1);
    b.insertPfn(2);
    u.insertPfn(1);
    u.insertPfn(2);
    a.orWith(b);
    EXPECT_EQ(a, u);
}

TEST(PageHeatmap, OverlapCountsCommonBits)
{
    PageHeatmap a(512), b(512);
    a.insertPfn(10);
    a.insertPfn(11);
    b.insertPfn(11);
    b.insertPfn(12);
    // Exactly the bit of PFN 11 is common (no collisions among
    // three small PFNs in 512 bits).
    EXPECT_EQ(a.overlap(b), 1u);
}

TEST(PageHeatmap, OverlapOfDisjointSetsIsSmall)
{
    PageHeatmap a(512), b(512);
    for (Addr pf = 0; pf < 20; ++pf)
        a.insertPfn(pf);
    for (Addr pf = 1000; pf < 1020; ++pf)
        b.insertPfn(pf);
    EXPECT_LE(a.overlap(b), 2u); // collisions only
}

TEST(PageHeatmap, SharedSubsetDetected)
{
    // read/pread style: 80% common pages -> overlap close to the
    // common count.
    PageHeatmap a(512), b(512);
    for (Addr pf = 0; pf < 40; ++pf)
        a.insertPfn(pf);
    for (Addr pf = 8; pf < 48; ++pf)
        b.insertPfn(pf);
    EXPECT_GE(a.overlap(b), 28u);
    EXPECT_LE(a.overlap(b), 34u);
}

class HeatmapWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HeatmapWidth, SaturationGrowsWithInserts)
{
    PageHeatmap hm(GetParam());
    Rng rng(7);
    unsigned last = 0;
    for (int batch = 0; batch < 4; ++batch) {
        for (int i = 0; i < 32; ++i)
            hm.insertPfn(rng());
        EXPECT_GE(hm.popcount(), last);
        last = hm.popcount();
        EXPECT_LE(hm.popcount(), GetParam());
    }
}

TEST_P(HeatmapWidth, WiderFiltersCollideLess)
{
    // Insert 64 random PFNs into a filter of each width; the
    // popcount (distinct bits) must not decrease with width.
    Rng rng(11);
    std::vector<Addr> pfns;
    for (int i = 0; i < 64; ++i)
        pfns.push_back(rng());
    PageHeatmap narrow(128), wide(GetParam());
    for (Addr pf : pfns) {
        narrow.insertPfn(pf);
        wide.insertPfn(pf);
    }
    if (GetParam() >= 128) {
        EXPECT_GE(wide.popcount(), narrow.popcount());
    }
}

namespace
{

/** Reference model: one flag per filter bit, set for the hashed bit
 *  of every inserted PFN. */
std::vector<bool>
referenceBits(const std::vector<Addr> &pfns, unsigned bits)
{
    std::vector<bool> set(bits, false);
    for (Addr pfn : pfns)
        set[PageHeatmap::hashPfn(pfn) & (bits - 1)] = true;
    return set;
}

unsigned
countBits(const std::vector<bool> &set)
{
    return static_cast<unsigned>(
        std::count(set.begin(), set.end(), true));
}

} // namespace

TEST_P(HeatmapWidth, WordOpsMatchBitSetReference)
{
    const unsigned bits = GetParam();
    Rng rng(bits);
    std::vector<Addr> pa, pb;
    for (int i = 0; i < 400; ++i) {
        pa.push_back(rng.below(1 << 20));
        pb.push_back(rng.below(1 << 20));
    }
    PageHeatmap a(bits), b(bits);
    for (Addr pfn : pa)
        a.insertPfn(pfn);
    for (Addr pfn : pb)
        b.insertPfn(pfn);

    const std::vector<bool> ra = referenceBits(pa, bits);
    const std::vector<bool> rb = referenceBits(pb, bits);
    std::vector<bool> both(bits), either(bits);
    for (unsigned i = 0; i < bits; ++i) {
        both[i] = ra[i] && rb[i];
        either[i] = ra[i] || rb[i];
    }
    EXPECT_EQ(a.popcount(), countBits(ra));
    EXPECT_EQ(b.popcount(), countBits(rb));
    EXPECT_EQ(a.overlap(b), countBits(both));
    EXPECT_EQ(b.overlap(a), countBits(both));

    const PageHeatmap a_only = a;
    a.orWith(b);
    EXPECT_EQ(a.popcount(), countBits(either));
    EXPECT_EQ(a.overlap(a_only), countBits(ra));
    EXPECT_EQ(a.overlap(b), countBits(rb));
    for (Addr pfn : pb)
        EXPECT_TRUE(a.mightContainPfn(pfn));

    a.clear();
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.popcount(), 0u);
    EXPECT_EQ(a.overlap(b), 0u);
    // Inserts after a clear set their bits again.
    for (Addr pfn : pa)
        a.insertPfn(pfn);
    EXPECT_EQ(a, a_only);
}

TEST_P(HeatmapWidth, AllOnesAndAllZerosWeights)
{
    const unsigned bits = GetParam();
    // Below 2^18 the hash is pfn + (pfn >> 9): it never skips two
    // values a filter width apart, so 2 * bits consecutive frames
    // set every bit.
    PageHeatmap ones(bits), zeros(bits);
    for (Addr pfn = 0; pfn < 2 * Addr{bits}; ++pfn)
        ones.insertPfn(pfn);
    ASSERT_EQ(ones.popcount(), bits);
    EXPECT_EQ(zeros.popcount(), 0u);
    EXPECT_EQ(ones.overlap(ones), bits);
    EXPECT_EQ(ones.overlap(zeros), 0u);
    EXPECT_EQ(zeros.overlap(ones), 0u);
    EXPECT_EQ(zeros.overlap(zeros), 0u);

    zeros.orWith(ones);
    EXPECT_EQ(zeros, ones);
    ones.clear();
    EXPECT_TRUE(ones.empty());
    EXPECT_EQ(ones.popcount(), 0u);
    EXPECT_EQ(zeros.overlap(ones), 0u);
}

// Every supported width, 64 to 65536 bits.
INSTANTIATE_TEST_SUITE_P(Widths, HeatmapWidth,
                         ::testing::Values(64, 128, 256, 512, 1024, 2048,
                                           4096, 8192, 16384, 32768,
                                           65536));

TEST(PageHeatmapDeath, MismatchedWidthsPanic)
{
    PageHeatmap a(128), b(256);
    EXPECT_DEATH(a.overlap(b), "widths");
    EXPECT_DEATH(a.orWith(b), "widths");
}

TEST(PageHeatmapDeath, NonPowerOfTwoWidthPanics)
{
    EXPECT_DEATH(PageHeatmap hm(500), "power of two");
}
