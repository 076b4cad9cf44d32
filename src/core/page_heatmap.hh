/**
 * @file
 * The Page-heatmap Bloom filter of Section 3.2.
 *
 * A Page-heatmap summarizes the set of physical page frames holding
 * the instructions a superFuncType executed during an epoch. The
 * hardware is a 512-bit register; when an instruction with physical
 * frame number pf commits, bit (hash(pf) mod 512) is set, with
 *
 *   hash(pf) = pf + (pf>>9) + (pf>>18) + (pf>>27) + (pf>>36)
 *            + (pf>>45)
 *
 * so that all 52 bits of the frame number participate. The
 * similarity of two heatmaps is the Hamming weight of their bitwise
 * AND (Figure 3); epoch aggregation across cores is a bitwise OR
 * (Figure 6). Widths other than 512 (128..2048) are supported for
 * the Section 6.5 sensitivity study.
 */

#ifndef SCHEDTASK_CORE_PAGE_HEATMAP_HH
#define SCHEDTASK_CORE_PAGE_HEATMAP_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace schedtask
{

/**
 * A Bloom filter over physical page frame numbers.
 */
class PageHeatmap
{
  public:
    /**
     * @param bits filter width; must be a power of two in
     *             [64, 65536]. The paper default is 512.
     */
    explicit PageHeatmap(unsigned bits = 512);

    /** True for the widths the constructor accepts. */
    static constexpr bool
    validWidth(std::uint64_t bits)
    {
        return bits >= 64 && bits <= 65536 && (bits & (bits - 1)) == 0;
    }

    /** The paper's PFN hash (sum of six 9-bit-stride shifts). */
    static std::uint64_t hashPfn(Addr pfn);

    /**
     * Record a committed instruction's physical frame number.
     *
     * Inline with a last-frame memo: the fetch stream is mostly
     * sequential within a page (64 lines per frame), and re-setting
     * an already-set bit is idempotent, so consecutive inserts of
     * the same frame skip the hash and the word OR entirely. The
     * resulting bit pattern is exactly that of the plain insert.
     */
    void
    insertPfn(Addr pfn)
    {
        if (pfn == last_pfn_)
            return;
        last_pfn_ = pfn;
        const std::uint64_t bit = hashPfn(pfn) & (bits_ - 1);
        words_[bit >> 6] |= (std::uint64_t{1} << (bit & 63));
    }

    /** Record the page containing a byte address. */
    void insertAddr(Addr addr) { insertPfn(pageFrameOf(addr)); }

    /** Membership test (may return false positives, never false
     *  negatives). */
    bool mightContainPfn(Addr pfn) const;

    /** Zero every bit (done at the start of each epoch). */
    void clear();

    /** Bitwise-OR another heatmap into this one (aggregation). */
    void orWith(const PageHeatmap &other);

    /**
     * Page overlap with another heatmap: the Hamming weight of the
     * bitwise AND (the paper's similarity measure, Figure 3).
     */
    unsigned overlap(const PageHeatmap &other) const;

    /** Number of set bits. */
    unsigned popcount() const;

    /** Filter width in bits. */
    unsigned bits() const { return bits_; }

    /** True when no bit is set. */
    bool empty() const;

    friend bool
    operator==(const PageHeatmap &a, const PageHeatmap &b)
    {
        return a.bits_ == b.bits_ && a.words_ == b.words_;
    }

  private:
    /** No-frame sentinel for the insert memo: physical frames are
     *  at most 52 bits (Section 3.2), so ~0 is never a real PFN. */
    static constexpr Addr noPfn = ~Addr{0};

    unsigned bits_;
    /** Last frame inserted since the latest clear() (insert memo). */
    Addr last_pfn_ = noPfn;
    std::vector<std::uint64_t> words_;
};

} // namespace schedtask

#endif // SCHEDTASK_CORE_PAGE_HEATMAP_HH
