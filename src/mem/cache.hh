/**
 * @file
 * Set-associative cache with true-LRU replacement.
 *
 * Used for L1I, L1D, private L2 and the shared LLC, for the iTLB and
 * dTLB (with page granularity), and for the trace cache. Only tags
 * are modelled — this is a trace-driven timing simulator, data
 * values never matter.
 *
 * This sits on the simulator's per-instruction hot path (every fetch
 * block probes the iTLB and L1I, every data access the dTLB and
 * L1D), so the lookup paths are engineered accordingly:
 *
 *  - the set index is a mask when the set count is a power of two
 *    (every real configuration) instead of an integer division;
 *  - an MRU fast path short-circuits the way scan when the probed
 *    block is the one touched last (tags embed the set bits, so a
 *    single compare suffices) — and it is a pure read: the cache's
 *    most recently touched way is by definition already the most
 *    recent in its set, so no recency update is needed at all;
 *  - a way is one 8-byte word — the block tag in the low 58 bits,
 *    the way's recency *rank* within its set in the next 5, and a
 *    valid bit on top — so a 4-way set is 32 bytes and the whole tag
 *    store of a simulated machine stays close to the host's private
 *    caches (the tag arrays are probed at random addresses, so their
 *    footprint is what the simulator's own miss paths pay for);
 *  - a set probe branches once, not once per way. Which way holds a
 *    tag is data-random, so an early-exit scan mispredicts on most
 *    probes. findWay() instead tests every way with one masked
 *    compare and selects the match without an exit; tags are unique
 *    within a set (tagsUnique()), so it finds the same way the early
 *    exit would. The fill victim is likewise a branch-free argmin
 *    over each way's packed [valid:1][rank:5] key, first index on
 *    ties: invalid ways have key 0, so the first invalid way wins,
 *    else the valid way with the lowest rank (the LRU / oldest way).
 *
 * Recency is kept as a per-set permutation: the valid ways of a set
 * always carry distinct ranks 0..valid-1, oldest first. Touching a
 * way moves it to the top rank and shifts the ways above it down by
 * one — the relative order of all other ways is untouched, which is
 * exactly what stamping with a fresh monotonic counter does. Every
 * replacement decision depends only on that relative order (the LRU
 * victim is the set's rank-0 way), so the packed layout and all fast
 * paths are exact: they produce bit-identical replacement state to a
 * plain stamped scan.
 */

#ifndef SCHEDTASK_MEM_CACHE_HH
#define SCHEDTASK_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace schedtask
{

/** Replacement policy of a set-associative cache. */
enum class ReplacementPolicy : std::uint8_t
{
    Lru,    ///< true least-recently-used (the default everywhere)
    Fifo,   ///< oldest-inserted evicted first
    Random, ///< pseudo-random way (deterministic LFSR)
};

/** Geometry and latency of one cache level. */
struct CacheParams
{
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 32 * 1024;
    /** Associativity (ways per set). */
    unsigned assoc = 4;
    /** Bytes per block (64 for caches, 4096 for TLBs-as-caches). */
    std::uint64_t blockBytes = lineBytes;
    /** Access latency in cycles (applied by the hierarchy). */
    Cycles latency = 3;
    /** Victim selection on insertion. */
    ReplacementPolicy replacement = ReplacementPolicy::Lru;
};

/**
 * A tag-only set-associative cache.
 *
 * Addresses passed in are full byte addresses; the cache derives the
 * block/tag split from its parameters. Callers that already hold the
 * block tag (addr >> blockShift, e.g. a hierarchy probing several
 * line-grain levels with one precomputed tag) can use the *Tag
 * variants directly and skip the per-level shift.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up an address and update LRU on hit.
     *
     * @return true on hit.
     */
    bool
    access(Addr addr)
    {
        return accessTag(tagOf(addr));
    }

    /** access() with a precomputed block tag. */
    bool
    accessTag(Addr tag)
    {
        // A tag is the full block address (it includes the set
        // bits), so one compare identifies the last-touched block.
        // The cache's most recent way is also its set's most recent,
        // so a hit here needs no recency update whatsoever.
        if (wayHits(ways_[mru_index_], tag))
            return true;
        return accessSlow(tag);
    }

    /**
     * Insert the block containing addr, evicting a victim way.
     *
     * @return the byte address of the evicted block, or std::nullopt
     *         when no valid block was displaced (an invalid way was
     *         filled, or the block was already resident).
     */
    std::optional<Addr>
    insert(Addr addr)
    {
        return insertTag(tagOf(addr));
    }

    /** insert() with a precomputed block tag. */
    std::optional<Addr>
    insertTag(Addr tag)
    {
        bool hit = false;
        return accessOrInsertTag(tag, hit);
    }

    /**
     * One-scan probe-and-fill: behaves as accessTag() when the block
     * is resident (hit = true, LRU refreshed, nothing displaced) and
     * as insertTag() when it is not (hit = false, victim way filled).
     * Exactly equivalent to accessTag(tag) followed on a miss by
     * insertTag(tag) — merging just avoids walking the set twice on
     * the fill path, which the hierarchy's miss walks sit on. The
     * hit scan is accessTag()'s own inline scan, so probe-style
     * callers pay nothing extra on hits.
     */
    std::optional<Addr>
    accessOrInsertTag(Addr tag, bool &hit)
    {
        hit = accessSlow(tag);
        if (hit)
            return std::nullopt;
        return insertAbsent(setIndexOfTag(tag) * params_.assoc, tag);
    }

    /** Probe without disturbing LRU state. */
    bool
    contains(Addr addr) const
    {
        return containsTag(tagOf(addr));
    }

    /** contains() with a precomputed block tag. */
    bool
    containsTag(Addr tag) const
    {
        if (wayHits(ways_[mru_index_], tag))
            return true;
        return containsSlow(tag);
    }

    /** Invalidate the block containing addr if present. Inline:
     *  called for every coherence invalidation on the data path. */
    void
    invalidate(Addr addr)
    {
        const Addr tag = tagOf(addr);
        Way *base = &ways_[setIndexOfTag(tag) * params_.assoc];
        const unsigned w = findWay(base, tag);
        if (w == params_.assoc)
            return;
        // Drop the way from its set's recency order: ways above it
        // slide down one rank, keeping the valid ranks a dense
        // 0..valid-1 permutation. Branchless — invalid ways are rank
        // 0 and never test as above.
        const std::uint64_t rank = rankOf(base[w]);
        for (unsigned v = 0; v < params_.assoc; ++v)
            base[v].raw -=
                std::uint64_t{rankOf(base[v]) > rank} << rankShift;
        base[w].raw &= tagMask; // clears valid and rank
    }

    /** Invalidate every block. */
    void flush();

    /** Number of currently valid blocks. */
    std::uint64_t validBlocks() const;

    /** Maximum number of valid blocks (sets * assoc). */
    std::uint64_t
    capacityBlocks() const
    {
        return num_sets_ * params_.assoc;
    }

    /**
     * True when no set holds two valid copies of one tag and no set
     * exceeds its associativity — the structural invariant the
     * checked preset verifies during whole-figure runs.
     */
    bool tagsUnique() const;

    /** Configured parameters. */
    const CacheParams &params() const { return params_; }

    /** Number of sets. */
    std::uint64_t numSets() const { return num_sets_; }

    /** log2(blockBytes): callers precomputing tags share this. */
    unsigned blockShift() const { return block_shift_; }

    /** The block tag (full block address) of a byte address. */
    Addr tagOf(Addr addr) const { return addr >> block_shift_; }

    /**
     * True when the cache's most recently touched way holds `tag`
     * valid. A repeat probe of that block is then a pure read (see
     * accessTag): this is the property the hierarchy's L0 presence
     * filter certifies, and what the checked preset's L0 soundness
     * invariant verifies.
     */
    bool
    mruIsTag(Addr tag) const
    {
        return wayHits(ways_[mru_index_], tag);
    }

  private:
    /** Field layout of a packed way: tag [0,58), rank [58,63),
     *  valid bit 63. 58 tag bits cover every byte address at line
     *  grain (2^64 / 64); 5 rank bits support assoc up to 32. */
    static constexpr unsigned rankShift = 58;
    static constexpr unsigned validShift = 63;
    static constexpr std::uint64_t tagMask =
        (std::uint64_t{1} << rankShift) - 1;
    static constexpr std::uint64_t rankOne =
        std::uint64_t{1} << rankShift;
    static constexpr std::uint64_t validBit =
        std::uint64_t{1} << validShift;
    static constexpr unsigned maxAssoc = 32;

    /**
     * One way in 8 bytes. An invalid way keeps its stale tag (it can
     * never match a valid check) and rank 0.
     */
    struct Way
    {
        std::uint64_t raw = 0; // [valid:1][rank:5][tag:58]
    };

    static bool isValid(const Way &w) { return (w.raw & validBit) != 0; }

    /** Recency rank within the set: 0 = oldest valid way. */
    static std::uint64_t
    rankOf(const Way &w)
    {
        return (w.raw >> rankShift) & (maxAssoc - 1);
    }

    /** Valid-hit test: tag bits equal and valid bit set, as one
     *  masked compare (the rank field is masked out). */
    static bool
    wayHits(const Way &w, Addr tag)
    {
        return ((w.raw ^ (tag | validBit)) & (tagMask | validBit)) == 0;
    }

    /**
     * Index of the way in the set at `base` holding `tag` valid, or
     * assoc when none does. Scans every way with no early exit and
     * selects the match: tags are unique within a set, so this is
     * the way an early-exit scan finds, without its per-way branch.
     */
    unsigned
    findWay(const Way *base, Addr tag) const
    {
        unsigned found = params_.assoc;
        for (unsigned w = 0; w < params_.assoc; ++w)
            found = wayHits(base[w], tag) ? w : found;
        return found;
    }

    /**
     * Make way w the most recent of its set: ways ranked above it
     * slide down one, w takes the top rank. The relative order of
     * all other ways is untouched — exactly a fresh-stamp touch.
     *
     * Branchless on purpose: which ways sit above w is data-random,
     * so a conditional store would mispredict on the hottest path in
     * the simulator. Invalid ways always carry rank 0 (invalidate,
     * flush and insert all clear it), so they can never test as
     * "above" and need no validity check; neither does w itself.
     */
    void
    touchWay(Way *base, unsigned w)
    {
        const std::uint64_t rank = rankOf(base[w]);
        // Ranks are a dense 0..valid-1 permutation, so assoc-1 can
        // only be held by the set's most recent way of a full set:
        // the touch is a provable no-op, skip the store loop (hits
        // tend to revisit each set's own most recent way long after
        // the cache warms up, so this is the common hit shape).
        if (rank == params_.assoc - 1)
            return;
        std::uint64_t above = 0;
        for (unsigned v = 0; v < params_.assoc; ++v) {
            const std::uint64_t is_above = rankOf(base[v]) > rank;
            base[v].raw -= is_above << rankShift;
            above += is_above;
        }
        base[w].raw += above << rankShift;
    }

    std::uint64_t
    setIndexOfTag(Addr tag) const
    {
        // Power-of-two set counts (every real geometry) use the
        // mask; the division survives only for odd TLB sizes.
        return set_mask_ != 0 ? (tag & set_mask_) : (tag % num_sets_);
    }

    /** Full way scan behind the MRU fast path of accessTag().
     *  Inline: the scan is the common path for L1 misses and
     *  non-MRU hits, and a 4-way packed set is half a cache line. */
    bool
    accessSlow(Addr tag)
    {
        const std::uint64_t base_index =
            setIndexOfTag(tag) * params_.assoc;
        Way *base = &ways_[base_index];
        const unsigned w = findWay(base, tag);
        if (w == params_.assoc)
            return false;
        // Fifo keeps the insertion order; Lru refreshes it.
        if (lru_refresh_)
            touchWay(base, w);
        mru_index_ = base_index + w;
        return true;
    }

    /** Full way scan behind the MRU fast path of containsTag(). */
    bool containsSlow(Addr tag) const;

    /** Miss half of accessOrInsertTag(): victim selection and the
     *  recency-order insertion, for a tag known absent from the set
     *  at `base_index`. Out of line — the fill path is rare next to
     *  the inline hit scan in front of it. */
    std::optional<Addr> insertAbsent(std::uint64_t base_index, Addr tag);

    CacheParams params_;
    std::uint64_t num_sets_;
    std::uint64_t set_mask_; // num_sets_ - 1 when a power of two, else 0
    unsigned block_shift_;
    bool lru_refresh_; // replacement == Lru: hits refresh the rank
    std::uint64_t mru_index_ = 0; // way of the last hit or insert
    std::uint32_t lfsr_ = 0xace1u; // Random replacement state
    std::vector<Way> ways_; // num_sets_ * assoc, row-major
};

} // namespace schedtask

#endif // SCHEDTASK_MEM_CACHE_HH
