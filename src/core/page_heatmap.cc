#include "core/page_heatmap.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace schedtask
{

PageHeatmap::PageHeatmap(unsigned bits)
    : bits_(bits)
{
    SCHEDTASK_ASSERT(bits >= 64 && bits <= 65536
                         && (bits & (bits - 1)) == 0,
                     "heatmap width must be a power of two in [64, 65536], "
                     "got ", bits);
    words_.resize(bits / 64, 0);
}

std::uint64_t
PageHeatmap::hashPfn(Addr pfn)
{
    // Section 3.2: five right-shifts at a stride of 9 bits fold all
    // 52 PFN bits into the 9-bit index space of a 512-bit register.
    return pfn + (pfn >> 9) + (pfn >> 18) + (pfn >> 27) + (pfn >> 36)
        + (pfn >> 45);
}

bool
PageHeatmap::mightContainPfn(Addr pfn) const
{
    const std::uint64_t bit = hashPfn(pfn) & (bits_ - 1);
    return (words_[bit >> 6] >> (bit & 63)) & 1;
}

void
PageHeatmap::clear()
{
    // The memo must not survive a clear: the memoized frame's bit is
    // gone, so a repeat insert has to set it again.
    last_pfn_ = noPfn;
    std::fill(words_.begin(), words_.end(), 0);
}

void
PageHeatmap::orWith(const PageHeatmap &other)
{
    SCHEDTASK_ASSERT(other.bits_ == bits_,
                     "cannot OR heatmaps of different widths");
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] |= other.words_[i];
}

unsigned
PageHeatmap::overlap(const PageHeatmap &other) const
{
    SCHEDTASK_ASSERT(other.bits_ == bits_,
                     "cannot compare heatmaps of different widths");
    // The hardware breaks the 512-bit AND into sixteen 32-bit
    // operations; a per-word AND + popcount is equivalent.
    unsigned weight = 0;
    for (std::size_t i = 0; i < words_.size(); ++i)
        weight += static_cast<unsigned>(
            std::popcount(words_[i] & other.words_[i]));
    return weight;
}

unsigned
PageHeatmap::popcount() const
{
    unsigned weight = 0;
    for (std::uint64_t w : words_)
        weight += static_cast<unsigned>(std::popcount(w));
    return weight;
}

bool
PageHeatmap::empty() const
{
    for (auto w : words_)
        if (w != 0)
            return false;
    return true;
}

} // namespace schedtask
