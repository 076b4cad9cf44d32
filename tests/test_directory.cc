/**
 * @file
 * Tests for the coherence directory: sharer tracking, write
 * invalidation, remote-dirty fills, and eviction cleanup, plus a
 * differential fuzz against a std::map reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/random.hh"
#include "mem/directory.hh"

using namespace schedtask;

TEST(Directory, FirstReadHasNoRemoteEffects)
{
    CoherenceDirectory dir(4);
    const auto out = dir.onRead(0, 0x1000);
    EXPECT_FALSE(out.remoteDirtyFill);
    EXPECT_EQ(out.invalidateMask, 0u);
}

TEST(Directory, WriteInvalidatesOtherSharers)
{
    CoherenceDirectory dir(4);
    dir.onRead(0, 0x1000);
    dir.onRead(1, 0x1000);
    dir.onRead(2, 0x1000);
    const auto out = dir.onWrite(3, 0x1000);
    EXPECT_EQ(out.invalidateMask, 0b0111u);
}

TEST(Directory, WriteByExistingSharerExcludesSelf)
{
    CoherenceDirectory dir(4);
    dir.onRead(0, 0x1000);
    dir.onRead(1, 0x1000);
    const auto out = dir.onWrite(1, 0x1000);
    EXPECT_EQ(out.invalidateMask, 0b0001u);
}

TEST(Directory, ReadAfterRemoteWriteIsDirtyFill)
{
    CoherenceDirectory dir(4);
    dir.onWrite(0, 0x2000);
    const auto out = dir.onRead(1, 0x2000);
    EXPECT_TRUE(out.remoteDirtyFill);
}

TEST(Directory, ReadByOwnerIsNotDirtyFill)
{
    CoherenceDirectory dir(4);
    dir.onWrite(2, 0x2000);
    const auto out = dir.onRead(2, 0x2000);
    EXPECT_FALSE(out.remoteDirtyFill);
}

TEST(Directory, OwnershipMovesBetweenWriters)
{
    CoherenceDirectory dir(4);
    dir.onWrite(0, 0x3000);
    const auto w1 = dir.onWrite(1, 0x3000);
    EXPECT_TRUE(w1.remoteDirtyFill);
    EXPECT_EQ(w1.invalidateMask, 0b0001u);
    const auto w0 = dir.onWrite(0, 0x3000);
    EXPECT_TRUE(w0.remoteDirtyFill);
    EXPECT_EQ(w0.invalidateMask, 0b0010u);
}

TEST(Directory, ReadDowngradesOwnerToSharer)
{
    CoherenceDirectory dir(4);
    dir.onWrite(0, 0x4000);
    dir.onRead(1, 0x4000); // M -> O; both now share
    const auto out = dir.onRead(2, 0x4000);
    EXPECT_FALSE(out.remoteDirtyFill); // already downgraded
    const auto w = dir.onWrite(3, 0x4000);
    EXPECT_EQ(w.invalidateMask, 0b0111u);
}

TEST(Directory, EvictRemovesSharer)
{
    CoherenceDirectory dir(4);
    dir.onRead(0, 0x5000);
    dir.onRead(1, 0x5000);
    dir.onEvict(0, 0x5000);
    const auto w = dir.onWrite(2, 0x5000);
    EXPECT_EQ(w.invalidateMask, 0b0010u);
}

TEST(Directory, EntryGarbageCollectedWhenEmpty)
{
    CoherenceDirectory dir(2);
    dir.onRead(0, 0x6000);
    EXPECT_EQ(dir.trackedLines(), 1u);
    dir.onEvict(0, 0x6000);
    EXPECT_EQ(dir.trackedLines(), 0u);
}

TEST(Directory, EvictUnknownLineIsNoop)
{
    CoherenceDirectory dir(2);
    dir.onEvict(1, 0xdead); // must not crash
    EXPECT_EQ(dir.trackedLines(), 0u);
}

TEST(Directory, SupportsSixtyFourCores)
{
    CoherenceDirectory dir(64);
    for (unsigned c = 0; c < 64; ++c)
        dir.onRead(c, 0x7000);
    const auto w = dir.onWrite(63, 0x7000);
    EXPECT_EQ(w.invalidateMask, ~(std::uint64_t{1} << 63));
}

// ---- differential fuzz against a reference model -------------------

namespace
{

/** One line in the reference model. */
struct RefLine
{
    std::uint64_t sharers = 0;
    CoreId owner = invalidCore;
};

/**
 * The directory's protocol over a std::map: a read by a non-owner
 * downgrades a dirty owner (M->O) and joins the sharers; a write
 * invalidates every other sharer and takes ownership; an evict drops
 * the core, and a line with no sharers and no owner is forgotten.
 */
class RefDirectory
{
  public:
    DirectoryOutcome
    onRead(CoreId core, Addr line)
    {
        DirectoryOutcome out;
        RefLine &e = lines_[line];
        if (e.owner != invalidCore && e.owner != core) {
            out.remoteDirtyFill = true;
            out.dirtyOwner = e.owner;
            e.owner = invalidCore;
        }
        e.sharers |= std::uint64_t{1} << core;
        return out;
    }

    DirectoryOutcome
    onWrite(CoreId core, Addr line)
    {
        DirectoryOutcome out;
        RefLine &e = lines_[line];
        if (e.owner != invalidCore && e.owner != core) {
            out.remoteDirtyFill = true;
            out.dirtyOwner = e.owner;
        }
        out.invalidateMask = e.sharers & ~(std::uint64_t{1} << core);
        e.sharers = std::uint64_t{1} << core;
        e.owner = core;
        return out;
    }

    void
    onEvict(CoreId core, Addr line)
    {
        const auto it = lines_.find(line);
        if (it == lines_.end())
            return;
        it->second.sharers &= ~(std::uint64_t{1} << core);
        if (it->second.owner == core)
            it->second.owner = invalidCore;
        if (it->second.sharers == 0 && it->second.owner == invalidCore)
            lines_.erase(it);
    }

    DirectoryLineState
    peek(Addr line) const
    {
        DirectoryLineState state;
        const auto it = lines_.find(line);
        if (it != lines_.end()) {
            state.tracked = true;
            state.sharers = it->second.sharers;
            state.dirtyOwner = it->second.owner;
        }
        return state;
    }

    std::size_t trackedLines() const { return lines_.size(); }

  private:
    std::map<Addr, RefLine> lines_;
};

/** Home slot of a line in a fresh directory (2^15 slots, the same
 *  fibonacci hash as CoherenceDirectory::homeOf). */
std::size_t
freshHome(Addr line)
{
    return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ull)
                                    >> 32)
        & 0x7FFF;
}

/**
 * A small line pool that stresses the open-addressing table: four
 * lines sharing one home slot, three homed on the next slot (so the
 * chains interleave), three homed on the last slot and two on slot
 * 0 (chains that wrap), line 0 itself, and a few unrelated lines.
 */
std::vector<Addr>
linePool()
{
    const std::size_t hot = freshHome(64);
    const std::vector<std::pair<std::size_t, unsigned>> wanted = {
        {hot, 4}, {(hot + 1) & 0x7FFF, 3}, {0x7FFF, 3}, {0, 2}};
    std::vector<unsigned> found(wanted.size(), 0);
    std::vector<Addr> pool = {0};
    for (Addr k = 1; k < (Addr{1} << 24); ++k) {
        const Addr line = k * 64;
        const std::size_t home = freshHome(line);
        for (std::size_t w = 0; w < wanted.size(); ++w) {
            if (home == wanted[w].first && found[w] < wanted[w].second) {
                ++found[w];
                pool.push_back(line);
            }
        }
        bool done = true;
        for (std::size_t w = 0; w < wanted.size(); ++w)
            done = done && found[w] == wanted[w].second;
        if (done)
            break;
    }
    for (Addr line : {Addr{0x1000}, Addr{0x2040}, Addr{0x7fffc0},
                      Addr{0x123456780}})
        pool.push_back(line);
    return pool;
}

void
expectSameOutcome(const DirectoryOutcome &got,
                  const DirectoryOutcome &want)
{
    EXPECT_EQ(got.remoteDirtyFill, want.remoteDirtyFill);
    EXPECT_EQ(got.invalidateMask, want.invalidateMask);
    EXPECT_EQ(got.dirtyOwner, want.dirtyOwner);
}

} // namespace

class DirectoryDifferentialFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DirectoryDifferentialFuzz, MatchesReferenceModel)
{
    const unsigned cores = GetParam();
    const std::vector<Addr> pool = linePool();
    ASSERT_EQ(pool.size(), 17u);
    // The collision groups really share their home slots.
    const auto homed = [&](std::size_t home) {
        return std::count_if(pool.begin(), pool.end(), [&](Addr l) {
            return freshHome(l) == home;
        });
    };
    EXPECT_GE(homed(freshHome(64)), 4);
    EXPECT_GE(homed(0x7FFF), 3);
    EXPECT_GE(homed(0), 3);

    CoherenceDirectory dir(cores);
    RefDirectory ref;
    Rng rng(0xD1 + cores);
    for (int step = 0; step < 20000; ++step) {
        const CoreId core = static_cast<CoreId>(rng.below(cores));
        const Addr line = pool[rng.below(pool.size())];
        const std::uint64_t op = rng.below(100);
        SCOPED_TRACE(::testing::Message()
                     << "step " << step << " core " << core
                     << " line 0x" << std::hex << line << std::dec
                     << " op " << op);
        if (op < 40) {
            expectSameOutcome(dir.onRead(core, line),
                              ref.onRead(core, line));
        } else if (op < 65) {
            expectSameOutcome(dir.onWrite(core, line),
                              ref.onWrite(core, line));
        } else {
            dir.onEvict(core, line);
            ref.onEvict(core, line);
        }
        ASSERT_EQ(dir.trackedLines(), ref.trackedLines());
        for (Addr probe : pool) {
            const DirectoryLineState got = dir.peek(probe);
            const DirectoryLineState want = ref.peek(probe);
            ASSERT_EQ(got.tracked, want.tracked) << std::hex << probe;
            ASSERT_EQ(got.sharers, want.sharers) << std::hex << probe;
            ASSERT_EQ(got.dirtyOwner, want.dirtyOwner)
                << std::hex << probe;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Cores, DirectoryDifferentialFuzz,
                         ::testing::Values(1u, 4u, 32u, 64u));
