/**
 * @file
 * Exhaustive cell test of the shared MOESI transition table
 * (mem/moesi.hpp): every state x every snooped transaction kind under
 * every snoop policy, and every requester-side fill and write-grant
 * cell. The model checker's mirror agents run only the transfer-off,
 * snarf-off part of the probe table, so this is where the CNI16Qm
 * ownership-transfer and snarf cells are pinned.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "mem/moesi.hpp"

namespace cni
{
namespace
{

// cnimc fingerprints encode a line's state as its enum value.
static_assert(int(Moesi::Invalid) == 0 && int(Moesi::Shared) == 1 &&
              int(Moesi::Exclusive) == 2 && int(Moesi::Owned) == 3 &&
              int(Moesi::Modified) == 4);
// The table is usable at compile time (no allocation, no indirection).
static_assert(snoopStep(Moesi::Modified, true, TxnKind::ReadShared, {},
                        0)
                  .next == Moesi::Owned);

constexpr Moesi I = Moesi::Invalid;
constexpr Moesi S = Moesi::Shared;
constexpr Moesi E = Moesi::Exclusive;
constexpr Moesi O = Moesi::Owned;
constexpr Moesi M = Moesi::Modified;

constexpr Moesi kStates[] = {I, S, E, O, M};
constexpr TxnKind kKinds[] = {
    TxnKind::UncachedRead, TxnKind::UncachedWrite, TxnKind::ReadShared,
    TxnKind::ReadExclusive, TxnKind::Upgrade,     TxnKind::Writeback,
    TxnKind::Update};

/** Expected outcome of one snoop on a line that holds the block. */
struct Cell
{
    Moesi next;
    bool hadCopy;
    bool supplied;
    bool invalidated;
};

/**
 * Default policy (no ownership transfer, no snarfing, no update
 * threshold), indexed [TxnKind][Moesi].
 */
constexpr Cell kDefault[7][5] = {
    // UncachedRead: register space, never a cache's business.
    {{I, 0, 0, 0}, {S, 0, 0, 0}, {E, 0, 0, 0}, {O, 0, 0, 0}, {M, 0, 0, 0}},
    // UncachedWrite
    {{I, 0, 0, 0}, {S, 0, 0, 0}, {E, 0, 0, 0}, {O, 0, 0, 0}, {M, 0, 0, 0}},
    // ReadShared: owners supply and keep ownership, E demotes to S.
    {{I, 0, 0, 0}, {S, 1, 0, 0}, {S, 1, 0, 0}, {O, 1, 1, 0}, {O, 1, 1, 0}},
    // ReadExclusive: every copy dies, owners supply on the way out.
    {{I, 0, 0, 0}, {I, 1, 0, 1}, {I, 1, 0, 1}, {I, 1, 1, 1}, {I, 1, 1, 1}},
    // Upgrade: every copy dies, no data moves.
    {{I, 0, 0, 0}, {I, 1, 0, 1}, {I, 1, 0, 1}, {I, 1, 0, 1}, {I, 1, 0, 1}},
    // Writeback: ignored without snarfing.
    {{I, 0, 0, 0}, {S, 0, 0, 0}, {E, 0, 0, 0}, {O, 0, 0, 0}, {M, 0, 0, 0}},
    // Update: absorbed into Sc; an Sm/M holder supplies its old block.
    {{I, 0, 0, 0}, {S, 1, 0, 0}, {S, 1, 0, 0}, {S, 1, 1, 0}, {S, 1, 1, 0}},
};

std::string
where(Moesi s, TxnKind k, const SnoopPolicy &pol, int unread)
{
    return std::string(toString(s)) + " " + toString(k) +
           " transfer=" + std::to_string(pol.transferOwnership) +
           " snarf=" + std::to_string(pol.snarf) +
           " thr=" + std::to_string(pol.updThreshold) +
           " unread=" + std::to_string(unread);
}

void
expectStep(const SnoopStep &got, const Cell &want, int wantUnread,
           bool transfer, bool flipped, bool snarfed, const std::string &at)
{
    EXPECT_EQ(got.next, want.next) << at;
    EXPECT_EQ(got.unread, wantUnread) << at;
    EXPECT_EQ(got.reply.hadCopy, want.hadCopy) << at;
    EXPECT_EQ(got.reply.supplied, want.supplied) << at;
    EXPECT_EQ(got.reply.transferOwnership, transfer) << at;
    EXPECT_EQ(got.reply.invalidatedOnUpdate, flipped) << at;
    EXPECT_EQ(got.reply.isHome, false) << at;
    EXPECT_EQ(got.reply.data, 0u) << at;
    EXPECT_EQ(got.invalidated, want.invalidated) << at;
    EXPECT_EQ(got.snarfed, snarfed) << at;
}

TEST(MoesiProbe, EveryStateKindAndPolicy)
{
    for (Moesi s : kStates) {
        for (TxnKind k : kKinds) {
            for (int bits = 0; bits < 4; ++bits) {
                SnoopPolicy pol;
                pol.transferOwnership = (bits & 1) != 0;
                pol.snarf = (bits & 2) != 0;
                for (int unread : {0, 1, 254, 255}) {
                    const SnoopStep got =
                        snoopStep(s, true, k, pol, std::uint8_t(unread));
                    Cell want = kDefault[int(k)][int(s)];
                    bool transfer = false;
                    bool snarfed = false;
                    if (pol.transferOwnership && k == TxnKind::ReadShared &&
                        isDirty(s)) {
                        // CNI16Qm receive cache: the requester becomes
                        // the owner, the supplier keeps a clean copy.
                        want.next = S;
                        transfer = true;
                    }
                    if (pol.snarf && k == TxnKind::Writeback && s == I) {
                        // Tag-matched invalid frame grabs the data.
                        want = {S, true, false, false};
                        snarfed = true;
                    }
                    int wantUnread = unread;
                    if (k == TxnKind::Update && isValid(s))
                        wantUnread = std::min(unread + 1, 255);
                    expectStep(got, want, wantUnread, transfer, false,
                               snarfed, where(s, k, pol, unread));
                }
            }
        }
    }
}

TEST(MoesiProbe, FrameHoldingAnotherBlockIsUntouched)
{
    for (Moesi s : kStates) {
        for (TxnKind k : kKinds) {
            for (int bits = 0; bits < 8; ++bits) {
                SnoopPolicy pol;
                pol.transferOwnership = (bits & 1) != 0;
                pol.snarf = (bits & 2) != 0;
                pol.updThreshold = (bits & 4) != 0 ? 1 : 0;
                const SnoopStep got = snoopStep(s, false, k, pol, 3);
                expectStep(got, {s, false, false, false}, 3, false, false,
                           false, where(s, k, pol, 3));
            }
        }
    }
}

TEST(MoesiProbe, UpdateThresholdFlipsAtAndAboveNotBelow)
{
    for (int thr : {0, 1, 2}) {
        for (int unread : {thr - 1, thr, thr + 1}) {
            if (unread < 0)
                continue;
            for (Moesi s : kStates) {
                SnoopPolicy pol;
                pol.updThreshold = thr;
                const SnoopStep got = snoopStep(
                    s, true, TxnKind::Update, pol, std::uint8_t(unread));
                const std::string at =
                    where(s, TxnKind::Update, pol, unread);
                if (!isValid(s)) {
                    expectStep(got, {I, false, false, false}, unread, false,
                               false, false, at);
                } else if (thr > 0 && unread >= thr) {
                    // Hybrid flip: self-invalidate, leave the sharer set.
                    expectStep(got, {I, false, false, true}, 0, false, true,
                               false, at);
                } else {
                    expectStep(got,
                               kDefault[int(TxnKind::Update)][int(s)],
                               unread + 1, false, false, false, at);
                }
            }
        }
    }
}

TEST(MoesiRequester, ReadFillState)
{
    // {cacheSupplied, ownershipTransferred, sharedCopy} -> fill state.
    struct Row
    {
        bool supplied, transferred, shared;
        Moesi want;
    };
    const Row rows[] = {
        {false, false, false, E}, {false, false, true, S},
        {false, true, false, E},  {false, true, true, S},
        {true, false, false, S},  {true, false, true, S},
        {true, true, false, O},   {true, true, true, O},
    };
    for (const Row &r : rows) {
        for (bool remain : {false, true}) {
            SnoopResult res;
            res.cacheSupplied = r.supplied;
            res.ownershipTransferred = r.transferred;
            res.sharedCopy = r.shared;
            res.sharersRemain = remain;
            EXPECT_EQ(fillState(false, res), r.want)
                << r.supplied << r.transferred << r.shared << remain;
        }
    }
}

TEST(MoesiRequester, WriteGrantAndExclusiveFill)
{
    for (int bits = 0; bits < 32; ++bits) {
        SnoopResult res;
        res.cacheSupplied = (bits & 1) != 0;
        res.ownershipTransferred = (bits & 2) != 0;
        res.sharedCopy = (bits & 4) != 0;
        res.upgradeFilled = (bits & 8) != 0;
        res.sharersRemain = (bits & 16) != 0;
        // Live sharers after an update round make the writer Sm (Owned).
        const Moesi want = res.sharersRemain ? O : M;
        EXPECT_EQ(writeGrantState(res), want) << bits;
        EXPECT_EQ(fillState(true, res), want) << bits;
    }
}

} // namespace
} // namespace cni
