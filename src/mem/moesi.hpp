/**
 * @file
 * MOESI coherence states (Sweazey & Smith; MBus Level-2 style) and the
 * one transition table every coherent cache follows.
 *
 * The processor cache, the CNI device caches and cnimc's mirror agents
 * all take their MOESI decisions from the functions here, so the model
 * checker explores the same rules the simulator runs:
 *
 *  - snoopStep(): the probe side. Write-invalidate with owner supply —
 *    Modified and Owned supply on snooped reads, clean states let the
 *    home supply; a snooped ReadShared moves M -> O (or passes
 *    ownership on, M/O -> S, for a transferOwnership cache), E -> S; a
 *    snooped ReadExclusive or Upgrade invalidates. Also the Dragon/
 *    hybrid update install (with the adaptive self-invalidate flip) and
 *    the Section 5.1.2 writeback snarf.
 *  - fillState() / writeGrantState(): the requester side — the state a
 *    read or write grant installs.
 */

#ifndef CNI_MEM_MOESI_HPP
#define CNI_MEM_MOESI_HPP

#include <cstdint>

#include "bus/bus.hpp"

namespace cni
{

enum class Moesi
{
    Invalid,
    Shared,
    Exclusive,
    Owned,
    Modified,
};

constexpr const char *
toString(Moesi s)
{
    switch (s) {
      case Moesi::Invalid:
        return "I";
      case Moesi::Shared:
        return "S";
      case Moesi::Exclusive:
        return "E";
      case Moesi::Owned:
        return "O";
      case Moesi::Modified:
        return "M";
    }
    return "?";
}

/**
 * Dragon-style update protocols reuse the MOESI lattice: shared-clean
 * (Sc) is Shared, shared-modified (Sm — this cache last wrote the line,
 * other caches hold pushed copies, home is stale) is Owned. No new
 * states: an Sm writer already behaves like an Owned supplier, and a
 * store to Sc/Sm raises an Upgrade the backend turns into word updates.
 */
constexpr Moesi SharedClean = Moesi::Shared;
constexpr Moesi SharedMod = Moesi::Owned;

/** Valid (readable) states. */
constexpr bool
isValid(Moesi s)
{
    return s != Moesi::Invalid;
}

/** States holding the only up-to-date copy relative to home (dirty). */
constexpr bool
isDirty(Moesi s)
{
    return s == Moesi::Modified || s == Moesi::Owned;
}

/** States with write permission. */
constexpr bool
isWritable(Moesi s)
{
    return s == Moesi::Modified || s == Moesi::Exclusive;
}

/** A cache's snoop policy (see the matching Cache setters). */
struct SnoopPolicy
{
    bool transferOwnership = false; //!< Cache::setTransferOwnership
    bool snarf = false;             //!< Cache::setSnarfing
    int updThreshold = 0;           //!< Cache::setUpdateThreshold
};

/** What one snooped transaction does to one line. */
struct SnoopStep
{
    Moesi next = Moesi::Invalid; //!< line state after the snoop
    std::uint8_t unread = 0;     //!< line's unread-update count after it
    /** hadCopy / supplied / transferOwnership / invalidatedOnUpdate. */
    SnoopReply reply;
    bool invalidated = false; //!< counts as a snoop invalidation
    bool snarfed = false;     //!< counts as a snarf
};

/**
 * Probe side: line state `s` with `unread` unread updates snoops a
 * `kind` transaction. `holds` says whether the frame is allocated to
 * the snooped block (tag match): a frame holding another block is left
 * alone, and a tag-matched Invalid frame is what snarfing refills. A
 * supplying snoop counts as a supply (reply.supplied).
 */
constexpr SnoopStep
snoopStep(Moesi s, bool holds, TxnKind kind, SnoopPolicy pol,
          std::uint8_t unread)
{
    SnoopStep r;
    r.next = s;
    r.unread = unread;
    if (!holds)
        return r;
    switch (kind) {
      case TxnKind::UncachedRead:
      case TxnKind::UncachedWrite:
        break; // register space: not ours

      case TxnKind::ReadShared:
        if (!isValid(s))
            break;
        r.reply.hadCopy = true;
        if (isDirty(s)) {
            r.reply.supplied = true;
            r.reply.transferOwnership = pol.transferOwnership;
            r.next = pol.transferOwnership ? Moesi::Shared : Moesi::Owned;
        } else if (s == Moesi::Exclusive) {
            r.next = Moesi::Shared;
        }
        break;

      case TxnKind::ReadExclusive:
      case TxnKind::Upgrade:
        if (!isValid(s))
            break;
        r.reply.hadCopy = true;
        // An Upgrade requester holds a valid copy already; no data moves.
        r.reply.supplied = kind == TxnKind::ReadExclusive && isDirty(s);
        r.next = Moesi::Invalid;
        r.invalidated = true;
        break;

      case TxnKind::Update:
        // Dragon/hybrid word update pushed by the home on behalf of a
        // writer. Invalidation backends never send these.
        if (!isValid(s))
            break; // silently evicted: the home drops us
        if (pol.updThreshold > 0 && unread >= pol.updThreshold) {
            // Hybrid flip: `updThreshold` consecutive updates went
            // unread, so stop absorbing — drop the copy and let the
            // writer take plain ownership. hadCopy stays false so the
            // home removes us from the sharer set.
            r.next = Moesi::Invalid;
            r.unread = 0;
            r.reply.invalidatedOnUpdate = true;
            r.invalidated = true;
            break;
        }
        r.reply.hadCopy = true;
        // Sm/M holder: its pre-update block is the freshest copy, so the
        // ack supplies it (a write-missing requester's grant then carries
        // real data). The update demotes it to Sc.
        r.reply.supplied = isDirty(s);
        r.next = Moesi::Shared; // Sc, value refreshed in place
        if (unread < 255)
            r.unread = std::uint8_t(unread + 1);
        break;

      case TxnKind::Writeback:
        if (pol.snarf && s == Moesi::Invalid) {
            // Data snarfing: the frame is already allocated to this
            // block (tag match, invalid); grab the data off the bus.
            r.next = Moesi::Shared;
            r.reply.hadCopy = true; // a copy now exists
            r.snarfed = true;
        }
        break;
    }
    return r;
}

/**
 * Requester side: the state a write grant installs. An update backend's
 * grant says whether sharers absorbed the pushed word and stayed; the
 * writer then installs Sm (Owned), otherwise Modified.
 */
constexpr Moesi
writeGrantState(const SnoopResult &r)
{
    return r.sharersRemain ? Moesi::Owned : Moesi::Modified;
}

/** Requester side: the state a ReadShared/ReadExclusive fill installs. */
constexpr Moesi
fillState(bool exclusive, const SnoopResult &r)
{
    if (exclusive)
        return writeGrantState(r);
    if (r.cacheSupplied && r.ownershipTransferred)
        return Moesi::Owned;
    if (r.cacheSupplied || r.sharedCopy)
        return Moesi::Shared;
    return Moesi::Exclusive;
}

} // namespace cni

#endif // CNI_MEM_MOESI_HPP
