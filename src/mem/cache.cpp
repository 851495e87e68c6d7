#include "mem/cache.hpp"

#include "sim/logging.hpp"

namespace cni
{

Cache::Cache(EventQueue &eq, std::string name, std::size_t numBlocks,
             Initiator initiator)
    : eq_(eq), name_(std::move(name)), initiator_(initiator),
      lines_(numBlocks), stats_(name_), cLoadHits_(stats_, "load_hits"),
      cLoadMisses_(stats_, "load_misses"),
      cStoreHits_(stats_, "store_hits"),
      cStoreUpgrades_(stats_, "store_upgrades"),
      cStoreUpgradeFills_(stats_, "store_upgrade_fills"),
      cStoreUpgradeRaces_(stats_, "store_upgrade_races"),
      cStoreMisses_(stats_, "store_misses"),
      cStoreRefillRaces_(stats_, "store_refill_races"),
      cWritebacks_(stats_, "writebacks"), cClaims_(stats_, "claims"),
      cFlushWritebacks_(stats_, "flush_writebacks"),
      cSnoopSupplies_(stats_, "snoop_supplies"),
      cSnoopInvalidations_(stats_, "snoop_invalidations"),
      cSnarfs_(stats_, "snarfs")
{
    cni_assert(numBlocks > 0);
}

std::size_t
Cache::indexOf(Addr a) const
{
    return (blockAlign(a) / kBlockBytes) % lines_.size();
}

Cache::Line &
Cache::lineFor(Addr a)
{
    return lines_[indexOf(a)];
}

const Cache::Line &
Cache::lineFor(Addr a) const
{
    return lines_[indexOf(a)];
}

bool
Cache::hit(const Line &ln, Addr a) const
{
    return ln.tagValid && isValid(ln.state) && ln.tag == blockAlign(a);
}

Moesi
Cache::stateOf(Addr a) const
{
    const Line &ln = lineFor(a);
    return (ln.tagValid && ln.tag == blockAlign(a)) ? ln.state
                                                    : Moesi::Invalid;
}

bool
Cache::contains(Addr a) const
{
    return hit(lineFor(a), a);
}

ValueCompletion<SnoopResult>
Cache::issueTxn(TxnKind kind, Addr a)
{
    cni_assert(issue_);
    BusTxn txn;
    txn.kind = kind;
    txn.addr = blockAlign(a);
    txn.initiator = initiator_;
    txn.requesterId = requesterId_;
    return ValueCompletion<SnoopResult>(
        [this, txn](std::function<void(SnoopResult)> done) {
            issue_(txn, std::move(done));
        });
}

CoTask<void>
Cache::load(Addr a)
{
    Line &ln = lineFor(a);
    if (hit(ln, a)) {
        cLoadHits_.incr();
        ln.unreadUpdates = 0; // this update round was useful
        co_await delay(eq_, hitLatency_);
        co_return;
    }
    cLoadMisses_.incr();
    co_await refill(a, false);
}

CoTask<void>
Cache::store(Addr a)
{
    // The upgrade path can race with a remote invalidation arriving while
    // we wait for the bus; retry until we end with write permission.
    for (;;) {
        Line &ln = lineFor(a);
        if (hit(ln, a) && isWritable(ln.state)) {
            cStoreHits_.incr();
            ln.state = Moesi::Modified; // E -> M silently
            co_await delay(eq_, hitLatency_);
            co_return;
        }
        if (hit(ln, a)) {
            // Shared or Owned: address-only upgrade.
            if (co_await upgrade(a))
                co_return;
            // Invalidated while arbitrating; fall through and retry.
            cStoreUpgradeRaces_.incr();
            continue;
        }
        cStoreMisses_.incr();
        const SnoopResult res = co_await refill(a, true);
        if (contains(a) && stateOf(a) == writeGrantState(res))
            co_return;
        // Extremely unlikely: lost the block between refill completion and
        // now (same tick). Retry.
        cStoreRefillRaces_.incr();
    }
}

CoTask<void>
Cache::fetchBlock(Addr a, bool exclusive)
{
    Line &ln = lineFor(a);
    if (hit(ln, a) && (!exclusive || isWritable(ln.state))) {
        if (exclusive)
            ln.state = Moesi::Modified;
        else
            ln.unreadUpdates = 0;
        co_return;
    }
    if (exclusive && hit(ln, a) && co_await upgrade(a))
        co_return;
    co_await refill(a, exclusive);
}

CoTask<bool>
Cache::upgrade(Addr a)
{
    // Under an update backend an Owned (Sm) writer lands here every
    // store — each write is its own update round by design, and the
    // single upgrade round *is* the complete write.
    cStoreUpgrades_.incr();
    SnoopResult res = co_await issueTxn(TxnKind::Upgrade, a);
    Line &ln = lineFor(a);
    if (!hit(ln, a)) {
        if (!res.upgradeFilled)
            co_return false; // invalidated while in flight, no data
        // Invalidated while the upgrade was in flight, but the home
        // converted it to a read-to-own and the completion carried the
        // block: install it, no retry round trip.
        cStoreUpgradeFills_.incr();
        ln.tag = blockAlign(a);
        ln.tagValid = true;
    }
    ln.state = writeGrantState(res);
    ln.unreadUpdates = 0;
    co_return true;
}

CoTask<SnoopResult>
Cache::refill(Addr a, bool exclusive)
{
    Line &ln = lineFor(a);
    // Victim writeback: dirty data must reach its home before the frame is
    // reused.
    if (ln.tagValid && isDirty(ln.state)) {
        cWritebacks_.incr();
        const Addr victim = ln.tag;
        ln.state = Moesi::Invalid;
        co_await issueTxn(TxnKind::Writeback, victim);
    }
    SnoopResult res = co_await issueTxn(
        exclusive ? TxnKind::ReadExclusive : TxnKind::ReadShared, a);
    Line &ln2 = lineFor(a);
    ln2.tag = blockAlign(a);
    ln2.tagValid = true;
    ln2.unreadUpdates = 0;
    ln2.state = fillState(exclusive, res);
    co_return res;
}

CoTask<void>
Cache::claimBlock(Addr a, bool deferWriteback)
{
    Line &ln = lineFor(a);
    if (hit(ln, a) && isWritable(ln.state)) {
        ln.state = Moesi::Modified;
        co_return;
    }
    // Displace a dirty victim (different block in the same frame).
    if (ln.tagValid && ln.tag != blockAlign(a) && isDirty(ln.state)) {
        cWritebacks_.incr();
        const Addr victim = ln.tag;
        ln.state = Moesi::Invalid;
        if (deferWriteback) {
            // Writeback buffer: the bus transaction is posted and drains
            // in FIFO order; the claim proceeds immediately.
            BusTxn txn;
            txn.kind = TxnKind::Writeback;
            txn.addr = blockAlign(victim);
            txn.initiator = initiator_;
            txn.requesterId = requesterId_;
            issue_(txn, [](SnoopResult) {});
        } else {
            co_await issueTxn(TxnKind::Writeback, victim);
        }
    }
    cClaims_.incr();
    SnoopResult res = co_await issueTxn(TxnKind::Upgrade, a);
    Line &ln2 = lineFor(a);
    ln2.tag = blockAlign(a);
    ln2.tagValid = true;
    ln2.state = writeGrantState(res);
    ln2.unreadUpdates = 0;
}

CoTask<void>
Cache::flushBlock(Addr a)
{
    Line &ln = lineFor(a);
    if (!hit(ln, a))
        co_return;
    if (isDirty(ln.state)) {
        cFlushWritebacks_.incr();
        ln.state = Moesi::Invalid;
        co_await issueTxn(TxnKind::Writeback, blockAlign(a));
    } else {
        ln.state = Moesi::Invalid;
    }
}

SnoopReply
Cache::onBusTxn(const BusTxn &txn)
{
    const Addr blk = blockAlign(txn.addr);
    Line &ln = lineFor(blk);
    const SnoopStep st =
        snoopStep(ln.state, ln.tagValid && ln.tag == blk, txn.kind,
                  {transferOwnership_, snarfing_, updateThreshold_},
                  ln.unreadUpdates);
    ln.state = st.next;
    ln.unreadUpdates = st.unread;
    if (st.reply.supplied)
        cSnoopSupplies_.incr();
    if (st.invalidated)
        cSnoopInvalidations_.incr();
    if (st.snarfed)
        cSnarfs_.incr();
    return st.reply;
}

} // namespace cni
