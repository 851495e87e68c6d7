/**
 * @file
 * "dragon" — update-based MOESI directory coherence.
 *
 * The Dragon family keeps sharers *alive* on a write: instead of
 * invalidating every other copy, a store to a shared line broadcasts
 * the written word over the coherence lane and the sharers absorb it.
 * The classic Sc/Sm states map straight onto the MOESI lattice
 * (mem/moesi.hpp: Sc = Shared, Sm = Owned — the last writer supplies,
 * home is stale), so the caches need no new states, only an update
 * install path (mem/moesi.hpp's snoopStep on TxnKind::Update).
 *
 * Mechanically this is the home-node directory (coh/directory.hpp)
 * with the update hook on: exclusive requests (GetM/Upgrade) send
 * TxnKind::Update probes carrying the value, sharers stay registered,
 * the grant's kSharersRemain makes the writer install Sm instead of M,
 * and subsequent writes from the Sm owner keep pushing updates. A
 * sharer that silently evicted acks "no copy" and is dropped —
 * counted as a useless update. Reads, writebacks, sparse recalls, and
 * the GetS 3-hop forward are untouched.
 *
 * Wins when consumers re-read what a producer keeps writing
 * (producer–consumer: every consumer read stays a hit); loses on
 * migratory sharing, where every write pays an update round trip that
 * an invalidation protocol amortizes into one ownership transfer
 * (bench/fig_protocol.cpp shows both).
 */

#ifndef CNI_COH_DRAGON_HPP
#define CNI_COH_DRAGON_HPP

#include "coh/directory.hpp"

namespace cni
{

class DragonFabric : public DirectoryFabric
{
  public:
    DragonFabric(EventQueue &eq, NodeId node, int numNodes,
                 Interconnect &net, const std::string &name,
                 const DirParams &dir = DirParams{});

    const char *kind() const override { return "dragon"; }

  protected:
    bool updateProtocol() const override { return true; }
};

} // namespace cni

#endif // CNI_COH_DRAGON_HPP
