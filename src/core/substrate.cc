#include "core/substrate.hh"

#include <cassert>

#include "sim/stats.hh"

namespace tokensim {

Message
makeTokenMsg(Addr addr, NodeId src, NodeId dest, Unit dst_unit,
             int count, bool owner, bool has_data, std::uint64_t data,
             MsgClass cls)
{
    assert(count >= 1 && "token message must carry at least one token");
    // Invariant #4': a message with the owner token must contain data.
    assert((!owner || has_data) &&
           "invariant #4' violated: owner token without data");
    Message msg;
    msg.type = MsgType::tokenTransfer;
    msg.cls = cls;
    msg.dstUnit = dst_unit;
    msg.addr = addr;
    msg.src = src;
    msg.dest = dest;
    msg.tokens = count;
    msg.ownerToken = owner;
    msg.hasData = has_data;
    msg.data = data;
    return msg;
}

bool
TokenAuditor::auditBlock(Addr a, std::string *err) const
{
    const Addr ba = align(a);
    int held = 0;
    int owners = 0;
    for (const TokenHolder *h : holders_) {
        const int n = h->tokensHeld(ba);
        assert(n >= 0);
        held += n;
        owners += h->ownerHeld(ba) ? 1 : 0;
    }
    Flight flight;
    auto it = inFlight_.find(ba);
    if (it != inFlight_.end())
        flight = it->second;

    const int total = held + flight.tokens;
    const int total_owners = owners + flight.owners;
    if (total != t_ || total_owners != 1) {
        if (err) {
            *err = strformat(
                "block %#lx: %d tokens (%d held + %d in flight), "
                "%d owner tokens; expected %d tokens, 1 owner",
                static_cast<unsigned long>(ba), total, held,
                flight.tokens, total_owners, t_);
            for (const TokenHolder *h : holders_) {
                if (h->tokensHeld(ba) > 0 || h->ownerHeld(ba)) {
                    *err += strformat(
                        "\n  %s holds %d%s", h->holderName().c_str(),
                        h->tokensHeld(ba),
                        h->ownerHeld(ba) ? " (owner)" : "");
                }
            }
        }
        return false;
    }
    return true;
}

bool
TokenAuditor::auditAll(std::string *err) const
{
    for (Addr a : touched_) {
        if (!auditBlock(a, err))
            return false;
    }
    return auditHolders(err);
}

bool
TokenAuditor::auditHolders(std::string *err) const
{
    if (!map_)
        return true;
    std::size_t lines = 0;
    std::string bad;
    for (const TokenHolder *h : holders_) {
        h->forEachLine([&](NodeId id, Addr a) {
            ++lines;
            if (!bad.empty())
                return;
            if (h->tokensHeld(a) == 0) {
                bad = strformat("%s holds a line for %#lx with no tokens",
                                h->holderName().c_str(),
                                static_cast<unsigned long>(a));
            } else if (!map_->holds(a, id)) {
                bad = strformat("holder map misses %s's line for %#lx",
                                h->holderName().c_str(),
                                static_cast<unsigned long>(a));
            }
        });
    }
    if (bad.empty() && lines != map_->entries()) {
        bad = strformat("holder map lists %zu holders but the caches "
                        "hold %zu lines", map_->entries(), lines);
    }
    if (bad.empty())
        return true;
    if (err)
        *err = bad;
    return false;
}

} // namespace tokensim
