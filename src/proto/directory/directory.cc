#include "proto/directory/directory.hh"

#include <algorithm>
#include <cassert>

namespace tokensim {

// =====================================================================
// DirCache
// =====================================================================

DirCache::DirCache(ProtoContext &ctx, NodeId id,
                   const ProtocolParams &params)
    : MosiCache(ctx, id, strformat("dir.%u", id), params)
{
}

void
DirCache::resetState(const ProtocolParams &params, std::uint64_t seed)
{
    MosiCache::resetState(params, seed);
    outstanding_.clear();
    wbBuffer_.clear();
}

void
DirCache::issueMiss(const ProcRequest &req, Addr ba)
{
    assert(!outstanding_.count(ba) &&
           "sequencer must serialize same-block operations");
    outstanding_.emplace(ba, Transaction{req, ctx_.now()});
    const MsgType type =
        req.op == MemOp::store ? MsgType::getM : MsgType::getS;
    sendAfter(ctx_.ctrlLatency, toHome(type, MsgClass::request, ba));
}

void
DirCache::handleMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::fwdGetS:
      case MsgType::fwdGetM:
        handleFwd(msg);
        break;
      case MsgType::inv:
        handleInv(msg);
        break;
      case MsgType::data:
      case MsgType::dataExclusive:
      case MsgType::ack:
        handleDataOrGrant(msg);
        break;
      case MsgType::invAck: {
        auto it = outstanding_.find(msg.addr);
        assert(it != outstanding_.end() &&
               "invalidation ack with no transaction");
        ++it->second.acksReceived;
        maybeComplete(msg.addr);
        break;
      }
      case MsgType::wbAck:
        wbBuffer_.erase(msg.addr);
        break;
      default:
        assert(false && "unexpected message at directory cache");
    }
}

void
DirCache::handleFwd(const Message &msg)
{
    const Addr ba = msg.addr;
    const bool exclusive = msg.type == MsgType::fwdGetM;
    const int acks = exclusive ? msg.ackCount : 0;
    MosiLine *line = l2_.find(ba);

    if (!line) {
        // The directory forwarded to us while our writeback was in
        // flight; answer from the writeback buffer. The home's
        // owner check will reject the stale PutM data.
        auto wit = wbBuffer_.find(ba);
        assert(wit != wbBuffer_.end() &&
               "forward to a node with neither line nor writeback");
        respondData(msg.requester, ba, wit->second, exclusive, acks);
        return;
    }

    assert(ownsData(line->state));
    if (exclusive || (line->state == MosiState::M && line->written &&
                      params_.migratoryOpt)) {
        // A GetM, or the migratory optimization on a GetS: pass
        // read/write permission.
        respondData(msg.requester, ba, line->data, true, acks);
        drop(ba);
    } else {
        respondData(msg.requester, ba, line->data, false, 0);
        line->state = MosiState::O;
    }
}

void
DirCache::handleInv(const Message &msg)
{
    const Addr ba = msg.addr;
    if (l2_.contains(ba)) {
        assert(state(ba) == MosiState::S &&
               "invalidation hit a non-shared line");
        drop(ba);
    }
    // Acknowledge straight to the requester (even if we had silently
    // dropped the line — the directory's sharer list is conservative).
    Message ack;
    ack.type = MsgType::invAck;
    ack.cls = MsgClass::nonData;
    ack.dstUnit = Unit::cache;
    ack.addr = ba;
    ack.dest = msg.requester;
    ack.requester = msg.requester;
    sendAfter(ctx_.ctrlLatency + ctx_.l2.latency, ack);
}

void
DirCache::handleDataOrGrant(const Message &msg)
{
    const Addr ba = msg.addr;
    auto it = outstanding_.find(ba);
    assert(it != outstanding_.end() && "response with no transaction");
    Transaction &tr = it->second;
    assert(!tr.dataReceived && "duplicate response");
    tr.dataReceived = true;
    tr.acksNeeded = msg.ackCount;
    if (msg.type == MsgType::ack) {
        // Dataless grant for an owner upgrade: data is already local.
        const MosiLine *line = l2_.find(ba);
        assert(line && "upgrade grant with no local line");
        tr.dataValue = line->data;
        tr.dataExclusive = true;
        tr.dataFromMemory = true;
    } else {
        tr.dataValue = msg.data;
        tr.dataExclusive = msg.type == MsgType::dataExclusive;
        tr.dataFromMemory = msg.fromMemoryCtrl;
    }
    maybeComplete(ba);
}

void
DirCache::maybeComplete(Addr addr)
{
    auto it = outstanding_.find(addr);
    if (it == outstanding_.end())
        return;
    Transaction &tr = it->second;
    if (!tr.dataReceived || tr.acksReceived < tr.acksNeeded)
        return;
    assert(tr.acksReceived == tr.acksNeeded && "too many acks");

    const Transaction done = std::move(tr);
    outstanding_.erase(it);

    const MosiLine *line = fill(done.req, done.dataExclusive, done.dataValue);
    const MsgType unblock = line->state == MosiState::M
        ? MsgType::unblockExclusive : MsgType::unblock;
    sendAfter(ctx_.ctrlLatency, toHome(unblock, MsgClass::nonData, addr));
    completeMiss(done.req, done.issuedAt, line->data, !done.dataFromMemory);
}

void
DirCache::writeBack(Addr addr, std::uint64_t data)
{
    wbBuffer_[addr] = data;
    Message msg = toHome(MsgType::putM, MsgClass::data, addr);
    msg.hasData = true;
    msg.data = data;
    sendAfter(ctx_.ctrlLatency, msg);
}

std::uint64_t
DirCache::functionalMiss(const ProcRequest &req, Addr ba, MosiLine *line,
                         FunctionalEnv &env)
{
    auto *mem = static_cast<DirMemory *>(env.memories[ctx_.home(ba)]);
    HomeEntry &e = mem->entryFor(ba);
    assert(!e.busy && mem->waiting(ba).empty() &&
           "fast-forward requires an idle directory");

    // The home's records are settled before functionalFill(), whose
    // victim writeback may grow (and move) the home's entry table.
    if (req.op == MemOp::load) {
        // GetS. The directory supplies memory data or forwards to the
        // owner; a written migratory owner hands over exclusively.
        std::uint64_t value;
        if (e.owner == invalidNode) {
            value = mem->peekData(ba);
        } else {
            assert(e.owner != id_ &&
                   "load miss while the directory says we own it");
            auto *oc = static_cast<DirCache *>(env.caches[e.owner]);
            MosiLine *ol = oc->l2_.find(ba);
            assert(ol && ownsData(ol->state));
            value = ol->data;
            if (ol->state == MosiState::M && ol->written &&
                params_.migratoryOpt) {
                // Migratory handoff: we take M, the owner drops.
                oc->drop(ba);
                e.owner = id_;
                mem->sharers_.dropAll(ba);
                return functionalFill(ba, line, env, MosiState::M, false,
                                      value);
            }
            ol->state = MosiState::O;
        }
        mem->sharers_.insert(ba, id_);
        return functionalFill(ba, line, env, MosiState::S, false, value);
    }

    // GetM: sharers invalidate, the owner (us on an upgrade, a peer,
    // or memory) supplies data, and the directory records us as the
    // exclusive owner.
    mem->sharers_.forEach(ba, [&](NodeId s) {
        auto *sc = static_cast<DirCache *>(env.caches[s]);
        // Silently dropped sharer copies just ack in detailed mode.
        if (s != id_ && sc->l2_.contains(ba))
            sc->drop(ba);
        return true;
    });
    mem->sharers_.dropAll(ba);
    if (e.owner != invalidNode && e.owner != id_) {
        auto *oc = static_cast<DirCache *>(env.caches[e.owner]);
        [[maybe_unused]] const MosiLine *ol = oc->l2_.find(ba);
        assert(ol && ownsData(ol->state));
        oc->drop(ba);
    }
    // An upgrade (e.owner == id_) keeps local data; otherwise the
    // incoming data is immediately overwritten by the store anyway.
    e.owner = id_;
    return functionalFill(ba, line, env, MosiState::M, true,
                          req.storeValue);
}

// =====================================================================
// DirMemory
// =====================================================================

DirMemory::DirMemory(ProtoContext &ctx, NodeId id,
                     const ProtocolParams &params)
    : HomeSerializer(ctx, id, strformat("dirmem.%u", id), params),
      sharers_(ctx.numNodes)
{
}

void
DirMemory::resetState(const ProtocolParams &params)
{
    HomeSerializer::resetState(params);
    sharers_.clear();
}

Tick
DirMemory::dirLatency() const
{
    return params_.perfectDirectory ? 0 : ctx_.dram.latency;
}

void
DirMemory::processRequest(const Message &req, HomeEntry &e)
{
    if (req.type == MsgType::getS) {
        if (e.owner == invalidNode)
            sendMemoryData(req, false, 0);
        else
            sendFwd(req, e.owner, MsgType::fwdGetS, 0);
        return;
    }

    // GetM: every sharer but the requester invalidates, acking to it.
    const int acks = static_cast<int>(
        sharers_.count(req.addr) -
        (sharers_.holds(req.addr, req.requester) ? 1 : 0));
    if (e.owner == invalidNode) {
        sendMemoryData(req, true, acks);
    } else if (e.owner == req.requester) {
        // Upgrade by the current (Owned-state) owner: dataless grant.
        sendGrant(req, acks);
    } else {
        sendFwd(req, e.owner, MsgType::fwdGetM, acks);
    }
    sendInvs(req);
}

void
DirMemory::onUnblock(const Message &msg)
{
    if (msg.type == MsgType::unblockExclusive)
        sharers_.dropAll(msg.addr);
    else
        sharers_.insert(msg.addr, msg.requester);
}

void
DirMemory::sendFwd(const Message &req, NodeId owner, MsgType fwd_type,
                   int ack_count)
{
    Message msg;
    msg.type = fwd_type;
    msg.cls = MsgClass::request;
    msg.dstUnit = Unit::cache;
    msg.addr = req.addr;
    msg.dest = owner;
    msg.requester = req.requester;
    msg.ackCount = ack_count;
    // The forward waits on the directory lookup — the indirection
    // latency the paper's Figure 5a isolates with the striped bar.
    sendAfter(ctx_.ctrlLatency + dirLatency(), msg);
}

void
DirMemory::sendInvs(const Message &req)
{
    sharers_.forEach(req.addr, [&](NodeId t) {
        if (t == req.requester)
            return true;
        Message msg;
        msg.type = MsgType::inv;
        msg.cls = MsgClass::request;
        msg.dstUnit = Unit::cache;
        msg.addr = req.addr;
        msg.dest = t;
        msg.requester = req.requester;
        sendAfter(ctx_.ctrlLatency + dirLatency(), msg);
        return true;
    });
}

void
DirMemory::sendGrant(const Message &req, int ack_count)
{
    Message msg;
    msg.type = MsgType::ack;
    msg.cls = MsgClass::nonData;
    msg.dstUnit = Unit::cache;
    msg.addr = req.addr;
    msg.dest = req.requester;
    msg.requester = req.requester;
    msg.ackCount = ack_count;
    msg.fromMemoryCtrl = true;
    sendAfter(ctx_.ctrlLatency + dirLatency(), msg);
}

DirMemory::DirView
DirMemory::view(Addr addr) const
{
    const Addr ba = ctx_.blockAlign(addr);
    DirView v;
    auto it = entries_.find(ba);
    if (it != entries_.end()) {
        v.busy = it->second.busy;
        v.owner = it->second.owner;
    }
    v.waiting = waiting(ba);
    sharers_.forEach(ba, [&](NodeId s) {
        v.sharers.push_back(s);
        return true;
    });
    return v;
}

void
DirMemory::encodeWarmState(WireWriter &w) const
{
    if (!quiescent())
        throw WireError(tag_ + " has transactions in flight");
    store_.encodeWritten(w);

    std::vector<Addr> live;
    for (const auto &[a, e] : entries_) {
        if (e.owner != invalidNode)
            live.push_back(a);
    }
    sharers_.forEachBlock([&](Addr a) { live.push_back(a); });
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());
    w.varint(live.size());
    for (Addr a : live) {
        auto it = entries_.find(a);
        const NodeId owner =
            it == entries_.end() ? invalidNode : it->second.owner;
        w.varint(a);
        w.boolean(owner != invalidNode);
        if (owner != invalidNode)
            w.varint(owner);
        w.varint(sharers_.count(a));
        sharers_.forEach(a, [&](NodeId s) {   // ascending
            w.varint(s);
            return true;
        });
    }
    putStructEnd(w);
}

void
DirMemory::decodeWarmState(WireReader &r)
{
    store_.decodeWritten(r, ctx_, id_);
    const std::uint64_t nentries = r.varint("directory entry count");
    Addr prev = 0;
    for (std::uint64_t i = 0; i < nentries; ++i) {
        const Addr a = r.varint("directory entry address");
        if (ctx_.blockAlign(a) != a)
            throw WireError("directory entry not block-aligned");
        if (ctx_.home(a) != id_)
            throw WireError("directory entry homed elsewhere");
        if (i > 0 && a <= prev)
            throw WireError("directory entries not strictly ascending");
        prev = a;
        if (r.boolean("directory entry has owner")) {
            const std::uint64_t o = r.varint("directory entry owner");
            if (o >= static_cast<std::uint64_t>(ctx_.numNodes))
                throw WireError("directory owner is an invalid node");
            entries_[a].owner = static_cast<NodeId>(o);
        }
        const std::uint64_t ns = r.varint("directory sharer count");
        if (ns > static_cast<std::uint64_t>(ctx_.numNodes))
            throw WireError("directory sharer count exceeds nodes");
        NodeId sprev = 0;
        for (std::uint64_t j = 0; j < ns; ++j) {
            const std::uint64_t s = r.varint("directory sharer");
            if (s >= static_cast<std::uint64_t>(ctx_.numNodes))
                throw WireError("directory sharer is an invalid node");
            if (j > 0 && s <= sprev)
                throw WireError("directory sharers not ascending");
            sprev = static_cast<NodeId>(s);
            sharers_.insert(a, sprev);
        }
    }
    checkStructEnd(r, "directory memory warm state");
}

} // namespace tokensim
