#include "proto/snooping/snooping.hh"

#include <algorithm>
#include <cassert>

namespace tokensim {

// =====================================================================
// SnoopCache
// =====================================================================

SnoopCache::SnoopCache(ProtoContext &ctx, NodeId id,
                       const ProtocolParams &params)
    : MosiCache(ctx, id, strformat("snoop.%u", id), params)
{
}

void
SnoopCache::resetState(const ProtocolParams &params, std::uint64_t seed)
{
    MosiCache::resetState(params, seed);
    outstanding_.clear();
    wbBuffer_.clear();
    migratoryPred_.clear();
}

bool
SnoopCache::fetchExclusive(Addr ba, MemOp op)
{
    // Requester-side migratory optimization: a store miss means the
    // block follows the read-modify-write pattern, so future loads
    // fetch it exclusively and the whole section costs one miss.
    if (op == MemOp::store) {
        if (params_.migratoryOpt)
            migratoryPred_.insert(ba);
        return true;
    }
    return params_.migratoryOpt && migratoryPred_.count(ba);
}

void
SnoopCache::issueMiss(const ProcRequest &req, Addr ba)
{
    assert(!outstanding_.count(ba) &&
           "sequencer must serialize same-block operations");
    outstanding_.emplace(ba, Transaction{req, ctx_.now()});

    Message msg;
    msg.type = fetchExclusive(ba, req.op) ? MsgType::getM : MsgType::getS;
    msg.cls = MsgClass::request;
    msg.dstUnit = Unit::cache;
    msg.addr = ba;
    msg.requester = id_;
    broadcastOrderedAfter(ctx_.ctrlLatency, msg);
}

void
SnoopCache::handleMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::getS:
      case MsgType::getM:
      case MsgType::putM:
        handleSnoop(msg);
        break;
      case MsgType::data:
      case MsgType::dataExclusive:
        handleData(msg);
        break;
      default:
        assert(false && "unexpected message at snooping cache");
    }
}

void
SnoopCache::handleSnoop(const Message &msg)
{
    if (msg.requester == id_) {
        handleOwnRequest(msg);
        return;
    }
    if (msg.type == MsgType::putM)
        return;   // foreign writeback announcements are none of ours

    auto it = outstanding_.find(msg.addr);
    if (it != outstanding_.end() && it->second.ordered) {
        // We are the block's logical holder (our request was ordered
        // first) but the data has not arrived: defer this snoop and
        // replay it after the fill — a classic non-stable state.
        it->second.deferred.push_back(msg);
        return;
    }
    applySnoop(msg);
}

void
SnoopCache::applySnoop(const Message &msg)
{
    const Addr ba = msg.addr;
    const bool exclusive = msg.type == MsgType::getM;

    // A line announced for writeback still answers snoops ordered
    // before its PutM.
    auto wit = wbBuffer_.find(ba);
    if (wit != wbBuffer_.end()) {
        respondData(msg.requester, ba, wit->second.data, exclusive);
        if (exclusive)
            wit->second.surrendered = true;
        return;
    }

    MosiLine *line = l2_.find(ba);
    if (!line)
        return;

    if (exclusive) {
        // The owner supplies data; sharers invalidate silently, since
        // ordering replaces explicit acks.
        if (ownsData(line->state))
            respondData(msg.requester, ba, line->data, true);
        drop(ba);
    } else if (ownsData(line->state)) {
        // S does not respond to GetS.
        respondData(msg.requester, ba, line->data, false);
        if (line->state == MosiState::M && !line->written)
            migratoryPred_.erase(ba);   // read-shared after all
        line->state = MosiState::O;
    }
}

void
SnoopCache::handleOwnRequest(const Message &msg)
{
    const Addr ba = msg.addr;

    if (msg.type == MsgType::putM) {
        auto wit = wbBuffer_.find(ba);
        assert(wit != wbBuffer_.end());
        if (!wit->second.surrendered) {
            Message wb = toHome(MsgType::wbData, MsgClass::data, ba);
            wb.hasData = true;
            wb.data = wit->second.data;
            sendAfter(ctx_.ctrlLatency, wb);
        }
        wbBuffer_.erase(wit);
        return;
    }

    auto it = outstanding_.find(ba);
    assert(it != outstanding_.end() &&
           "own ordered request with no transaction");
    Transaction &tr = it->second;
    tr.ordered = true;

    // Upgrade from Owned: we are the block's owner, so no one else
    // will supply data — our own copy is the data, and every other
    // sharer invalidates on observing this GetM.
    if (msg.type == MsgType::getM && !tr.dataReceived) {
        const MosiLine *line = l2_.find(ba);
        if (line && ownsData(line->state)) {
            tr.dataReceived = true;
            tr.dataValue = line->data;
            tr.dataExclusive = true;
            tr.dataFromMemory = true;   // not a c2c transfer
        }
    }

    if (tr.dataReceived)
        completeTrans(ba);
}

void
SnoopCache::handleData(const Message &msg)
{
    auto it = outstanding_.find(msg.addr);
    assert(it != outstanding_.end() && "data response with no miss");
    Transaction &tr = it->second;
    assert(!tr.dataReceived && "duplicate data response");
    tr.dataReceived = true;
    tr.dataValue = msg.data;
    tr.dataExclusive = msg.type == MsgType::dataExclusive;
    tr.dataFromMemory = msg.fromMemoryCtrl;
    if (tr.ordered)
        completeTrans(msg.addr);
}

void
SnoopCache::completeTrans(Addr addr)
{
    auto it = outstanding_.find(addr);
    assert(it != outstanding_.end());
    const Transaction tr = std::move(it->second);
    outstanding_.erase(it);

    // An exclusive load is a migratory transfer: read/write permission.
    const MosiLine *line = fill(tr.req, tr.dataExclusive, tr.dataValue);
    completeMiss(tr.req, tr.issuedAt, line->data, !tr.dataFromMemory);

    // Replay snoops that were ordered after our request but arrived
    // before our data.
    for (const Message &m : tr.deferred)
        applySnoop(m);
}

void
SnoopCache::writeBack(Addr addr, std::uint64_t data)
{
    // Announce the writeback in the total order, then ship the data
    // once the announcement has been ordered.
    wbBuffer_[addr] = WbEntry{data, false};
    Message msg;
    msg.type = MsgType::putM;
    msg.cls = MsgClass::request;
    msg.dstUnit = Unit::cache;
    msg.addr = addr;
    msg.requester = id_;
    broadcastOrderedAfter(ctx_.ctrlLatency, msg);
}

std::uint64_t
SnoopCache::functionalMiss(const ProcRequest &req, Addr ba,
                           MosiLine *line, FunctionalEnv &env)
{
    auto *mem = static_cast<SnoopMemory *>(env.memories[ctx_.home(ba)]);

    if (!fetchExclusive(ba, req.op)) {
        // GetS: the owner — an M/O line somewhere, else the home
        // memory — supplies data; an M owner downgrades to O.
        for (CacheController *c : env.caches) {
            auto *sc = static_cast<SnoopCache *>(c);
            MosiLine *l = sc == this ? nullptr : sc->l2_.find(ba);
            if (!l || !ownsData(l->state))
                continue;
            if (l->state == MosiState::M) {
                l->state = MosiState::O;
                if (!l->written)
                    sc->migratoryPred_.erase(ba);
            }
            return functionalFill(ba, line, env, MosiState::S, false,
                                  l->data);
        }
        return functionalFill(ba, line, env, MosiState::S, false,
                              mem->peekData(ba));
    }

    // GetM: take data from the owner (our own O/M line, a peer's,
    // else memory), drop every other copy, and become the memory's
    // recorded owner — exactly the ordered-broadcast outcome.
    bool have_data = line && ownsData(line->state);
    std::uint64_t value = have_data ? line->data : 0;
    for (CacheController *c : env.caches) {
        auto *sc = static_cast<SnoopCache *>(c);
        const MosiLine *l = sc == this ? nullptr : sc->l2_.find(ba);
        if (!l)
            continue;
        if (!have_data && ownsData(l->state)) {
            value = l->data;
            have_data = true;
        }
        sc->drop(ba);
    }
    if (!have_data)
        value = mem->peekData(ba);
    mem->entryFor(ba).owner = id_;

    const bool is_store = req.op == MemOp::store;
    return functionalFill(ba, line, env, MosiState::M, is_store,
                          is_store ? req.storeValue : value);
}

void
SnoopCache::encodeSideState(WireWriter &w) const
{
    std::vector<Addr> pred;
    migratoryPred_.forEach([&](Addr a) { pred.push_back(a); });
    std::sort(pred.begin(), pred.end());
    w.varint(pred.size());
    for (Addr a : pred)
        w.varint(a);
}

void
SnoopCache::decodeSideState(WireReader &r)
{
    const std::uint64_t npred = r.varint("migratory predictor size");
    Addr prev = 0;
    for (std::uint64_t i = 0; i < npred; ++i) {
        const Addr a = r.varint("migratory predictor entry");
        if (ctx_.blockAlign(a) != a)
            throw WireError("predictor entry not block-aligned");
        if (i > 0 && a <= prev)
            throw WireError("predictor entries not strictly ascending");
        prev = a;
        migratoryPred_.insert(a);
    }
}

// =====================================================================
// SnoopMemory
// =====================================================================

SnoopMemory::SnoopMemory(ProtoContext &ctx, NodeId id,
                         const ProtocolParams &params)
    : MosiMemory(ctx, id, strformat("snoopmem.%u", id), params)
{
}

void
SnoopMemory::handleMessage(const Message &msg)
{
    HomeEntry &e = entryFor(msg.addr);
    switch (msg.type) {
      case MsgType::getS:
      case MsgType::getM:
        if (e.owner == invalidNode) {
            if (e.busy)
                waiters_[msg.addr].push_back(msg);
            else
                sendMemoryData(msg, msg.type == MsgType::getM, 0);
        }
        if (msg.type == MsgType::getM)
            e.owner = msg.requester;
        break;
      case MsgType::putM:
        // A writeback overtaken by a GetM ordered before it finds
        // another owner recorded; the evictor surrendered the data.
        if (e.owner == msg.requester) {
            e.owner = invalidNode;
            e.busy = true;
        }
        break;
      case MsgType::wbData:
        assert(e.busy && "unexpected writeback data");
        store_.write(msg.addr, msg.data);
        dram_.access(ctx_.now());
        e.busy = false;
        if (auto it = waiters_.find(msg.addr); it != waiters_.end()) {
            SmallQueue<Message> &q = it->second;
            while (!q.empty()) {
                const Message queued = q.front();
                q.pop_front();
                sendMemoryData(queued, queued.type == MsgType::getM, 0);
            }
            waiters_.erase(it);
        }
        break;
      default:
        assert(false && "unexpected message at snooping memory");
    }
}

bool
SnoopMemory::memoryOwns(Addr addr) const
{
    auto it = entries_.find(ctx_.blockAlign(addr));
    return it == entries_.end() || it->second.owner == invalidNode;
}

} // namespace tokensim
