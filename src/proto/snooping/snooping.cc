#include "proto/snooping/snooping.hh"

#include <algorithm>
#include <cassert>
#include <vector>

#include "sim/stats.hh"

namespace tokensim {

const char *
snoopStateName(SnoopState s)
{
    switch (s) {
      case SnoopState::I: return "I";
      case SnoopState::S: return "S";
      case SnoopState::O: return "O";
      case SnoopState::M: return "M";
    }
    return "?";
}

// =====================================================================
// SnoopCache
// =====================================================================

SnoopCache::SnoopCache(ProtoContext &ctx, NodeId id,
                       const ProtocolParams &params)
    : CacheController(ctx, id, strformat("snoop.%u", id)),
      params_(params),
      l2_(ctx.l2)
{
}

void
SnoopCache::resetState(const ProtocolParams &params, std::uint64_t)
{
    params_ = params;
    l2_.clear();
    outstanding_.clear();
    wbBuffer_.clear();
    migratoryPred_.clear();
    stats_ = CacheCtrlStats{};
}

void
SnoopCache::request(const ProcRequest &req)
{
    const Addr ba = ctx_.blockAlign(req.addr);
    const bool is_store = req.op == MemOp::store;
    if (is_store)
        ++stats_.stores;
    else
        ++stats_.loads;

    assert(!outstanding_.count(ba) &&
           "sequencer must serialize same-block operations");

    SnoopLine *line = l2_.touch(ba);
    const bool hit = line &&
        (is_store ? line->state == SnoopState::M
                  : line->state != SnoopState::I);
    if (hit) {
        ++stats_.hits;
        ProcResponse resp;
        resp.reqId = req.reqId;
        resp.addr = req.addr;
        resp.op = req.op;
        resp.issuedAt = ctx_.now();
        resp.completedAt = ctx_.now() + ctx_.l2.latency;
        if (is_store) {
            line->data = req.storeValue;
            line->written = true;
            resp.value = req.storeValue;
        } else {
            resp.value = line->data;
        }
        ctx_.eq->scheduleIn(ctx_.l2.latency,
                            [this, resp]() { respond(resp); });
        return;
    }

    ++stats_.misses;
    Transaction tr;
    tr.req = req;
    tr.issuedAt = ctx_.now();
    outstanding_.emplace(ba, std::move(tr));

    // Requester-side migratory optimization: a store miss means the
    // block follows the read-modify-write pattern, so future loads
    // fetch it exclusively and the whole section costs one miss.
    bool exclusive = is_store;
    if (params_.migratoryOpt) {
        if (is_store)
            migratoryPred_.insert(ba);
        else if (migratoryPred_.count(ba))
            exclusive = true;
    }

    Message msg;
    msg.type = exclusive ? MsgType::getM : MsgType::getS;
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
    const Tick resp_delay = ctx_.ctrlLatency + ctx_.l2.latency;
    (void)resp_delay;

    // A line announced for writeback still answers snoops ordered
    // before its PutM.
    auto wit = wbBuffer_.find(ba);
    if (wit != wbBuffer_.end()) {
        if (exclusive) {
            respondData(msg.requester, ba, wit->second.data, true);
            wit->second.surrendered = true;
        } else {
            respondData(msg.requester, ba, wit->second.data, false);
        }
        return;
    }

    SnoopLine *line = l2_.find(ba);
    if (!line)
        return;

    if (!exclusive) {
        switch (line->state) {
          case SnoopState::M:
            respondData(msg.requester, ba, line->data, false);
            line->state = SnoopState::O;
            if (!line->written)
                migratoryPred_.erase(ba);   // read-shared after all
            break;
          case SnoopState::O:
            respondData(msg.requester, ba, line->data, false);
            break;
          default:
            break;   // S and I do not respond to GetS
        }
    } else {
        switch (line->state) {
          case SnoopState::M:
          case SnoopState::O:
            respondData(msg.requester, ba, line->data, true);
            notifyLineRemoved(ba);
            l2_.invalidate(ba);
            break;
          case SnoopState::S:
            // Invalidate silently; ordering replaces explicit acks.
            notifyLineRemoved(ba);
            l2_.invalidate(ba);
            break;
          default:
            break;
        }
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
            Message wb;
            wb.type = MsgType::wbData;
            wb.cls = MsgClass::data;
            wb.dstUnit = Unit::memory;
            wb.addr = ba;
            wb.dest = ctx_.home(ba);
            wb.requester = id_;
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
    it->second.ordered = true;

    // Upgrade from Owned: we are the block's owner, so no one else
    // will supply data — our own copy is the data, and every other
    // sharer invalidates on observing this GetM.
    if (msg.type == MsgType::getM && !it->second.dataReceived) {
        SnoopLine *line = l2_.find(ba);
        if (line && (line->state == SnoopState::O ||
                     line->state == SnoopState::M)) {
            it->second.dataReceived = true;
            it->second.dataValue = line->data;
            it->second.dataExclusive = true;
            it->second.dataFromMemory = true;   // not a c2c transfer
        }
    }

    if (it->second.dataReceived)
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
    Transaction tr = std::move(it->second);
    outstanding_.erase(it);

    SnoopLine *line = l2_.find(addr);
    if (!line)
        line = allocLine(addr);

    const bool is_store = tr.req.op == MemOp::store;
    if (is_store) {
        assert(tr.dataExclusive && "store fill without write permission");
        line->state = SnoopState::M;
        line->written = true;
        line->data = tr.req.storeValue;
    } else if (tr.dataExclusive) {
        // Migratory transfer: we received read/write permission.
        line->state = SnoopState::M;
        line->written = false;
        line->data = tr.dataValue;
    } else {
        line->state = SnoopState::S;
        line->written = false;
        line->data = tr.dataValue;
    }

    ProcResponse resp;
    resp.reqId = tr.req.reqId;
    resp.addr = tr.req.addr;
    resp.op = tr.req.op;
    resp.value = is_store ? tr.req.storeValue : tr.dataValue;
    resp.issuedAt = tr.issuedAt;
    resp.completedAt = ctx_.now();
    resp.wasMiss = true;
    resp.cacheToCache = !tr.dataFromMemory;

    ++stats_.missesCompleted;
    stats_.missLatency.add(
        static_cast<double>(ctx_.now() - tr.issuedAt));
    stats_.missLatencyHist.add(
        static_cast<double>(ctx_.now() - tr.issuedAt));
    if (resp.cacheToCache)
        ++stats_.cacheToCache;
    ++stats_.missesNotReissued;   // snooping never reissues

    respond(resp);

    // Replay snoops that were ordered after our request but arrived
    // before our data.
    for (const Message &m : tr.deferred)
        applySnoop(m);
}

SnoopLine *
SnoopCache::allocLine(Addr addr)
{
    CacheArray<SnoopLine>::Victim victim;
    SnoopLine *line = l2_.allocate(addr, &victim);
    if (victim.valid)
        evictVictim(victim.addr, victim.line);
    return line;
}

void
SnoopCache::evictVictim(Addr addr, const SnoopLine &victim)
{
    ++stats_.evictions;
    notifyLineRemoved(addr);
    if (victim.state == SnoopState::S || victim.state == SnoopState::I)
        return;   // clean shared copies drop silently

    // Owner eviction: announce the writeback in the total order, then
    // ship the data once the announcement has been ordered.
    wbBuffer_[addr] = WbEntry{victim.data, false};
    Message msg;
    msg.type = MsgType::putM;
    msg.cls = MsgClass::request;
    msg.dstUnit = Unit::cache;
    msg.addr = addr;
    msg.requester = id_;
    broadcastOrderedAfter(ctx_.ctrlLatency, msg);
}

void
SnoopCache::respondData(NodeId dest, Addr addr, std::uint64_t value,
                        bool exclusive)
{
    Message msg;
    msg.type = exclusive ? MsgType::dataExclusive : MsgType::data;
    msg.cls = MsgClass::data;
    msg.dstUnit = Unit::cache;
    msg.addr = addr;
    msg.dest = dest;
    msg.requester = dest;
    msg.hasData = true;
    msg.data = value;
    sendAfter(ctx_.ctrlLatency + ctx_.l2.latency, msg);
}

bool
SnoopCache::hasPermission(Addr addr, MemOp op) const
{
    const SnoopLine *line = l2_.find(ctx_.blockAlign(addr));
    if (!line)
        return false;
    return op == MemOp::store ? line->state == SnoopState::M
                              : line->state != SnoopState::I;
}

SnoopState
SnoopCache::state(Addr addr) const
{
    const SnoopLine *line = l2_.find(ctx_.blockAlign(addr));
    return line ? line->state : SnoopState::I;
}

// =====================================================================
// SnoopMemory
// =====================================================================

SnoopMemory::SnoopMemory(ProtoContext &ctx, NodeId id,
                         const ProtocolParams &params)
    : MemoryController(ctx, id, strformat("snoopmem.%u", id)),
      params_(params),
      store_(ctx.blockBytes),
      dram_(ctx.dram)
{
}

void
SnoopMemory::resetState(const ProtocolParams &params)
{
    params_ = params;
    store_.clear();
    dram_ = Dram(ctx_.dram);
    blocks_.clear();
}

SnoopMemory::MemBlock &
SnoopMemory::blockFor(Addr addr)
{
    assert(ctx_.home(addr) == id_);
    return blocks_[addr];
}

void
SnoopMemory::handleMessage(const Message &msg)
{
    const Addr ba = msg.addr;
    switch (msg.type) {
      case MsgType::getS: {
        MemBlock &mb = blockFor(ba);
        if (mb.owner == invalidNode) {
            if (mb.wbPending)
                mb.waiting.push_back(msg);
            else
                respondData(msg);
        }
        break;
      }
      case MsgType::getM: {
        MemBlock &mb = blockFor(ba);
        if (mb.owner == invalidNode) {
            if (mb.wbPending)
                mb.waiting.push_back(msg);
            else
                respondData(msg);
        }
        mb.owner = msg.requester;
        break;
      }
      case MsgType::putM: {
        MemBlock &mb = blockFor(ba);
        if (mb.owner == msg.requester) {
            mb.owner = invalidNode;
            mb.wbPending = true;
        }
        // Otherwise the writeback was overtaken by a GetM ordered
        // before it; the evictor already surrendered the data.
        break;
      }
      case MsgType::wbData: {
        MemBlock &mb = blockFor(ba);
        assert(mb.wbPending && "unexpected writeback data");
        store_.write(ba, msg.data);
        dram_.access(ctx_.now());
        mb.wbPending = false;
        while (!mb.waiting.empty()) {
            Message queued = mb.waiting.front();
            mb.waiting.pop_front();
            respondData(queued);
        }
        break;
      }
      default:
        assert(false && "unexpected message at snooping memory");
    }
}

void
SnoopMemory::respondData(const Message &req)
{
    Message msg;
    msg.type = req.type == MsgType::getM ? MsgType::dataExclusive
                                         : MsgType::data;
    msg.cls = MsgClass::data;
    msg.dstUnit = Unit::cache;
    msg.addr = req.addr;
    msg.dest = req.requester;
    msg.requester = req.requester;
    msg.hasData = true;
    msg.data = store_.read(req.addr);
    msg.fromMemoryCtrl = true;
    msg.src = id_;
    const Tick ready = dram_.access(ctx_.now() + ctx_.ctrlLatency);
    ctx_.eq->schedule(ready, [this, msg]() { ctx_.net->unicast(msg); });
}

std::uint64_t
SnoopMemory::peekData(Addr addr) const
{
    return store_.read(ctx_.blockAlign(addr));
}

bool
SnoopMemory::memoryOwns(Addr addr) const
{
    auto it = blocks_.find(ctx_.blockAlign(addr));
    return it == blocks_.end() || it->second.owner == invalidNode;
}

// =====================================================================
// Fast-forward and warm-state snapshots
// =====================================================================

SnoopLine *
SnoopCache::functionalAlloc(Addr ba, FunctionalEnv &env)
{
    CacheArray<SnoopLine>::Victim victim;
    SnoopLine *line = l2_.allocate(ba, &victim);
    if (victim.valid) {
        const SnoopLine &v = victim.line;
        const Addr va = victim.addr;
        notifyLineRemoved(va);
        if (v.state == SnoopState::M || v.state == SnoopState::O) {
            // The PutM/wbData exchange, settled: data lands at the
            // home, which stops tracking us as owner (a stale-owner
            // record — writeback overtaken by a GetM — never happens
            // at quiescence, but mirror the detailed filter anyway).
            auto *mem = static_cast<SnoopMemory *>(
                env.memories[ctx_.home(va)]);
            SnoopMemory::MemBlock &mb = mem->blockFor(va);
            if (mb.owner == id_) {
                mem->store_.write(va, v.data);
                mb.owner = invalidNode;
            }
        }
    }
    return line;
}

std::uint64_t
SnoopCache::applyFunctional(const ProcRequest &req, FunctionalEnv &env)
{
    const Addr ba = ctx_.blockAlign(req.addr);
    const bool is_store = req.op == MemOp::store;
    assert(outstanding_.empty() && wbBuffer_.empty() &&
           "fast-forward requires a quiescent cache");

    SnoopLine *line = l2_.touch(ba);
    const bool hit = line &&
        (is_store ? line->state == SnoopState::M
                  : line->state != SnoopState::I);
    if (hit) {
        if (is_store) {
            line->data = req.storeValue;
            line->written = true;
            return req.storeValue;
        }
        return line->data;
    }

    // Miss. Same requester-side migratory prediction as request().
    bool exclusive = is_store;
    if (params_.migratoryOpt) {
        if (is_store)
            migratoryPred_.insert(ba);
        else if (migratoryPred_.count(ba))
            exclusive = true;
    }

    auto *mem = static_cast<SnoopMemory *>(env.memories[ctx_.home(ba)]);

    if (!exclusive) {
        // GetS: the owner — an M/O line somewhere, else the home
        // memory — supplies data; an M owner downgrades to O.
        std::uint64_t value;
        SnoopCache *ownerCache = nullptr;
        SnoopLine *ownerLine = nullptr;
        for (CacheController *c : env.caches) {
            if (c == this)
                continue;
            auto *sc = static_cast<SnoopCache *>(c);
            SnoopLine *l = sc->l2_.find(ba);
            if (l && (l->state == SnoopState::M ||
                      l->state == SnoopState::O)) {
                ownerCache = sc;
                ownerLine = l;
                break;
            }
        }
        if (ownerLine) {
            value = ownerLine->data;
            if (ownerLine->state == SnoopState::M) {
                ownerLine->state = SnoopState::O;
                if (!ownerLine->written)
                    ownerCache->migratoryPred_.erase(ba);
            }
        } else {
            value = mem->store_.read(ba);
        }
        SnoopLine *nl = line ? line : functionalAlloc(ba, env);
        nl->state = SnoopState::S;
        nl->written = false;
        nl->data = value;
        return value;
    }

    // GetM: take data from the owner (our own O/M line, a peer's,
    // else memory), drop every other copy, and become the memory's
    // recorded owner — exactly the ordered-broadcast outcome.
    std::uint64_t value = 0;
    bool haveData = false;
    if (line && (line->state == SnoopState::O ||
                 line->state == SnoopState::M)) {
        value = line->data;
        haveData = true;
    }
    for (CacheController *c : env.caches) {
        if (c == this)
            continue;
        auto *sc = static_cast<SnoopCache *>(c);
        SnoopLine *l = sc->l2_.find(ba);
        if (!l)
            continue;
        if (!haveData && (l->state == SnoopState::M ||
                          l->state == SnoopState::O)) {
            value = l->data;
            haveData = true;
        }
        sc->notifyLineRemoved(ba);
        sc->l2_.invalidate(ba);
    }
    if (!haveData)
        value = mem->store_.read(ba);
    mem->blockFor(ba).owner = id_;

    SnoopLine *nl = line ? line : functionalAlloc(ba, env);
    nl->state = SnoopState::M;
    if (is_store) {
        nl->written = true;
        nl->data = req.storeValue;
        return req.storeValue;
    }
    nl->written = false;
    nl->data = value;
    return value;
}

void
SnoopCache::encodeWarmState(WireWriter &w) const
{
    if (!quiescent())
        throw WireError("snooping cache has transactions in flight");
    l2_.encodeWays(w, [](WireWriter &w, const SnoopLine &l) {
        w.u8(static_cast<std::uint8_t>(l.state));
        w.boolean(l.written);
        w.varint(l.data);
    });
    std::vector<Addr> pred;
    migratoryPred_.forEach([&](Addr a) { pred.push_back(a); });
    std::sort(pred.begin(), pred.end());
    w.varint(pred.size());
    for (Addr a : pred)
        w.varint(a);
    putStructEnd(w);
}

void
SnoopCache::decodeWarmState(WireReader &r)
{
    l2_.decodeWays(r, "l2", [](WireReader &r, Addr, SnoopLine &l) {
        const std::uint8_t state = r.u8("snoop line state");
        if (state < 1 || state > 3)
            throw WireError("invalid snooping line state");
        l.state = static_cast<SnoopState>(state);
        l.written = r.boolean("snoop line written");
        l.data = r.varint("snoop line data");
    });
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
    checkStructEnd(r, "snooping cache warm state");
}

void
SnoopMemory::encodeWarmState(WireWriter &w) const
{
    std::vector<std::pair<Addr, std::uint64_t>> written;
    for (const auto &[a, v] : store_.blocks()) {
        if (v != BackingStore::initialValue(a))
            written.emplace_back(a, v);
    }
    std::sort(written.begin(), written.end());
    w.varint(written.size());
    for (const auto &[a, v] : written) {
        w.varint(a);
        w.varint(v);
    }

    std::vector<std::pair<Addr, NodeId>> owners;
    for (const auto &[a, mb] : blocks_) {
        if (mb.wbPending || !mb.waiting.empty())
            throw WireError("snooping memory has writebacks in flight");
        if (mb.owner != invalidNode)
            owners.emplace_back(a, mb.owner);
    }
    std::sort(owners.begin(), owners.end());
    w.varint(owners.size());
    for (const auto &[a, o] : owners) {
        w.varint(a);
        w.varint(o);
    }
    putStructEnd(w);
}

void
SnoopMemory::decodeWarmState(WireReader &r)
{
    const std::uint64_t nwritten = r.varint("written block count");
    Addr prev = 0;
    for (std::uint64_t i = 0; i < nwritten; ++i) {
        const Addr a = r.varint("written block address");
        const std::uint64_t v = r.varint("written block value");
        if (ctx_.blockAlign(a) != a)
            throw WireError("written block not block-aligned");
        if (ctx_.home(a) != id_)
            throw WireError("written block homed elsewhere");
        if (i > 0 && a <= prev)
            throw WireError("written blocks not strictly ascending");
        prev = a;
        store_.write(a, v);
    }
    const std::uint64_t nowners = r.varint("owner record count");
    prev = 0;
    for (std::uint64_t i = 0; i < nowners; ++i) {
        const Addr a = r.varint("owner record address");
        const std::uint64_t o = r.varint("owner record node");
        if (ctx_.blockAlign(a) != a)
            throw WireError("owner record not block-aligned");
        if (ctx_.home(a) != id_)
            throw WireError("owner record homed elsewhere");
        if (i > 0 && a <= prev)
            throw WireError("owner records not strictly ascending");
        if (o >= static_cast<std::uint64_t>(ctx_.numNodes))
            throw WireError("owner record names an invalid node");
        prev = a;
        blocks_[a].owner = static_cast<NodeId>(o);
    }
    checkStructEnd(r, "snooping memory warm state");
}

} // namespace tokensim
