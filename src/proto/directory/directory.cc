#include "proto/directory/directory.hh"

#include <algorithm>
#include <cassert>

#include "sim/stats.hh"

namespace tokensim {

// =====================================================================
// DirCache
// =====================================================================

DirCache::DirCache(ProtoContext &ctx, NodeId id,
                   const ProtocolParams &params)
    : CacheController(ctx, id, strformat("dir.%u", id)),
      params_(params),
      l2_(ctx.l2)
{
}

void
DirCache::resetState(const ProtocolParams &params, std::uint64_t)
{
    params_ = params;
    l2_.clear();
    outstanding_.clear();
    wbBuffer_.clear();
    stats_ = CacheCtrlStats{};
}

void
DirCache::request(const ProcRequest &req)
{
    const Addr ba = ctx_.blockAlign(req.addr);
    const bool is_store = req.op == MemOp::store;
    if (is_store)
        ++stats_.stores;
    else
        ++stats_.loads;

    assert(!outstanding_.count(ba) &&
           "sequencer must serialize same-block operations");

    DirLine *line = l2_.touch(ba);
    const bool hit = line &&
        (is_store ? line->state == DirCacheState::M
                  : line->state != DirCacheState::I);
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

    Message msg;
    msg.type = is_store ? MsgType::getM : MsgType::getS;
    msg.cls = MsgClass::request;
    msg.dstUnit = Unit::memory;
    msg.addr = ba;
    msg.dest = ctx_.home(ba);
    msg.requester = id_;
    sendAfter(ctx_.ctrlLatency, msg);
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
    DirLine *line = l2_.find(ba);

    if (!line) {
        // The directory forwarded to us while our writeback was in
        // flight; answer from the writeback buffer. The home's
        // owner check will reject the stale PutM data.
        auto wit = wbBuffer_.find(ba);
        assert(wit != wbBuffer_.end() &&
               "forward to a node with neither line nor writeback");
        respondData(msg.requester, ba, wit->second.data, exclusive,
                    exclusive ? msg.ackCount : 0);
        return;
    }

    if (!exclusive) {
        if (line->state == DirCacheState::M && line->written &&
            params_.migratoryOpt) {
            // Migratory optimization: pass read/write permission.
            respondData(msg.requester, ba, line->data, true, 0);
            notifyLineRemoved(ba);
            l2_.invalidate(ba);
        } else {
            assert(line->state == DirCacheState::M ||
                   line->state == DirCacheState::O);
            respondData(msg.requester, ba, line->data, false, 0);
            line->state = DirCacheState::O;
        }
    } else {
        assert(line->state == DirCacheState::M ||
               line->state == DirCacheState::O);
        respondData(msg.requester, ba, line->data, true, msg.ackCount);
        notifyLineRemoved(ba);
        l2_.invalidate(ba);
    }
}

void
DirCache::handleInv(const Message &msg)
{
    const Addr ba = msg.addr;
    DirLine *line = l2_.find(ba);
    if (line) {
        assert(line->state == DirCacheState::S &&
               "invalidation hit a non-shared line");
        notifyLineRemoved(ba);
        l2_.invalidate(ba);
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
        DirLine *line = l2_.find(ba);
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

    Transaction done = std::move(tr);
    outstanding_.erase(it);

    DirLine *line = l2_.find(addr);
    if (!line)
        line = allocLine(addr);

    const bool is_store = done.req.op == MemOp::store;
    if (is_store) {
        assert(done.dataExclusive);
        line->state = DirCacheState::M;
        line->written = true;
        line->data = done.req.storeValue;
    } else if (done.dataExclusive) {
        line->state = DirCacheState::M;
        line->written = false;
        line->data = done.dataValue;
    } else {
        line->state = DirCacheState::S;
        line->written = false;
        line->data = done.dataValue;
    }

    sendUnblock(addr, done.dataExclusive || is_store);

    ProcResponse resp;
    resp.reqId = done.req.reqId;
    resp.addr = done.req.addr;
    resp.op = done.req.op;
    resp.value = line->data;
    resp.issuedAt = done.issuedAt;
    resp.completedAt = ctx_.now();
    resp.wasMiss = true;
    resp.cacheToCache = !done.dataFromMemory;

    ++stats_.missesCompleted;
    stats_.missLatency.add(
        static_cast<double>(ctx_.now() - done.issuedAt));
    stats_.missLatencyHist.add(
        static_cast<double>(ctx_.now() - done.issuedAt));
    if (resp.cacheToCache)
        ++stats_.cacheToCache;
    ++stats_.missesNotReissued;

    respond(resp);
}

void
DirCache::sendUnblock(Addr addr, bool exclusive)
{
    Message msg;
    msg.type = exclusive ? MsgType::unblockExclusive : MsgType::unblock;
    msg.cls = MsgClass::nonData;
    msg.dstUnit = Unit::memory;
    msg.addr = addr;
    msg.dest = ctx_.home(addr);
    msg.requester = id_;
    sendAfter(ctx_.ctrlLatency, msg);
}

DirLine *
DirCache::allocLine(Addr addr)
{
    CacheArray<DirLine>::Victim victim;
    DirLine *line = l2_.allocate(addr, &victim);
    if (victim.valid)
        evictVictim(victim.addr, victim.line);
    return line;
}

void
DirCache::evictVictim(Addr addr, const DirLine &victim)
{
    ++stats_.evictions;
    notifyLineRemoved(addr);
    if (victim.state == DirCacheState::S ||
        victim.state == DirCacheState::I) {
        return;   // silent drop; directory sharer lists stay stale-safe
    }

    wbBuffer_[addr] = WbEntry{victim.data};
    Message msg;
    msg.type = MsgType::putM;
    msg.cls = MsgClass::data;
    msg.dstUnit = Unit::memory;
    msg.addr = addr;
    msg.dest = ctx_.home(addr);
    msg.requester = id_;
    msg.hasData = true;
    msg.data = victim.data;
    sendAfter(ctx_.ctrlLatency, msg);
}

void
DirCache::respondData(NodeId dest, Addr addr, std::uint64_t value,
                      bool exclusive, int ack_count)
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
    msg.ackCount = ack_count;
    sendAfter(ctx_.ctrlLatency + ctx_.l2.latency, msg);
}

bool
DirCache::hasPermission(Addr addr, MemOp op) const
{
    const DirLine *line = l2_.find(ctx_.blockAlign(addr));
    if (!line)
        return false;
    return op == MemOp::store ? line->state == DirCacheState::M
                              : line->state != DirCacheState::I;
}

DirCacheState
DirCache::state(Addr addr) const
{
    const DirLine *line = l2_.find(ctx_.blockAlign(addr));
    return line ? line->state : DirCacheState::I;
}

// =====================================================================
// DirMemory
// =====================================================================

DirMemory::DirMemory(ProtoContext &ctx, NodeId id,
                     const ProtocolParams &params)
    : MemoryController(ctx, id, strformat("dirmem.%u", id)),
      params_(params),
      store_(ctx.blockBytes),
      dram_(ctx.dram)
{
}

void
DirMemory::resetState(const ProtocolParams &params)
{
    params_ = params;
    store_.clear();
    dram_ = Dram(ctx_.dram);
    entries_.clear();
}

DirMemory::DirEntry &
DirMemory::entryFor(Addr addr)
{
    assert(ctx_.home(addr) == id_);
    return entries_[addr];
}

Tick
DirMemory::dirLatency() const
{
    return params_.perfectDirectory ? 0 : ctx_.dram.latency;
}

void
DirMemory::handleMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::getS:
      case MsgType::getM: {
        DirEntry &e = entryFor(msg.addr);
        if (e.busy) {
            e.queue.push_back(msg);
            return;
        }
        processRequest(msg);
        break;
      }
      case MsgType::unblock:
      case MsgType::unblockExclusive:
        handleUnblock(msg);
        break;
      case MsgType::putM: {
        DirEntry &e = entryFor(msg.addr);
        if (e.busy) {
            e.queue.push_back(msg);
            return;
        }
        handlePutM(msg);
        break;
      }
      default:
        assert(false && "unexpected message at directory memory");
    }
}

void
DirMemory::processRequest(const Message &msg)
{
    const Addr ba = msg.addr;
    DirEntry &e = entryFor(ba);
    assert(!e.busy);
    const NodeId req = msg.requester;

    e.busy = true;
    e.pendingRequester = req;

    if (msg.type == MsgType::getS) {
        if (e.owner == invalidNode) {
            sendMemoryData(msg, false, 0);
        } else {
            sendFwd(msg, MsgType::fwdGetS, 0);
        }
        return;
    }

    // GetM.
    std::set<NodeId> to_inval = e.sharers;
    to_inval.erase(req);
    const int acks = static_cast<int>(to_inval.size());

    if (e.owner == invalidNode) {
        sendMemoryData(msg, true, acks);
        sendInvs(ba, to_inval, req);
    } else if (e.owner == req) {
        // Upgrade by the current (Owned-state) owner: dataless grant.
        sendGrant(msg, acks);
        sendInvs(ba, to_inval, req);
    } else {
        sendFwd(msg, MsgType::fwdGetM, acks);
        sendInvs(ba, to_inval, req);
    }
}

void
DirMemory::handleUnblock(const Message &msg)
{
    const Addr ba = msg.addr;
    DirEntry &e = entryFor(ba);
    assert(e.busy && "unblock with no transaction in flight");
    assert(msg.requester == e.pendingRequester);

    if (msg.type == MsgType::unblockExclusive) {
        e.owner = msg.requester;
        e.sharers.clear();
    } else {
        e.sharers.insert(msg.requester);
    }
    e.busy = false;
    e.pendingRequester = invalidNode;
    serviceNext(ba);
}

void
DirMemory::handlePutM(const Message &msg)
{
    const Addr ba = msg.addr;
    DirEntry &e = entryFor(ba);
    assert(!e.busy);

    if (e.owner == msg.requester) {
        store_.write(ba, msg.data);
        dram_.access(ctx_.now());
        e.owner = invalidNode;
    }
    // Otherwise ownership already moved on (the evictor answered a
    // forward from its writeback buffer); drop the stale data.

    Message ack;
    ack.type = MsgType::wbAck;
    ack.cls = MsgClass::nonData;
    ack.dstUnit = Unit::cache;
    ack.addr = ba;
    ack.dest = msg.requester;
    ack.requester = msg.requester;
    ack.src = id_;
    sendAfter(ctx_.ctrlLatency, ack);
}

void
DirMemory::serviceNext(Addr addr)
{
    DirEntry &e = entryFor(addr);
    while (!e.busy && !e.queue.empty()) {
        Message next = e.queue.front();
        e.queue.pop_front();
        if (next.type == MsgType::putM)
            handlePutM(next);
        else
            processRequest(next);
    }
}

void
DirMemory::sendMemoryData(const Message &req, bool exclusive,
                          int ack_count)
{
    Message msg;
    msg.type = exclusive ? MsgType::dataExclusive : MsgType::data;
    msg.cls = MsgClass::data;
    msg.dstUnit = Unit::cache;
    msg.addr = req.addr;
    msg.dest = req.requester;
    msg.requester = req.requester;
    msg.hasData = true;
    msg.data = store_.read(req.addr);
    msg.ackCount = ack_count;
    msg.fromMemoryCtrl = true;
    msg.src = id_;
    // The data DRAM read overlaps the directory lookup (they share
    // the access): total latency is the DRAM access itself.
    const Tick ready = dram_.access(ctx_.now() + ctx_.ctrlLatency);
    ctx_.eq->schedule(ready, [this, msg]() { ctx_.net->unicast(msg); });
}

void
DirMemory::sendFwd(const Message &req, MsgType fwd_type, int ack_count)
{
    DirEntry &e = entryFor(req.addr);
    Message msg;
    msg.type = fwd_type;
    msg.cls = MsgClass::request;
    msg.dstUnit = Unit::cache;
    msg.addr = req.addr;
    msg.dest = e.owner;
    msg.requester = req.requester;
    msg.ackCount = ack_count;
    msg.src = id_;
    // The forward waits on the directory lookup — the indirection
    // latency the paper's Figure 5a isolates with the striped bar.
    sendAfter(ctx_.ctrlLatency + dirLatency(), msg);
}

void
DirMemory::sendInvs(Addr addr, const std::set<NodeId> &targets,
                    NodeId requester)
{
    for (NodeId t : targets) {
        Message msg;
        msg.type = MsgType::inv;
        msg.cls = MsgClass::request;
        msg.dstUnit = Unit::cache;
        msg.addr = addr;
        msg.dest = t;
        msg.requester = requester;
        msg.src = id_;
        sendAfter(ctx_.ctrlLatency + dirLatency(), msg);
    }
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
    msg.src = id_;
    sendAfter(ctx_.ctrlLatency + dirLatency(), msg);
}

std::uint64_t
DirMemory::peekData(Addr addr) const
{
    return store_.read(ctx_.blockAlign(addr));
}

DirMemory::DirView
DirMemory::view(Addr addr) const
{
    DirView v;
    auto it = entries_.find(ctx_.blockAlign(addr));
    if (it != entries_.end()) {
        v.busy = it->second.busy;
        v.owner = it->second.owner;
        v.sharers.assign(it->second.sharers.begin(),
                         it->second.sharers.end());
    }
    return v;
}

// =====================================================================
// Fast-forward and warm-state snapshots
// =====================================================================

DirLine *
DirCache::functionalAlloc(Addr ba, FunctionalEnv &env)
{
    CacheArray<DirLine>::Victim victim;
    DirLine *line = l2_.allocate(ba, &victim);
    if (victim.valid) {
        const DirLine &v = victim.line;
        const Addr va = victim.addr;
        notifyLineRemoved(va);
        if (v.state == DirCacheState::M || v.state == DirCacheState::O) {
            // The PutM, settled: data lands at the home, whose owner
            // check mirrors the detailed stale-writeback filter.
            auto *mem = static_cast<DirMemory *>(
                env.memories[ctx_.home(va)]);
            DirMemory::DirEntry &e = mem->entryFor(va);
            if (e.owner == id_) {
                mem->store_.write(va, v.data);
                e.owner = invalidNode;
            }
        }
        // S/I drop silently; the directory's sharer list stays
        // conservative, exactly as in detailed mode.
    }
    return line;
}

std::uint64_t
DirCache::applyFunctional(const ProcRequest &req, FunctionalEnv &env)
{
    const Addr ba = ctx_.blockAlign(req.addr);
    const bool is_store = req.op == MemOp::store;
    assert(outstanding_.empty() && wbBuffer_.empty() &&
           "fast-forward requires a quiescent cache");

    DirLine *line = l2_.touch(ba);
    const bool hit = line &&
        (is_store ? line->state == DirCacheState::M
                  : line->state != DirCacheState::I);
    if (hit) {
        if (is_store) {
            line->data = req.storeValue;
            line->written = true;
            return req.storeValue;
        }
        return line->data;
    }

    auto *mem = static_cast<DirMemory *>(env.memories[ctx_.home(ba)]);
    DirMemory::DirEntry &e = mem->entryFor(ba);
    assert(!e.busy && e.queue.empty() &&
           "fast-forward requires an idle directory");

    if (!is_store) {
        // GetS. The directory supplies memory data or forwards to the
        // owner; a written migratory owner hands over exclusively.
        std::uint64_t value;
        if (e.owner == invalidNode) {
            value = mem->store_.read(ba);
        } else {
            assert(e.owner != id_ &&
                   "load miss while the directory says we own it");
            auto *oc = static_cast<DirCache *>(env.caches[e.owner]);
            DirLine *ol = oc->l2_.find(ba);
            assert(ol && (ol->state == DirCacheState::M ||
                          ol->state == DirCacheState::O));
            value = ol->data;
            if (ol->state == DirCacheState::M && ol->written &&
                params_.migratoryOpt) {
                // Migratory handoff: we take M, the owner drops.
                oc->notifyLineRemoved(ba);
                oc->l2_.invalidate(ba);
                e.owner = id_;
                e.sharers.clear();
                DirLine *nl = line ? line : functionalAlloc(ba, env);
                nl->state = DirCacheState::M;
                nl->written = false;
                nl->data = value;
                return value;
            }
            ol->state = DirCacheState::O;
        }
        e.sharers.insert(id_);
        DirLine *nl = line ? line : functionalAlloc(ba, env);
        nl->state = DirCacheState::S;
        nl->written = false;
        nl->data = value;
        return value;
    }

    // GetM: sharers invalidate, the owner (us on an upgrade, a peer,
    // or memory) supplies data, and the directory records us as the
    // exclusive owner.
    for (NodeId s : e.sharers) {
        if (s == id_)
            continue;
        auto *sc = static_cast<DirCache *>(env.caches[s]);
        if (sc->l2_.find(ba)) {
            sc->notifyLineRemoved(ba);
            sc->l2_.invalidate(ba);
        }
        // Silently dropped sharer copies just ack in detailed mode.
    }
    if (e.owner != invalidNode && e.owner != id_) {
        auto *oc = static_cast<DirCache *>(env.caches[e.owner]);
        [[maybe_unused]] DirLine *ol = oc->l2_.find(ba);
        assert(ol && (ol->state == DirCacheState::M ||
                      ol->state == DirCacheState::O));
        oc->notifyLineRemoved(ba);
        oc->l2_.invalidate(ba);
    }
    // An upgrade (e.owner == id_) keeps local data; otherwise the
    // incoming data is immediately overwritten by the store anyway.
    e.owner = id_;
    e.sharers.clear();

    DirLine *nl = line ? line : functionalAlloc(ba, env);
    nl->state = DirCacheState::M;
    nl->written = true;
    nl->data = req.storeValue;
    return req.storeValue;
}

void
DirCache::encodeWarmState(WireWriter &w) const
{
    if (!quiescent())
        throw WireError("directory cache has transactions in flight");
    l2_.encodeWays(w, [](WireWriter &w, const DirLine &l) {
        w.u8(static_cast<std::uint8_t>(l.state));
        w.boolean(l.written);
        w.varint(l.data);
    });
    putStructEnd(w);
}

void
DirCache::decodeWarmState(WireReader &r)
{
    l2_.decodeWays(r, "l2", [](WireReader &r, Addr, DirLine &l) {
        const std::uint8_t state = r.u8("dir line state");
        if (state < 1 || state > 3)
            throw WireError("invalid directory line state");
        l.state = static_cast<DirCacheState>(state);
        l.written = r.boolean("dir line written");
        l.data = r.varint("dir line data");
    });
    checkStructEnd(r, "directory cache warm state");
}

void
DirMemory::encodeWarmState(WireWriter &w) const
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

    std::vector<Addr> live;
    for (const auto &[a, e] : entries_) {
        if (e.busy || !e.queue.empty())
            throw WireError("directory has transactions in flight");
        if (e.owner != invalidNode || !e.sharers.empty())
            live.push_back(a);
    }
    std::sort(live.begin(), live.end());
    w.varint(live.size());
    for (Addr a : live) {
        const DirEntry &e = entries_.find(a)->second;
        w.varint(a);
        w.boolean(e.owner != invalidNode);
        if (e.owner != invalidNode)
            w.varint(e.owner);
        w.varint(e.sharers.size());
        for (NodeId s : e.sharers)   // std::set: already ascending
            w.varint(s);
    }
    putStructEnd(w);
}

void
DirMemory::decodeWarmState(WireReader &r)
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
    const std::uint64_t nentries = r.varint("directory entry count");
    prev = 0;
    for (std::uint64_t i = 0; i < nentries; ++i) {
        const Addr a = r.varint("directory entry address");
        if (ctx_.blockAlign(a) != a)
            throw WireError("directory entry not block-aligned");
        if (ctx_.home(a) != id_)
            throw WireError("directory entry homed elsewhere");
        if (i > 0 && a <= prev)
            throw WireError("directory entries not strictly ascending");
        prev = a;
        DirEntry &e = entries_[a];
        if (r.boolean("directory entry has owner")) {
            const std::uint64_t o = r.varint("directory entry owner");
            if (o >= static_cast<std::uint64_t>(ctx_.numNodes))
                throw WireError("directory owner is an invalid node");
            e.owner = static_cast<NodeId>(o);
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
            e.sharers.insert(static_cast<NodeId>(s));
        }
    }
    checkStructEnd(r, "directory memory warm state");
}

} // namespace tokensim
