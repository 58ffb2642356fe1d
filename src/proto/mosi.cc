#include "proto/mosi.hh"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace tokensim {

namespace {

/** True if @p line grants @p op. */
bool
permits(const MosiLine *line, MemOp op)
{
    return line && (op == MemOp::store ? line->state == MosiState::M
                                       : line->state != MosiState::I);
}

/** A hit: a store writes the line; either op returns its value. */
std::uint64_t
applyHit(MosiLine &line, const ProcRequest &req)
{
    if (req.op == MemOp::store) {
        line.data = req.storeValue;
        line.written = true;
    }
    return line.data;
}

} // namespace

// =====================================================================
// MosiCache
// =====================================================================

MosiCache::MosiCache(ProtoContext &ctx, NodeId id, std::string tag,
                     const ProtocolParams &params)
    : CacheController(ctx, id, std::move(tag)),
      params_(params),
      l2_(ctx.l2)
{
}

void
MosiCache::resetState(const ProtocolParams &params, std::uint64_t)
{
    params_ = params;
    l2_.clear();
    stats_ = CacheCtrlStats{};
}

void
MosiCache::request(const ProcRequest &req)
{
    const Addr ba = ctx_.blockAlign(req.addr);
    if (req.op == MemOp::store)
        ++stats_.stores;
    else
        ++stats_.loads;

    MosiLine *line = l2_.touch(ba);
    if (!permits(line, req.op)) {
        ++stats_.misses;
        issueMiss(req, ba);
        return;
    }
    ++stats_.hits;
    ProcResponse resp;
    resp.reqId = req.reqId;
    resp.addr = req.addr;
    resp.op = req.op;
    resp.value = applyHit(*line, req);
    resp.issuedAt = ctx_.now();
    resp.completedAt = ctx_.now() + ctx_.l2.latency;
    ctx_.eq->scheduleIn(ctx_.l2.latency, [this, resp]() { respond(resp); });
}

std::uint64_t
MosiCache::applyFunctional(const ProcRequest &req, FunctionalEnv &env)
{
    const Addr ba = ctx_.blockAlign(req.addr);
    assert(quiescent() && "fast-forward requires a quiescent cache");
    MosiLine *line = l2_.touch(ba);
    if (permits(line, req.op))
        return applyHit(*line, req);
    return functionalMiss(req, ba, line, env);
}

bool
MosiCache::hasPermission(Addr addr, MemOp op) const
{
    return permits(l2_.find(ctx_.blockAlign(addr)), op);
}

MosiState
MosiCache::state(Addr addr) const
{
    const MosiLine *line = l2_.find(ctx_.blockAlign(addr));
    return line ? line->state : MosiState::I;
}

MosiLine *
MosiCache::allocLine(Addr addr)
{
    CacheArray<MosiLine>::Victim victim;
    MosiLine *line = l2_.allocate(addr, &victim);
    if (victim.valid) {
        ++stats_.evictions;
        notifyLineRemoved(victim.addr);
        // Shared copies drop silently: a directory's sharer list stays
        // conservative, and no other family tracks sharers.
        if (ownsData(victim.line.state))
            writeBack(victim.addr, victim.line.data);
    }
    return line;
}

MosiLine *
MosiCache::fill(const ProcRequest &req, bool exclusive, std::uint64_t value)
{
    const bool is_store = req.op == MemOp::store;
    assert((!is_store || exclusive) &&
           "store fill without write permission");
    const Addr ba = ctx_.blockAlign(req.addr);
    MosiLine *line = l2_.find(ba);
    if (!line)
        line = allocLine(ba);
    line->state = is_store || exclusive ? MosiState::M : MosiState::S;
    line->written = is_store;
    line->data = is_store ? req.storeValue : value;
    return line;
}

void
MosiCache::completeMiss(const ProcRequest &req, Tick issued_at,
                        std::uint64_t value, bool cache_to_cache)
{
    ProcResponse resp;
    resp.reqId = req.reqId;
    resp.addr = req.addr;
    resp.op = req.op;
    resp.value = value;
    resp.issuedAt = issued_at;
    resp.completedAt = ctx_.now();
    resp.wasMiss = true;
    resp.cacheToCache = cache_to_cache;

    const auto latency = static_cast<double>(ctx_.now() - issued_at);
    ++stats_.missesCompleted;
    stats_.missLatency.add(latency);
    stats_.missLatencyHist.add(latency);
    if (cache_to_cache)
        ++stats_.cacheToCache;
    ++stats_.missesNotReissued;   // the classical protocols never reissue

    respond(resp);
}

void
MosiCache::respondData(NodeId dest, Addr addr, std::uint64_t value,
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

Message
MosiCache::toHome(MsgType type, MsgClass cls, Addr addr) const
{
    Message msg;
    msg.type = type;
    msg.cls = cls;
    msg.dstUnit = Unit::memory;
    msg.addr = addr;
    msg.dest = ctx_.home(addr);
    msg.requester = id_;
    return msg;
}

void
MosiCache::drop(Addr ba)
{
    notifyLineRemoved(ba);
    [[maybe_unused]] const bool present = l2_.invalidate(ba);
    assert(present);
}

std::uint64_t
MosiCache::functionalFill(Addr ba, MosiLine *line, FunctionalEnv &env,
                          MosiState state, bool written,
                          std::uint64_t data)
{
    if (!line) {
        CacheArray<MosiLine>::Victim victim;
        line = l2_.allocate(ba, &victim);
        if (victim.valid) {
            notifyLineRemoved(victim.addr);
            if (ownsData(victim.line.state)) {
                auto *home = static_cast<MosiMemory *>(
                    env.memories[ctx_.home(victim.addr)]);
                home->settleWriteback(victim.addr, id_, victim.line.data);
            }
        }
    }
    line->state = state;
    line->written = written;
    line->data = data;
    return data;
}

void
MosiCache::encodeWarmState(WireWriter &w) const
{
    if (!quiescent())
        throw WireError(tag_ + " has transactions in flight");
    l2_.encodeWays(w, [](WireWriter &w, const MosiLine &l) {
        w.u8(static_cast<std::uint8_t>(l.state));
        w.boolean(l.written);
        w.varint(l.data);
    });
    encodeSideState(w);
    putStructEnd(w);
}

void
MosiCache::decodeWarmState(WireReader &r)
{
    l2_.decodeWays(r, "l2", [](WireReader &r, Addr, MosiLine &l) {
        const std::uint8_t state = r.u8("l2 line state");
        if (state < 1 || state > 3)
            throw WireError("invalid MOSI line state");
        l.state = static_cast<MosiState>(state);
        l.written = r.boolean("l2 line written");
        l.data = r.varint("l2 line data");
    });
    decodeSideState(r);
    checkStructEnd(r, "MOSI cache warm state");
}

// =====================================================================
// MosiMemory
// =====================================================================

MosiMemory::MosiMemory(ProtoContext &ctx, NodeId id, std::string tag,
                       const ProtocolParams &params)
    : MemoryController(ctx, id, std::move(tag)),
      params_(params),
      store_(ctx.blockBytes),
      dram_(ctx.dram)
{
}

void
MosiMemory::resetState(const ProtocolParams &params)
{
    params_ = params;
    store_.clear();
    dram_ = Dram(ctx_.dram);
    entries_.clear();
    waiters_.clear();
}

std::uint64_t
MosiMemory::peekData(Addr addr) const
{
    return store_.read(ctx_.blockAlign(addr));
}

bool
MosiMemory::quiescent() const
{
    if (!waiters_.empty())
        return false;
    for (const auto &[a, e] : entries_) {
        if (e.busy)
            return false;
    }
    return true;
}

HomeEntry &
MosiMemory::entryFor(Addr addr)
{
    assert(ctx_.home(addr) == id_);
    return entries_[addr];
}

std::vector<NodeId>
MosiMemory::waiting(Addr addr) const
{
    std::vector<NodeId> out;
    auto it = waiters_.find(ctx_.blockAlign(addr));
    if (it != waiters_.end()) {
        for (const Message &m : it->second)
            out.push_back(m.requester);
    }
    return out;
}

void
MosiMemory::settleWriteback(Addr addr, NodeId from, std::uint64_t data)
{
    HomeEntry &e = entryFor(addr);
    if (e.owner == from) {
        store_.write(addr, data);
        e.owner = invalidNode;
    }
}

void
MosiMemory::sendMemoryData(const Message &req, bool exclusive,
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
    const Tick ready = dram_.access(ctx_.now() + ctx_.ctrlLatency);
    ctx_.eq->schedule(ready, [this, msg]() { ctx_.net->unicast(msg); });
}

void
MosiMemory::encodeWarmState(WireWriter &w) const
{
    if (!quiescent())
        throw WireError(tag_ + " has transactions in flight");
    store_.encodeWritten(w);
    std::vector<std::pair<Addr, NodeId>> owners;
    for (const auto &[a, e] : entries_) {
        if (e.owner != invalidNode)
            owners.emplace_back(a, e.owner);
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
MosiMemory::decodeWarmState(WireReader &r)
{
    store_.decodeWritten(r, ctx_, id_);
    const std::uint64_t nowners = r.varint("owner record count");
    Addr prev = 0;
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
        entries_[a].owner = static_cast<NodeId>(o);
    }
    checkStructEnd(r, "MOSI memory warm state");
}

// =====================================================================
// HomeSerializer
// =====================================================================

void
HomeSerializer::handleMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::getS:
      case MsgType::getM:
      case MsgType::putM: {
        HomeEntry &e = entryFor(msg.addr);
        if (e.busy)
            waiters_[msg.addr].push_back(msg);
        else
            start(msg, e);
        break;
      }
      case MsgType::unblock:
      case MsgType::unblockExclusive:
        handleUnblock(msg);
        break;
      case MsgType::fwdGetS:
      case MsgType::fwdGetM:
        // A probe broadcast (Hammer) echoing back to the home node.
        break;
      default:
        assert(false && "unexpected message at a home memory");
    }
}

void
HomeSerializer::start(const Message &msg, HomeEntry &e)
{
    assert(!e.busy);
    if (msg.type == MsgType::putM) {
        handlePutM(msg, e);
        return;
    }
    e.busy = true;
    e.pendingRequester = msg.requester;
    processRequest(msg, e);
}

void
HomeSerializer::handlePutM(const Message &msg, HomeEntry &e)
{
    // Every M/O line was created through an exclusive unblock, so the
    // last-owner record is authoritative: a writeback from anyone else
    // is stale (the evictor answered a forward or probe from its
    // writeback buffer, and ownership moved on) and is dropped.
    if (e.owner == msg.requester) {
        store_.write(msg.addr, msg.data);
        dram_.access(ctx_.now());
        e.owner = invalidNode;
    }

    Message ack;
    ack.type = MsgType::wbAck;
    ack.cls = MsgClass::nonData;
    ack.dstUnit = Unit::cache;
    ack.addr = msg.addr;
    ack.dest = msg.requester;
    ack.requester = msg.requester;
    sendAfter(ctx_.ctrlLatency, ack);
}

void
HomeSerializer::handleUnblock(const Message &msg)
{
    HomeEntry &e = entryFor(msg.addr);
    assert(e.busy && "unblock with no transaction in flight");
    assert(msg.requester == e.pendingRequester);
    if (msg.type == MsgType::unblockExclusive)
        e.owner = msg.requester;
    onUnblock(msg);
    e.busy = false;
    e.pendingRequester = invalidNode;
    serviceNext(msg.addr, e);
}

void
HomeSerializer::serviceNext(Addr ba, HomeEntry &e)
{
    auto it = waiters_.find(ba);
    if (it == waiters_.end())
        return;
    // start() adds no waiters, so the queue stays in place.
    SmallQueue<Message> &q = it->second;
    while (!e.busy && !q.empty()) {
        const Message next = q.front();
        q.pop_front();
        start(next, e);
    }
    if (q.empty())
        waiters_.erase(it);
}

} // namespace tokensim
