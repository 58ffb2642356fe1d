#include "proto/hammer/hammer.hh"

#include <cassert>

namespace tokensim {

// =====================================================================
// HammerCache
// =====================================================================

HammerCache::HammerCache(ProtoContext &ctx, NodeId id,
                         const ProtocolParams &params)
    : MosiCache(ctx, id, strformat("hammer.%u", id), params)
{
}

void
HammerCache::resetState(const ProtocolParams &params, std::uint64_t seed)
{
    MosiCache::resetState(params, seed);
    outstanding_.clear();
    wbBuffer_.clear();
}

void
HammerCache::issueMiss(const ProcRequest &req, Addr ba)
{
    assert(!outstanding_.count(ba) &&
           "sequencer must serialize same-block operations");
    outstanding_.emplace(ba, Transaction{req, ctx_.now()});
    const MsgType type =
        req.op == MemOp::store ? MsgType::getM : MsgType::getS;
    sendAfter(ctx_.ctrlLatency, toHome(type, MsgClass::request, ba));
}

void
HammerCache::handleMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::fwdGetS:
      case MsgType::fwdGetM:
        handleProbe(msg);
        break;
      case MsgType::data:
      case MsgType::dataExclusive:
      case MsgType::ack:
        handleResponse(msg);
        break;
      case MsgType::wbAck:
        wbBuffer_.erase(msg.addr);
        break;
      default:
        assert(false && "unexpected message at hammer cache");
    }
}

void
HammerCache::handleProbe(const Message &msg)
{
    if (msg.requester == id_)
        return;   // requesters do not probe themselves

    const Addr ba = msg.addr;
    const bool exclusive = msg.type == MsgType::fwdGetM;
    const NodeId req = msg.requester;

    // A line whose writeback is in flight answers from the buffer.
    auto wit = wbBuffer_.find(ba);
    if (wit != wbBuffer_.end()) {
        respondData(req, ba, wit->second, exclusive);
        return;
    }

    MosiLine *line = l2_.find(ba);
    if (!line || !ownsData(line->state)) {
        respondAck(req, ba);
        if (line && exclusive)
            drop(ba);
    } else if (exclusive || (line->state == MosiState::M &&
                             line->written && params_.migratoryOpt)) {
        // A GetM, or the migratory optimization on a GetS: pass
        // read/write permission.
        respondData(req, ba, line->data, true);
        drop(ba);
    } else {
        respondData(req, ba, line->data, false);
        line->state = MosiState::O;
    }
}

void
HammerCache::handleResponse(const Message &msg)
{
    const Addr ba = msg.addr;
    auto it = outstanding_.find(ba);
    assert(it != outstanding_.end() && "response with no transaction");
    Transaction &tr = it->second;

    if (msg.fromMemoryCtrl) {
        assert(!tr.memResponse && "duplicate memory response");
        tr.memResponse = true;
        tr.memData = msg.data;
        tr.cacheResponsesNeeded = msg.ackCount;
    } else {
        ++tr.cacheResponses;
        if (msg.hasData) {
            assert(!tr.haveOwnerData && "two caches supplied data");
            tr.haveOwnerData = true;
            tr.ownerData = msg.data;
            tr.ownerDataExclusive = msg.type == MsgType::dataExclusive;
        }
    }
    maybeComplete(ba);
}

void
HammerCache::maybeComplete(Addr addr)
{
    auto it = outstanding_.find(addr);
    if (it == outstanding_.end())
        return;
    Transaction &tr = it->second;
    if (!tr.memResponse || tr.cacheResponses < tr.cacheResponsesNeeded)
        return;
    assert(tr.cacheResponses == tr.cacheResponsesNeeded);

    const Transaction done = std::move(tr);
    outstanding_.erase(it);

    // Owner data beats the speculative memory read.
    const bool exclusive = done.req.op == MemOp::store ||
        (done.haveOwnerData && done.ownerDataExclusive);
    const MosiLine *line = fill(
        done.req, exclusive, done.haveOwnerData ? done.ownerData
                                                : done.memData);
    const MsgType unblock = exclusive ? MsgType::unblockExclusive
                                      : MsgType::unblock;
    sendAfter(ctx_.ctrlLatency, toHome(unblock, MsgClass::nonData, addr));
    completeMiss(done.req, done.issuedAt, line->data, done.haveOwnerData);
}

void
HammerCache::writeBack(Addr addr, std::uint64_t data)
{
    wbBuffer_[addr] = data;
    Message msg = toHome(MsgType::putM, MsgClass::data, addr);
    msg.hasData = true;
    msg.data = data;
    sendAfter(ctx_.ctrlLatency, msg);
}

void
HammerCache::respondAck(NodeId dest, Addr addr)
{
    Message msg;
    msg.type = MsgType::ack;
    msg.cls = MsgClass::nonData;
    msg.dstUnit = Unit::cache;
    msg.addr = addr;
    msg.dest = dest;
    msg.requester = dest;
    sendAfter(ctx_.ctrlLatency + ctx_.l2.latency, msg);
}

std::uint64_t
HammerCache::functionalMiss(const ProcRequest &req, Addr ba,
                            MosiLine *line, FunctionalEnv &env)
{
    auto *mem = static_cast<HammerMemory *>(env.memories[ctx_.home(ba)]);
    HomeEntry &e = mem->entryFor(ba);
    assert(!e.busy && mem->waiting(ba).empty() &&
           "fast-forward requires an idle home");

    // The owner record is settled before functionalFill(), whose victim
    // writeback may grow (and move) the home's entry table.
    if (req.op == MemOp::load) {
        // GetS probes every cache; the M/O owner supplies data (a
        // written migratory M owner hands over exclusively), else the
        // speculative memory read wins.
        for (CacheController *c : env.caches) {
            auto *hc = static_cast<HammerCache *>(c);
            MosiLine *ol = hc == this ? nullptr : hc->l2_.find(ba);
            if (!ol || !ownsData(ol->state))
                continue;
            const std::uint64_t value = ol->data;
            if (ol->state == MosiState::M && ol->written &&
                params_.migratoryOpt) {
                hc->drop(ba);
                e.owner = id_;   // exclusive unblock
                return functionalFill(ba, line, env, MosiState::M, false,
                                      value);
            }
            ol->state = MosiState::O;
            return functionalFill(ba, line, env, MosiState::S, false,
                                  value);
        }
        return functionalFill(ba, line, env, MosiState::S, false,
                              mem->peekData(ba));
    }

    // GetM probes drop every peer copy; we take exclusive ownership.
    for (CacheController *c : env.caches) {
        auto *hc = static_cast<HammerCache *>(c);
        if (hc != this && hc->l2_.contains(ba))
            hc->drop(ba);
    }
    e.owner = id_;   // exclusive unblock
    return functionalFill(ba, line, env, MosiState::M, true,
                          req.storeValue);
}

// =====================================================================
// HammerMemory
// =====================================================================

HammerMemory::HammerMemory(ProtoContext &ctx, NodeId id,
                           const ProtocolParams &params)
    : HomeSerializer(ctx, id, strformat("hammem.%u", id), params)
{
}

void
HammerMemory::processRequest(const Message &req, HomeEntry &)
{
    // Probe every node immediately — no directory lookup gates it.
    Message probe;
    probe.type = req.type == MsgType::getM ? MsgType::fwdGetM
                                           : MsgType::fwdGetS;
    probe.cls = MsgClass::request;
    probe.dstUnit = Unit::cache;
    probe.addr = req.addr;
    probe.requester = req.requester;
    broadcastAfter(ctx_.ctrlLatency, probe);

    // The speculative memory read proceeds in parallel. Its response
    // also tells the requester how many cache responses to expect.
    sendMemoryData(req, req.type == MsgType::getM, ctx_.numNodes - 1);
}

} // namespace tokensim
