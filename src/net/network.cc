#include "net/network.hh"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "sim/log.hh"

namespace tokensim {

Network::Network(EventQueue &eq, std::unique_ptr<Topology> topo,
                 NetworkParams params)
    : eq_(eq), topo_(std::move(topo)), params_(params)
{
    endpoints_.assign(static_cast<std::size_t>(topo_->numNodes()),
                      nullptr);
    linkFree_.assign(topo_->links().size(), 0);
    deliveryRing_.resize(deliveryRingSize);
    bcastIndex_.resize(static_cast<std::size_t>(topo_->numNodes()));
    cacheSerialization();
}

void
Network::attach(NodeId id, NetworkEndpoint *ep)
{
    assert(id < endpoints_.size());
    endpoints_[id] = ep;
}

void
Network::reset(const NetworkParams &params)
{
    params_ = params;
    cacheSerialization();
    std::fill(linkFree_.begin(), linkFree_.end(), 0);
    stats_.clear();
    orderSeq_ = 0;
    // A drained system has no pending deliveries or live slots; clear
    // defensively (capacity is retained either way). Tree caches stay:
    // they depend only on the topology.
    for (auto &b : deliveryRing_)
        b.clear();
    farDeliveries_.clear();
    // Recycle all pool chunks: nothing is in flight in a drained
    // system, so simply rewind the allocation cursor.
    slotCount_ = 0;
    freeHead_ = noSlot;
}

Tick
Network::serializationTicks(std::uint32_t bytes) const
{
    if (params_.unlimitedBandwidth)
        return 0;
    return static_cast<Tick>(std::ceil(
        static_cast<double>(bytes) * static_cast<double>(ticksPerNs) /
        params_.bytesPerNs));
}

void
Network::cacheSerialization()
{
    ctrlSer_ = serializationTicks(params_.ctrlBytes);
    dataSer_ = serializationTicks(params_.dataBytes);
}

void
Network::finalize(Message &msg)
{
    msg.size = msg.hasData ? params_.dataBytes : params_.ctrlBytes;
    msg.sentAt = eq_.curTick();
}

void
Network::account(const Message &msg, std::size_t nlinks)
{
    auto &cls = stats_.byClass[static_cast<std::size_t>(msg.cls)];
    ++cls.messages;
    cls.byteLinks += static_cast<std::uint64_t>(msg.size) * nlinks;
    ++stats_.messagesByType[static_cast<std::size_t>(msg.type)];
}

std::uint32_t
Network::acquireSlot(const Message &m)
{
    std::uint32_t s;
    if (freeHead_ != noSlot) {
        s = freeHead_;
        freeHead_ = slotRef(s).nextFree;
    } else {
        s = slotCount_++;
        if ((s >> slotChunkBits) >= slotChunks_.size()) {
            slotChunks_.push_back(
                std::make_unique<TransitSlot[]>(slotChunkSize));
        }
    }
    TransitSlot &slot = slotRef(s);
    slot.msg = m;
    slot.refs = 1;
    return s;
}

void
Network::scheduleDelivery(NodeId dest, std::uint32_t slot, Tick when)
{
    assert(endpoints_[dest] &&
           "message sent to node with no attached endpoint");
    slotAddRef(slot);
    std::vector<Delivery> *batch;
    if (when - eq_.curTick() < deliveryRingSize) {
        batch = &deliveryRing_[when & deliveryRingMask];
    } else {
        batch = &farDeliveries_[when];
    }
    if (batch->empty()) {
        // First delivery landing on this tick: adopt a retired batch
        // vector (keeps its capacity) and schedule the single flush
        // event for this tick.
        if (!batchPool_.empty()) {
            *batch = std::move(batchPool_.back());
            batchPool_.pop_back();
        }
        eq_.schedule(when, [this, when]() { flushDeliveries(when); });
    }
    batch->emplace_back(dest, slot);
}

void
Network::flushDeliveries(Tick when)
{
    // Move the whole batch out: a handler may send a message whose
    // delivery lands on this same tick, which opens a fresh batch (and
    // its own flush event) without disturbing this iteration.
    std::vector<Delivery> batch;
    // Far-map batches flush before any same-tick ring batch: every
    // far entry for this tick was scheduled while the tick was still
    // beyond the ring horizon, i.e. strictly before any ring entry,
    // and its flush event was likewise scheduled first — so checking
    // the far map first preserves exact per-tick scheduling order.
    auto far = farDeliveries_.find(when);
    if (far != farDeliveries_.end()) {
        batch = std::move(far->second);
        farDeliveries_.erase(far);
    } else {
        batch.swap(deliveryRing_[when & deliveryRingMask]);
    }
    assert(!batch.empty());
    for (const Delivery &d : batch) {
        ++stats_.deliveries;
        // Deliver straight out of the pool: the deque keeps the slot
        // address stable even if the handler's own sends grow it, and
        // our reference keeps the slot alive until after deliver().
        Message &msg = slotRef(d.slot).msg;
        msg.dest = d.dest;
        stats_.latency.add(
            static_cast<double>(eq_.curTick() - msg.sentAt));
        if (logging::enabled(logging::Level::trace)) {
            logging::write(logging::Level::trace, eq_.curTick(), "net",
                           "deliver " + msg.toString());
        }
        endpoints_[d.dest]->deliver(msg);
        slotRelease(d.slot);
    }
    batch.clear();
    batchPool_.push_back(std::move(batch));
}

Tick
Network::crossLink(LinkId link, Tick ser)
{
    const Tick start = std::max(eq_.curTick(), linkFree_[link]);
    if (!params_.unlimitedBandwidth)
        linkFree_[link] = start + ser;
    return start + params_.linkLatency;
}

// ---------------------------------------------------------------------
// Unicast (cut-through: reserve the whole path at send time)
// ---------------------------------------------------------------------

Tick
Network::reservePath(const std::vector<LinkId> &path, Tick ser)
{
    Tick t = eq_.curTick();
    for (LinkId link : path) {
        const Tick start = std::max(t, linkFree_[link]);
        if (!params_.unlimitedBandwidth)
            linkFree_[link] = start + ser;
        t = start + params_.linkLatency;
    }
    return t;
}

void
Network::unicast(Message msg)
{
    finalize(msg);
    assert(msg.dest != invalidNode);
    if (msg.dest == msg.src) {
        account(msg, 0);
        const std::uint32_t slot = acquireSlot(msg);
        scheduleDelivery(msg.dest, slot,
                         eq_.curTick() + params_.localDelay);
        slotRelease(slot);
        return;
    }
    const auto &path = topo_->route(msg.src, msg.dest);
    account(msg, path.size());
    // One path walk, one delivery event: the tail arrives one
    // serialization delay after the head clears the last link.
    const Tick ser = serTicks(msg.size);
    const Tick head = reservePath(path, ser);
    const std::uint32_t slot = acquireSlot(msg);
    scheduleDelivery(msg.dest, slot, head + ser);
    slotRelease(slot);
}

// ---------------------------------------------------------------------
// Tree forwarding (broadcast / multicast)
// ---------------------------------------------------------------------

Network::TreeIndex
Network::buildTreeIndex(std::vector<TreeEdge> edges, int src_vertex)
{
    TreeIndex idx;
    idx.edges = std::move(edges);
    idx.children.resize(idx.edges.size());
    std::unordered_map<int, int> edge_to;   // vertex -> edge reaching it
    for (std::size_t i = 0; i < idx.edges.size(); ++i)
        edge_to[idx.edges[i].to] = static_cast<int>(i);
    for (std::size_t i = 0; i < idx.edges.size(); ++i) {
        const TreeEdge &e = idx.edges[i];
        if (e.from == src_vertex) {
            idx.rootEdges.push_back(static_cast<int>(i));
        } else {
            auto it = edge_to.find(e.from);
            assert(it != edge_to.end() &&
                   "tree edge with unreachable parent");
            idx.children[static_cast<std::size_t>(it->second)]
                .push_back(static_cast<int>(i));
        }
    }
    return idx;
}

const Network::TreeIndex &
Network::broadcastIndex(NodeId src)
{
    auto &slot = bcastIndex_[src];
    if (!slot) {
        slot = std::make_unique<const TreeIndex>(buildTreeIndex(
            topo_->broadcastTree(src), static_cast<int>(src)));
    }
    return *slot;
}

const Network::TreeIndex &
Network::downIndex()
{
    if (!downIndex_) {
        downIndex_ = std::make_unique<const TreeIndex>(
            buildTreeIndex(topo_->downTree(), topo_->rootVertex()));
    }
    return *downIndex_;
}

void
Network::transmitEdge(const TreeIndex *idx, int ei, std::uint32_t slot,
                      const std::shared_ptr<const MulticastState> &mc)
{
    const TreeEdge &e = idx->edges[static_cast<std::size_t>(ei)];
    const Tick ser = serTicks(slotRef(slot).msg.size);
    const Tick head = crossLink(e.link, ser);

    const int num_nodes = topo_->numNodes();
    if (e.to < num_nodes &&
        (!mc || mc->want[static_cast<std::size_t>(e.to)])) {
        scheduleDelivery(static_cast<NodeId>(e.to), slot, head + ser);
    }
    if (!idx->children[static_cast<std::size_t>(ei)].empty()) {
        // The fan-out event inherits this call's slot reference.
        eq_.schedule(head, [this, idx, ei, slot, mc]() {
            const auto &kids =
                idx->children[static_cast<std::size_t>(ei)];
            for (int ci : kids) {
                slotAddRef(slot);
                transmitEdge(idx, ci, slot, mc);
            }
            slotRelease(slot);
        });
    } else {
        slotRelease(slot);
    }
}

void
Network::launchTree(const TreeIndex *idx, std::uint32_t slot,
                    const std::shared_ptr<const MulticastState> &mc)
{
    for (int ei : idx->rootEdges) {
        slotAddRef(slot);
        transmitEdge(idx, ei, slot, mc);
    }
    slotRelease(slot);
}

void
Network::multicast(Message msg, const std::vector<NodeId> &dests)
{
    finalize(msg);
    msg.isBroadcast = true;
    auto state = std::make_shared<MulticastState>();
    state->want.assign(static_cast<std::size_t>(topo_->numNodes()),
                       false);
    bool self = false;
    std::vector<NodeId> remote;
    remote.reserve(dests.size());
    for (NodeId d : dests) {
        if (d == msg.src) {
            self = true;
        } else if (!state->want[d]) {
            state->want[d] = true;
            remote.push_back(d);
        }
    }
    const std::uint32_t slot = acquireSlot(msg);
    if (!remote.empty()) {
        state->idx = buildTreeIndex(
            topo_->multicastTree(msg.src, remote),
            static_cast<int>(msg.src));
        account(msg, state->idx.edges.size());
        slotAddRef(slot);
        const TreeIndex *idx = &state->idx;
        launchTree(idx, slot, std::move(state));
    } else {
        account(msg, 0);
    }
    if (self) {
        scheduleDelivery(msg.src, slot,
                         eq_.curTick() + params_.localDelay);
    }
    slotRelease(slot);
}

void
Network::broadcast(Message msg)
{
    finalize(msg);
    msg.isBroadcast = true;
    const TreeIndex &idx = broadcastIndex(msg.src);
    account(msg, idx.edges.size());
    const std::uint32_t slot = acquireSlot(msg);
    slotAddRef(slot);
    launchTree(&idx, slot, nullptr);
    // The sender's own node (cache controller and, if it is the home,
    // memory controller) observes the broadcast locally.
    scheduleDelivery(msg.src, slot, eq_.curTick() + params_.localDelay);
    slotRelease(slot);
}

// ---------------------------------------------------------------------
// Totally-ordered broadcast
// ---------------------------------------------------------------------

void
Network::broadcastOrdered(Message msg)
{
    if (!topo_->totallyOrdered()) {
        throw std::logic_error(
            "broadcastOrdered requires a totally-ordered topology (" +
            topo_->name() + " provides none)");
    }
    finalize(msg);
    msg.isBroadcast = true;

    const auto &up = topo_->routeToRoot(msg.src);
    account(msg, up.size());

    // Phase 1: reserve the climb to the root in one cut-through walk.
    // The root receives the full message (head + serialization)
    // before ordering it, so the sequencing event lands one
    // serialization delay after the head clears the last up-link.
    const std::uint32_t slot = acquireSlot(msg);
    if (up.empty()) {
        sequenceAndFanOut(slot);
        return;
    }
    const Tick ser = serTicks(msg.size);
    const Tick at_root = reservePath(up, ser) + ser;
    eq_.schedule(at_root, [this, slot]() { sequenceAndFanOut(slot); });
}

void
Network::sequenceAndFanOut(std::uint32_t slot)
{
    // Phase 2: take the next slot in the global total order and fan
    // out to every node — including the sender. Root-arrival events
    // execute in tick order (FIFO within a tick), which is what
    // serializes racing broadcasts. The climb owns the transit slot
    // exclusively, so the sequence number is stamped in place.
    Message &ordered = slotRef(slot).msg;
    ordered.seq = orderSeq_++;
    const TreeIndex &idx = downIndex();
    auto &cls = stats_.byClass[static_cast<std::size_t>(ordered.cls)];
    cls.byteLinks +=
        static_cast<std::uint64_t>(ordered.size) * idx.edges.size();

    // Cut-through walk of the whole down tree: reserve every edge
    // (the recurrence is identical to forwarding it edge by edge —
    // tree edges are distinct links, so forward order is the only
    // dependency), then deliver to EVERY node at the latest arrival.
    //
    // Delivering all copies at one tick makes an ordered broadcast
    // atomically visible: the requester's own echo — which is what
    // completes its transaction — can never land before another
    // node's invalidation of the same broadcast. Traditional snooping
    // is built on that property (a store that "performed" while a
    // stale copy was still readable elsewhere violates sequential
    // consistency), and real totally-ordered trees engineer their
    // down paths to provide it. Skewed per-copy delivery only ever
    // worked by accident of per-hop event timing; cut-through
    // reservation made the skew wide enough to expose the race
    // (tests/test_random_coherence.cc soaks catch it immediately).
    // Per-link serialization and occupancy are still charged exactly
    // as before — only the visibility instant is aligned.
    const Tick ser = serTicks(ordered.size);
    const int num_nodes = topo_->numNodes();
    headScratch_.resize(
        static_cast<std::size_t>(topo_->numVertices()));
    headScratch_[static_cast<std::size_t>(topo_->rootVertex())] =
        eq_.curTick();
    Tick latest = 0;
    for (const TreeEdge &e : idx.edges) {
        const Tick at = headScratch_[static_cast<std::size_t>(e.from)];
        const Tick start = std::max(at, linkFree_[e.link]);
        if (!params_.unlimitedBandwidth)
            linkFree_[e.link] = start + ser;
        const Tick head = start + params_.linkLatency;
        headScratch_[static_cast<std::size_t>(e.to)] = head;
        if (e.to < num_nodes)
            latest = std::max(latest, head + ser);
    }
    for (const TreeEdge &e : idx.edges) {
        if (e.to < num_nodes)
            scheduleDelivery(static_cast<NodeId>(e.to), slot, latest);
    }
    slotRelease(slot);
}

} // namespace tokensim
