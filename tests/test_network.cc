/**
 * @file
 * Unit tests for the network timing model: latency math,
 * serialization, contention, multicast delivery, total ordering on
 * the tree, and traffic accounting.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "net/network.hh"
#include "sim/event_queue.hh"

namespace tokensim {
namespace {

/** Collects deliveries for inspection. */
class Sink : public NetworkEndpoint
{
  public:
    struct Rx
    {
        Message msg;
        Tick at;
    };

    explicit Sink(EventQueue &eq) : eq_(eq) {}

    void
    deliver(const Message &msg) override
    {
        received.push_back(Rx{msg, eq_.curTick()});
    }

    std::vector<Rx> received;

  private:
    EventQueue &eq_;
};

class NetworkTest : public ::testing::Test
{
  protected:
    void
    build(const std::string &topo, int nodes, NetworkParams params = {})
    {
        net = std::make_unique<Network>(
            eq, std::unique_ptr<Topology>(makeTopology(topo, nodes)),
            params);
        sinks.clear();
        for (int i = 0; i < nodes; ++i) {
            sinks.push_back(std::make_unique<Sink>(eq));
            net->attach(static_cast<NodeId>(i), sinks.back().get());
        }
    }

    Message
    ctrlMsg(NodeId src, NodeId dest)
    {
        Message m;
        m.type = MsgType::getS;
        m.cls = MsgClass::request;
        m.addr = 0x1000;
        m.src = src;
        m.dest = dest;
        return m;
    }

    EventQueue eq;
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<Sink>> sinks;
};

TEST_F(NetworkTest, SerializationMatchesTable1)
{
    build("torus", 16);
    // 8 bytes at 3.2 GB/s = 2.5 ns = 25 ticks; 72 bytes = 22.5 ns.
    EXPECT_EQ(net->serializationTicks(8), 25u);
    EXPECT_EQ(net->serializationTicks(72), 225u);
}

TEST_F(NetworkTest, UnicastLatencyOnTorus)
{
    build("torus", 16);
    net->unicast(ctrlMsg(0, 1));   // one hop
    eq.run();
    ASSERT_EQ(sinks[1]->received.size(), 1u);
    // 1 hop x 150 ticks latency + 25 ticks serialization.
    EXPECT_EQ(sinks[1]->received[0].at, 175u);
    EXPECT_EQ(sinks[1]->received[0].msg.size, 8u);
}

TEST_F(NetworkTest, UnicastLatencyOnTree)
{
    build("tree", 16);
    net->unicast(ctrlMsg(0, 15));
    eq.run();
    ASSERT_EQ(sinks[15]->received.size(), 1u);
    // 4 hops x 150 + 25 serialization.
    EXPECT_EQ(sinks[15]->received[0].at, 625u);
}

TEST_F(NetworkTest, DataMessagesAre72Bytes)
{
    build("torus", 16);
    Message m = ctrlMsg(0, 2);
    m.hasData = true;
    net->unicast(m);
    eq.run();
    ASSERT_EQ(sinks[2]->received.size(), 1u);
    EXPECT_EQ(sinks[2]->received[0].msg.size, 72u);
    // 2 hops x 150 + 225 ser.
    EXPECT_EQ(sinks[2]->received[0].at, 525u);
}

TEST_F(NetworkTest, SelfSendIsLocal)
{
    build("torus", 16);
    net->unicast(ctrlMsg(3, 3));
    eq.run();
    ASSERT_EQ(sinks[3]->received.size(), 1u);
    EXPECT_EQ(sinks[3]->received[0].at, net->params().localDelay);
    // Local messages consume no link bandwidth.
    EXPECT_EQ(net->traffic().totalByteLinks(), 0u);
}

TEST_F(NetworkTest, ContentionSerializesSharedLink)
{
    build("torus", 4);   // 2x2
    net->unicast(ctrlMsg(0, 1));
    net->unicast(ctrlMsg(0, 1));   // same link, same instant
    eq.run();
    ASSERT_EQ(sinks[1]->received.size(), 2u);
    EXPECT_EQ(sinks[1]->received[0].at, 175u);
    // Second message waits one serialization slot.
    EXPECT_EQ(sinks[1]->received[1].at, 200u);
}

TEST_F(NetworkTest, CutThroughReservesWholePathAtSend)
{
    // Cut-through semantics: the sender walks its route against the
    // per-link busy-until cursors when it enters the network. A
    // message sent FIRST holds its downstream reservation even
    // against a later-sent message whose head would have reached the
    // shared link earlier.
    build("torus", 16);
    net->unicast(ctrlMsg(0, 2));   // two X hops: 0->1, 1->2
    net->unicast(ctrlMsg(1, 2));   // one hop: 1->2, sent same tick
    eq.run();
    // First message: head crosses 0->1 at 150, clears 1->2 at 300,
    // tail at 325. Second message finds 1->2 reserved until 175...
    // but its natural start (tick 0) is BEFORE the reservation was
    // usable — the cursor pushes it to 175: head 325, tail 350.
    ASSERT_EQ(sinks[2]->received.size(), 2u);
    EXPECT_EQ(sinks[2]->received[0].at, 325u);
    EXPECT_EQ(sinks[2]->received[1].at, 350u);
}

TEST_F(NetworkTest, UnicastCostsOneDeliveryEventPerMessage)
{
    // The whole point of cut-through routing: a multi-hop unicast
    // schedules exactly one event (its batched delivery flush), not
    // one continuation per hop.
    build("torus", 16);
    const std::uint64_t before = eq.scheduled();
    net->unicast(ctrlMsg(0, 10));   // 4 hops on the 4x4 torus
    EXPECT_EQ(eq.scheduled() - before, 1u);
    eq.run();
    EXPECT_EQ(sinks[10]->received.size(), 1u);
}

TEST_F(NetworkTest, UnlimitedBandwidthRemovesSerialization)
{
    NetworkParams p;
    p.unlimitedBandwidth = true;
    build("torus", 4, p);
    net->unicast(ctrlMsg(0, 1));
    net->unicast(ctrlMsg(0, 1));
    eq.run();
    ASSERT_EQ(sinks[1]->received.size(), 2u);
    EXPECT_EQ(sinks[1]->received[0].at, 150u);
    EXPECT_EQ(sinks[1]->received[1].at, 150u);
}

TEST_F(NetworkTest, ResetRecomputesSerialization)
{
    build("torus", 16);
    NetworkParams p;
    p.bytesPerNs = 1.6;
    net->reset(p);
    // 8 bytes at 1.6 GB/s = 50 ticks; 72 bytes = 450 ticks.
    Tick t0 = eq.curTick();
    net->unicast(ctrlMsg(0, 1));
    eq.run();
    ASSERT_EQ(sinks[1]->received.size(), 1u);
    EXPECT_EQ(sinks[1]->received[0].at - t0, 150u + 50u);
    Message data = ctrlMsg(0, 2);
    data.hasData = true;
    t0 = eq.curTick();
    net->unicast(data);
    eq.run();
    ASSERT_EQ(sinks[2]->received.size(), 1u);
    EXPECT_EQ(sinks[2]->received[0].at - t0, 300u + 450u);

    p.unlimitedBandwidth = true;
    net->reset(p);
    t0 = eq.curTick();
    net->unicast(ctrlMsg(0, 1));
    eq.run();
    ASSERT_EQ(sinks[1]->received.size(), 2u);
    EXPECT_EQ(sinks[1]->received[1].at - t0, 150u);
}

TEST_F(NetworkTest, BroadcastReachesEveryoneIncludingSender)
{
    build("torus", 16);
    Message m = ctrlMsg(5, invalidNode);
    net->broadcast(m);
    eq.run();
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(sinks[static_cast<std::size_t>(i)]->received.size(),
                  1u)
            << "node " << i;
        EXPECT_TRUE(sinks[static_cast<std::size_t>(i)]
                        ->received[0].msg.isBroadcast);
    }
    // Sender sees its own copy locally, fast.
    EXPECT_EQ(sinks[5]->received[0].at, net->params().localDelay);
}

TEST_F(NetworkTest, BroadcastUsesSpanningTreeBandwidth)
{
    build("torus", 16);
    net->broadcast(ctrlMsg(0, invalidNode));
    eq.run();
    // 15 links x 8 bytes.
    EXPECT_EQ(net->traffic().totalByteLinks(), 15u * 8u);
}

TEST_F(NetworkTest, MulticastDeliversOnlyToDestinations)
{
    build("torus", 16);
    Message m = ctrlMsg(0, invalidNode);
    net->multicast(m, {1, 2, 9});
    eq.run();
    int total = 0;
    for (int i = 0; i < 16; ++i)
        total += static_cast<int>(
            sinks[static_cast<std::size_t>(i)]->received.size());
    EXPECT_EQ(total, 3);
    EXPECT_EQ(sinks[1]->received.size(), 1u);
    EXPECT_EQ(sinks[2]->received.size(), 1u);
    EXPECT_EQ(sinks[9]->received.size(), 1u);
}

TEST_F(NetworkTest, MulticastDedupesDestinations)
{
    build("torus", 16);
    net->multicast(ctrlMsg(0, invalidNode), {4, 4, 4});
    eq.run();
    EXPECT_EQ(sinks[4]->received.size(), 1u);
}

TEST_F(NetworkTest, OrderedBroadcastRequiresTree)
{
    build("torus", 16);
    EXPECT_THROW(net->broadcastOrdered(ctrlMsg(0, invalidNode)),
                 std::logic_error);
}

TEST_F(NetworkTest, OrderedBroadcastTotalOrder)
{
    build("tree", 16);
    // Two racing ordered broadcasts from opposite corners: every
    // node must observe them in the same (sequence) order.
    net->broadcastOrdered(ctrlMsg(0, invalidNode));
    net->broadcastOrdered(ctrlMsg(15, invalidNode));
    eq.run();
    std::vector<std::uint64_t> first_order;
    for (int i = 0; i < 16; ++i) {
        auto &rx = sinks[static_cast<std::size_t>(i)]->received;
        ASSERT_EQ(rx.size(), 2u) << "node " << i;
        std::vector<std::uint64_t> seqs{rx[0].msg.seq, rx[1].msg.seq};
        if (first_order.empty())
            first_order = seqs;
        EXPECT_EQ(seqs, first_order) << "node " << i;
        EXPECT_LT(rx[0].msg.seq, rx[1].msg.seq);
        EXPECT_LE(rx[0].at, rx[1].at);
    }
}

TEST_F(NetworkTest, OrderedBroadcastReachesSenderThroughRoot)
{
    build("tree", 16);
    net->broadcastOrdered(ctrlMsg(0, invalidNode));
    eq.run();
    ASSERT_EQ(sinks[0]->received.size(), 1u);
    // 4 link crossings, one store-and-forward at the ordering root
    // (it must receive the whole message before sequencing it), and
    // the tail at the endpoint: 600 + 25 + 25.
    EXPECT_EQ(sinks[0]->received[0].at, 4 * 150u + 25u + 25u);
}

TEST_F(NetworkTest, ManyOrderedBroadcastsStayOrderedUnderContention)
{
    build("tree", 8);
    for (int i = 0; i < 20; ++i)
        net->broadcastOrdered(
            ctrlMsg(static_cast<NodeId>(i % 8), invalidNode));
    eq.run();
    for (int n = 0; n < 8; ++n) {
        auto &rx = sinks[static_cast<std::size_t>(n)]->received;
        ASSERT_EQ(rx.size(), 20u);
        for (std::size_t i = 1; i < rx.size(); ++i)
            EXPECT_LT(rx[i - 1].msg.seq, rx[i].msg.seq);
    }
}

TEST_F(NetworkTest, OrderedBroadcastIsAtomicallyVisible)
{
    // Every node observes a given ordered broadcast at the same tick,
    // even when down-tree links are unevenly congested — the fan-out
    // is delivered at the latest per-link arrival. Traditional
    // snooping's sequential consistency depends on this: a requester
    // must not complete (via its own echo) while another node can
    // still read a stale copy it has not yet been told to invalidate.
    build("tree", 16);
    // Congest one out-leaf's links with data unicasts first.
    Message d = ctrlMsg(0, 15);
    d.hasData = true;
    d.cls = MsgClass::data;
    net->unicast(d);
    net->unicast(d);
    net->broadcastOrdered(ctrlMsg(3, invalidNode));
    eq.run();
    Tick seen = 0;
    for (int i = 0; i < 16; ++i) {
        auto &rx = sinks[static_cast<std::size_t>(i)]->received;
        ASSERT_FALSE(rx.empty()) << "node " << i;
        const Tick at = rx.back().at;   // the broadcast copy
        if (seen == 0)
            seen = at;
        EXPECT_EQ(at, seen) << "node " << i;
    }
}

TEST_F(NetworkTest, TrafficAccountingByClass)
{
    build("torus", 16);
    Message req = ctrlMsg(0, 4);
    net->unicast(req);
    Message data = ctrlMsg(4, 0);
    data.cls = MsgClass::data;
    data.hasData = true;
    net->unicast(data);
    eq.run();
    const TrafficStats &t = net->traffic();
    EXPECT_EQ(t.messagesOf(MsgClass::request), 1u);
    EXPECT_EQ(t.messagesOf(MsgClass::data), 1u);
    EXPECT_GT(t.byteLinksOf(MsgClass::data),
              t.byteLinksOf(MsgClass::request));
    EXPECT_EQ(t.deliveries, 2u);
}

TEST_F(NetworkTest, LatencyStatTracksDeliveries)
{
    build("torus", 16);
    net->unicast(ctrlMsg(0, 1));
    eq.run();
    EXPECT_EQ(net->traffic().latency.count(), 1u);
    EXPECT_DOUBLE_EQ(net->traffic().latency.mean(), 175.0);
}

} // namespace
} // namespace tokensim
