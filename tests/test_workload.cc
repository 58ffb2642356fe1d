/**
 * @file
 * Unit tests for the workload generators: Zipf sampling, preset
 * sanity, migratory pairing, producer-consumer roles, transaction
 * cadence, and determinism.
 */

#include <gtest/gtest.h>

#include <map>

#include "workload/commercial.hh"
#include "workload/tpcc.hh"
#include "workload/workload.hh"
#include "workload/ycsb.hh"

namespace tokensim {
namespace {

TEST(Zipf, UniformWhenThetaZero)
{
    ZipfSampler z(10, 0.0);
    Rng rng(1);
    std::vector<int> hits(10, 0);
    for (int i = 0; i < 20000; ++i)
        ++hits[z.sample(rng)];
    for (int h : hits) {
        EXPECT_GT(h, 1600);
        EXPECT_LT(h, 2400);
    }
}

TEST(Zipf, SkewsTowardLowIndices)
{
    ZipfSampler z(1000, 0.9);
    Rng rng(2);
    int first_decile = 0;
    const int samples = 20000;
    for (int i = 0; i < samples; ++i)
        first_decile += z.sample(rng) < 100;
    // With theta=0.9, far more than 10% of probability mass is in
    // the first 10% of items.
    EXPECT_GT(first_decile, samples / 3);
}

TEST(Zipf, AliasTableMatchesClosedFormWeights)
{
    // Frequency / chi-squared goodness-of-fit of the O(1) alias-table
    // sampler against the closed-form Zipf pmf it was built from.
    const std::size_t n = 64;
    const double theta = 0.8;
    ZipfSampler z(n, theta);

    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_GT(z.weight(k), 0.0);
        if (k > 0) {
            EXPECT_LT(z.weight(k), z.weight(k - 1));
        }
        total += z.weight(k);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);

    Rng rng(7);
    const int samples = 200000;
    std::vector<int> obs(n, 0);
    for (int i = 0; i < samples; ++i)
        ++obs[z.sample(rng)];

    double chi2 = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        const double expected = samples * z.weight(k);
        const double d = obs[k] - expected;
        chi2 += d * d / expected;
    }
    // 63 degrees of freedom; the p = 0.001 critical value is ~103.4.
    // The RNG is deterministic, so this is a regression bound, not a
    // flaky statistical test.
    EXPECT_LT(chi2, 103.4);
}

TEST(Zipf, StaysInRange)
{
    ZipfSampler z(7, 0.5);
    Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(z.sample(rng), 7u);
}

TEST(CommercialParams, PresetFractionsSumToOne)
{
    for (const char *name : {"oltp", "apache", "specjbb"}) {
        const CommercialParams p = CommercialParams::preset(name);
        EXPECT_NEAR(p.fracPrivateHot + p.fracPrivateCold +
                        p.fracSharedRead + p.fracMigratory +
                        p.fracProdCons,
                    1.0, 1e-9)
            << name;
    }
    EXPECT_THROW(CommercialParams::preset("tpc-h"),
                 std::invalid_argument);
}

TEST(CommercialParams, OltpIsMostMigratory)
{
    // OLTP's lock-dominated behavior is the paper's motivating
    // pattern; the preset must reflect it.
    EXPECT_GT(CommercialParams::oltp().fracMigratory,
              CommercialParams::apache().fracMigratory);
    EXPECT_GT(CommercialParams::oltp().fracMigratory,
              CommercialParams::specjbb().fracMigratory);
    // SPECjbb shares least.
    EXPECT_GT(CommercialParams::specjbb().fracPrivateHot,
              CommercialParams::oltp().fracPrivateHot);
}

TEST(CommercialWorkload, MigratorySectionsPairLoadAndStore)
{
    AddressMap map;
    CommercialParams p = CommercialParams::oltp();
    CommercialWorkload w(0, 4, map, p, 42);
    const Addr mig_base = map.migratoryBase(4);
    const Addr mig_end = mig_base + map.migratoryBlocks * 64;
    int pairs = 0;
    WorkloadOp prev{};
    bool have_prev = false;
    for (int i = 0; i < 20000; ++i) {
        const WorkloadOp op = w.next();
        if (have_prev && prev.op == MemOp::load &&
            prev.addr >= mig_base && prev.addr < mig_end) {
            // A migratory load is immediately followed by a store to
            // the same address (the lock/counter RMW pattern).
            EXPECT_EQ(op.op, MemOp::store);
            EXPECT_EQ(op.addr, prev.addr);
            ++pairs;
        }
        prev = op;
        have_prev = true;
    }
    EXPECT_GT(pairs, 1000);   // OLTP is migratory-heavy
}

TEST(CommercialWorkload, ProducerConsumerRolesAreStatic)
{
    AddressMap map;
    CommercialParams p = CommercialParams::apache();
    const Addr pc_base = map.prodConsBase(4);
    const Addr pc_end = pc_base + map.prodConsBlocks * 64;

    // Collect per-address op kinds from two different nodes; an
    // address written by node A must never be written by node B.
    std::map<Addr, int> writer_count;
    for (NodeId node = 0; node < 4; ++node) {
        CommercialWorkload w(node, 4, map, p, 100 + node);
        std::map<Addr, bool> wrote;
        for (int i = 0; i < 30000; ++i) {
            const WorkloadOp op = w.next();
            if (op.addr >= pc_base && op.addr < pc_end &&
                op.op == MemOp::store && !wrote[op.addr]) {
                wrote[op.addr] = true;
                ++writer_count[op.addr];
            }
        }
    }
    for (const auto &[addr, writers] : writer_count)
        EXPECT_EQ(writers, 1) << std::hex << addr;
}

TEST(CommercialWorkload, PrivateAccessesStayInOwnRegion)
{
    AddressMap map;
    CommercialParams p = CommercialParams::specjbb();
    CommercialWorkload w(2, 4, map, p, 7);
    const Addr own_base = map.privateBase(2);
    const Addr own_end = own_base + map.privateBlocksPerNode * 64;
    const Addr shared_start = map.sharedBase(4);
    for (int i = 0; i < 10000; ++i) {
        const WorkloadOp op = w.next();
        const bool in_own = op.addr >= own_base && op.addr < own_end;
        const bool in_shared = op.addr >= shared_start;
        EXPECT_TRUE(in_own || in_shared)
            << "op touched another node's private region: "
            << std::hex << op.addr;
    }
}

TEST(CommercialWorkload, TransactionCadence)
{
    AddressMap map;
    CommercialParams p = CommercialParams::oltp();
    p.opsPerTransaction = 10;
    CommercialWorkload w(0, 4, map, p, 5);
    int count = 0;
    int transactions = 0;
    for (int i = 0; i < 1000; ++i) {
        ++count;
        if (w.next().endsTransaction) {
            EXPECT_EQ(count % 10, 0);
            ++transactions;
        }
    }
    EXPECT_EQ(transactions, 100);
}

TEST(CommercialWorkload, DeterministicPerSeed)
{
    AddressMap map;
    CommercialParams p = CommercialParams::apache();
    CommercialWorkload a(1, 4, map, p, 99);
    CommercialWorkload b(1, 4, map, p, 99);
    for (int i = 0; i < 1000; ++i) {
        const WorkloadOp x = a.next();
        const WorkloadOp y = b.next();
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.op, y.op);
    }
}

TEST(MicroWorkloads, UniformSharedHitsWholeRange)
{
    UniformSharedWorkload w(16, 0.5, 64, 3);
    std::set<Addr> seen;
    int stores = 0;
    for (int i = 0; i < 4000; ++i) {
        const WorkloadOp op = w.next();
        seen.insert(op.addr);
        stores += op.op == MemOp::store;
    }
    EXPECT_EQ(seen.size(), 16u);
    EXPECT_NEAR(stores / 4000.0, 0.5, 0.05);
}

TEST(MicroWorkloads, HotBlockAlwaysSameAddress)
{
    HotBlockWorkload w(0x1000, 1.0, 4);
    for (int i = 0; i < 100; ++i) {
        const WorkloadOp op = w.next();
        EXPECT_EQ(op.addr, 0x1000u);
        EXPECT_EQ(op.op, MemOp::store);
    }
}

TEST(ProducerConsumerPreset, RolesAreStaticAndDisjoint)
{
    AddressMap map;
    const Addr base = map.prodConsBase(4);
    const Addr end = base + map.prodConsBlocks * 64;
    // Any block one node stores to must never be stored by another,
    // and every access stays inside the producer-consumer region.
    std::map<Addr, int> writers;
    for (NodeId node = 0; node < 4; ++node) {
        ProducerConsumerWorkload w(node, 4, map, 64, 10 + node);
        std::map<Addr, bool> wrote;
        int stores = 0;
        for (int i = 0; i < 5000; ++i) {
            const WorkloadOp op = w.next();
            ASSERT_GE(op.addr, base);
            ASSERT_LT(op.addr, end);
            if (op.op == MemOp::store) {
                ++stores;
                if (!wrote[op.addr]) {
                    wrote[op.addr] = true;
                    ++writers[op.addr];
                }
            }
        }
        // With 64 blocks over 4 nodes each node produces ~1/4.
        EXPECT_GT(stores, 5000 / 8);
        EXPECT_LT(stores, 5000 / 2);
    }
    for (const auto &[addr, count] : writers)
        EXPECT_EQ(count, 1) << std::hex << addr;
}

TEST(LockPingPreset, AcquireSectionReleaseShape)
{
    AddressMap map;
    const Addr lock_base = map.migratoryBase(4);
    const Addr lock_end = lock_base + map.migratoryBlocks * 64;
    const int section_ops = 3;
    LockPingWorkload w(1, 4, map, 4, section_ops, 77);

    for (int iter = 0; iter < 500; ++iter) {
        // Acquire: load then store the same lock block.
        const WorkloadOp acq_load = w.next();
        ASSERT_EQ(acq_load.op, MemOp::load);
        ASSERT_GE(acq_load.addr, lock_base);
        ASSERT_LT(acq_load.addr, lock_end);
        ASSERT_FALSE(acq_load.endsTransaction);
        const WorkloadOp acq_store = w.next();
        ASSERT_EQ(acq_store.op, MemOp::store);
        ASSERT_EQ(acq_store.addr, acq_load.addr);

        // Critical section: private accesses only.
        for (int i = 0; i < section_ops; ++i) {
            const WorkloadOp op = w.next();
            ASSERT_GE(op.addr, map.privateBase(1));
            ASSERT_LT(op.addr, map.privateBase(2));
            ASSERT_FALSE(op.endsTransaction);
        }

        // Release: a store to the held lock ends the transaction.
        const WorkloadOp rel = w.next();
        ASSERT_EQ(rel.op, MemOp::store);
        ASSERT_EQ(rel.addr, acq_load.addr);
        ASSERT_TRUE(rel.endsTransaction);
    }
}

TEST(LockPingPreset, ContendersShareTheLockSet)
{
    // Every node must draw locks from the same small set — that is
    // what makes the lines ping-pong.
    AddressMap map;
    std::set<Addr> locks_seen[2];
    for (int n = 0; n < 2; ++n) {
        LockPingWorkload w(static_cast<NodeId>(n), 4, map, 2, 1, n);
        for (int i = 0; i < 400; ++i) {
            const WorkloadOp op = w.next();
            if (op.addr >= map.migratoryBase(4))
                locks_seen[n].insert(op.addr);
        }
    }
    EXPECT_EQ(locks_seen[0].size(), 2u);
    EXPECT_EQ(locks_seen[0], locks_seen[1]);
}

TEST(MicroWorkloads, PrivateRegionsDisjointAcrossNodes)
{
    AddressMap map;
    PrivateWorkload w0(0, map, 1024, 0.3, 1);
    PrivateWorkload w1(1, map, 1024, 0.3, 2);
    std::set<Addr> a0, a1;
    for (int i = 0; i < 2000; ++i) {
        a0.insert(w0.next().addr);
        a1.insert(w1.next().addr);
    }
    for (Addr a : a0)
        EXPECT_FALSE(a1.count(a));
}

TEST(YcsbPreset, AddressesStayInTable)
{
    AddressMap map;
    YcsbParams p;
    p.records = 4096;
    YcsbWorkload w(2, 8, map, p, 7);
    const Addr base = map.tableBase(8);
    const Addr limit = base + p.records * map.blockBytes;
    for (int i = 0; i < 5000; ++i) {
        const Addr a = w.next().addr;
        EXPECT_GE(a, base);
        EXPECT_LT(a, limit);
        EXPECT_EQ((a - base) % map.blockBytes, 0u);
    }
}

TEST(YcsbPreset, MixMatchesFractions)
{
    // Walk transaction by transaction and classify: a lone load is a
    // read, a load+store pair to one record is an update, a run of
    // scanLen loads is a scan.
    AddressMap map;
    YcsbParams p;
    p.records = 1 << 14;
    p.readFraction = 0.6;
    p.updateFraction = 0.3;
    p.scanLen = 4;
    YcsbWorkload w(0, 4, map, p, 11);
    int reads = 0, updates = 0, scans = 0;
    const int txns = 20000;
    for (int t = 0; t < txns; ++t) {
        std::vector<WorkloadOp> ops;
        do {
            ops.push_back(w.next());
        } while (!ops.back().endsTransaction);
        if (ops.size() == 1 && ops[0].op == MemOp::load) {
            ++reads;
        } else if (ops.size() == 2 && ops[0].op == MemOp::load &&
                   ops[1].op == MemOp::store &&
                   ops[0].addr == ops[1].addr) {
            ++updates;
        } else {
            ++scans;
            EXPECT_EQ(ops.size(),
                      static_cast<std::size_t>(p.scanLen));
            for (std::size_t i = 0; i < ops.size(); ++i) {
                EXPECT_EQ(ops[i].op, MemOp::load);
                if (i > 0) {
                    // Sequential records, wrapping mod the table.
                    const Addr base = map.tableBase(4);
                    const std::uint64_t prev =
                        (ops[i - 1].addr - base) / map.blockBytes;
                    const std::uint64_t cur =
                        (ops[i].addr - base) / map.blockBytes;
                    EXPECT_EQ(cur, (prev + 1) % p.records);
                }
            }
        }
    }
    EXPECT_NEAR(reads / double(txns), 0.6, 0.02);
    EXPECT_NEAR(updates / double(txns), 0.3, 0.02);
    EXPECT_NEAR(scans / double(txns), 0.1, 0.02);
}

TEST(YcsbPreset, ScrambleScattersHotKeysAcrossTable)
{
    // The Zipf-hot low ranks must not cluster at the table's start:
    // scrambled positions of ranks 0..63 should spread over the full
    // record range.
    const std::uint64_t n = 1 << 16;
    std::set<std::uint64_t> positions;
    std::uint64_t above_half = 0;
    for (std::uint64_t rank = 0; rank < 64; ++rank) {
        const std::uint64_t k = YcsbWorkload::scramble(rank, n);
        EXPECT_LT(k, n);
        positions.insert(k);
        above_half += k >= n / 2;
    }
    EXPECT_GE(positions.size(), 60u);   // essentially no collisions
    EXPECT_GT(above_half, 16u);         // not clustered low
    EXPECT_LT(above_half, 48u);         // not clustered high
}

TEST(YcsbPreset, DeterministicPerSeed)
{
    AddressMap map;
    YcsbParams p;
    YcsbWorkload a(1, 4, map, p, 99);
    YcsbWorkload b(1, 4, map, p, 99);
    for (int i = 0; i < 2000; ++i) {
        const WorkloadOp x = a.next();
        const WorkloadOp y = b.next();
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.op, y.op);
        EXPECT_EQ(x.endsTransaction, y.endsTransaction);
    }
}

TEST(TpccPreset, TransactionShape)
{
    AddressMap map;
    TpccParams p;
    p.opsPerTxn = 6;
    p.thinkOps = 3;
    const int num_nodes = 4;
    TpccWorkload w(1, num_nodes, map, p, 13);
    const Addr table = map.tableBase(num_nodes);
    const Addr priv = map.privateBase(1);
    for (int t = 0; t < 200; ++t) {
        // Header RMW pair: load + store of some warehouse's block 0.
        const WorkloadOp h0 = w.next();
        const WorkloadOp h1 = w.next();
        EXPECT_EQ(h0.op, MemOp::load);
        EXPECT_EQ(h1.op, MemOp::store);
        EXPECT_EQ(h0.addr, h1.addr);
        EXPECT_GE(h0.addr, table);
        const std::uint64_t slab_bytes =
            TpccWorkload::kSlabBlocks * map.blockBytes;
        EXPECT_EQ((h0.addr - table) % slab_bytes, 0u);
        const std::uint64_t warehouse = (h0.addr - table) / slab_bytes;

        // opsPerTxn record accesses inside that warehouse's slab; the
        // last one ends the transaction.
        for (int i = 0; i < p.opsPerTxn; ++i) {
            const WorkloadOp r = w.next();
            EXPECT_EQ((r.addr - table) / slab_bytes, warehouse);
            EXPECT_NE((r.addr - table) % slab_bytes, 0u);
            EXPECT_EQ(r.endsTransaction, i == p.opsPerTxn - 1);
        }

        // thinkOps private accesses.
        for (int i = 0; i < p.thinkOps; ++i) {
            const WorkloadOp th = w.next();
            EXPECT_GE(th.addr, priv);
            EXPECT_LT(th.addr, map.privateBase(2));
            EXPECT_FALSE(th.endsTransaction);
        }
    }
}

TEST(TpccPreset, WarehouseLocalityMatchesHomeFraction)
{
    AddressMap map;
    TpccParams p;
    p.homeFraction = 0.85;
    p.thinkOps = 0;
    const int num_nodes = 8;
    TpccWorkload w(3, num_nodes, map, p, 17);
    EXPECT_EQ(w.homeWarehouse(), 3u);
    const Addr table = map.tableBase(num_nodes);
    const std::uint64_t slab_bytes =
        TpccWorkload::kSlabBlocks * map.blockBytes;
    int home = 0;
    const int txns = 20000;
    for (int t = 0; t < txns; ++t) {
        const std::uint64_t warehouse =
            (w.next().addr - table) / slab_bytes;
        EXPECT_LT(warehouse, static_cast<std::uint64_t>(num_nodes));
        home += warehouse == w.homeWarehouse();
        // Drain the rest of the transaction.
        while (!w.next().endsTransaction) {}
    }
    // P(home) = homeFraction + (1 - homeFraction)/warehouses.
    EXPECT_NEAR(home / double(txns), 0.85 + 0.15 / 8, 0.02);
}

TEST(TpccPreset, ZeroWarehousesMeansOnePerNode)
{
    AddressMap map;
    TpccParams p;   // warehouses = 0
    const int num_nodes = 6;
    std::set<std::uint64_t> homes;
    for (int n = 0; n < num_nodes; ++n) {
        TpccWorkload w(static_cast<NodeId>(n), num_nodes, map, p,
                       n + 1);
        homes.insert(w.homeWarehouse());
    }
    EXPECT_EQ(homes.size(), static_cast<std::size_t>(num_nodes));
}

TEST(TpccPreset, DeterministicPerSeed)
{
    AddressMap map;
    TpccParams p;
    TpccWorkload a(2, 8, map, p, 123);
    TpccWorkload b(2, 8, map, p, 123);
    for (int i = 0; i < 2000; ++i) {
        const WorkloadOp x = a.next();
        const WorkloadOp y = b.next();
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.op, y.op);
        EXPECT_EQ(x.endsTransaction, y.endsTransaction);
    }
}

} // namespace
} // namespace tokensim
