/// Golden pins for the sequential LBAF emulation: a seeded 256-rank
/// bimodal instance run through Algorithm 3 under full resend, under the
/// delta wire, and under the footnote-2 knowledge cap. Every
/// IterationRecord field (doubles compared bit for bit), the migrations
/// realizing the best state, and run_gossip's per-round GossipStats and
/// final knowledge are pinned, so any drift in the inform or transfer
/// stage — an RNG draw moved, a byte miscounted, a merge reordered —
/// fails here rather than silently reshaping the §V tables.

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "lbaf/experiment.hpp"

namespace tlb::lbaf {
namespace {

Workload golden_instance() {
  return make_bimodal(256, 4, 640, BimodalSpec{}, 77);
}

lb::LbParams golden_params(lb::GossipWire wire, int max_knowledge) {
  auto p = lb::LbParams::tempered();
  p.fanout = 4;
  p.rounds = 5;
  p.num_trials = 2;
  p.num_iterations = 4;
  p.seed = 4242;
  p.gossip_wire = wire;
  p.max_knowledge = max_knowledge;
  return p;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

/// Every IterationRecord field, one line per record, in hex with doubles
/// as their bit patterns;
/// then the best state and a digest of every best migration.
std::string dump(ExperimentResult const& r) {
  std::ostringstream out;
  out << std::hex;
  out << "initial " << bits(r.initial_imbalance) << '\n';
  for (auto const& rec : r.records) {
    out << rec.trial << ' ' << rec.iteration << ' ' << rec.transfers << ' '
        << rec.rejected << ' ' << bits(rec.rejection_rate) << ' '
        << bits(rec.imbalance) << ' ' << rec.gossip_messages << ' '
        << rec.gossip_bytes << '\n';
  }
  Digest d;
  for (auto const& m : r.best_migrations) {
    d.add(static_cast<std::uint64_t>(m.task));
    d.add(static_cast<std::uint64_t>(m.from));
    d.add(static_cast<std::uint64_t>(m.to));
    d.add(bits(m.load));
  }
  out << "best " << bits(r.best_imbalance) << ' ' << r.best_trial << ' '
      << r.best_iteration << ' ' << r.best_migrations.size() << ' ' << d.h
      << '\n';
  return out.str();
}

/// One inform epoch over the instance's initial loads: totals, every
/// per-round field, and a digest of every rank's final knowledge.
std::string dump_gossip(lb::GossipWire wire, std::size_t max_knowledge) {
  Assignment const a{golden_instance()};
  std::vector<LoadType> const loads(a.rank_loads().begin(),
                                    a.rank_loads().end());
  Rng rng{99};
  GossipStats stats;
  auto const knowledge = run_gossip(loads, a.average_load(), 4, 5, rng,
                                    &stats, max_knowledge, wire);
  std::ostringstream out;
  out << std::hex;
  out << "total " << stats.messages << ' ' << stats.full_messages << ' '
      << stats.bytes << ' ' << stats.max_round_seen << '\n';
  for (auto const& rs : stats.per_round) {
    out << rs.messages << ' ' << rs.full_messages << ' ' << rs.bytes << ' '
        << rs.knowledge_min << ' ' << rs.knowledge_max << ' '
        << rs.knowledge_sum << '\n';
  }
  Digest d;
  for (auto const& k : knowledge) {
    d.add(k.size());
    for (auto const& e : k.entries()) {
      d.add(static_cast<std::uint64_t>(e.rank));
      d.add(bits(e.load));
    }
  }
  out << "knowledge " << d.h << ' ' << rng() << '\n';
  return out.str();
}

TEST(EmulationGolden, FullWire) {
  EXPECT_EQ(dump(run_experiment(golden_params(lb::GossipWire::full, 0),
                                golden_instance())),
            "initial 405078e65986ca51\n"
            "0 1 242 2 3fd611a7b9611a7c 400a1740c40988a6 1374 7a270\n"
            "0 2 9b 2d 4036800000000000 4013dabcb7d37f0f 1130 4bb3c\n"
            "0 3 64 5a 4047af286bca1af3 4010445b5daf240e 1160 4fe6c\n"
            "0 4 50 6a 404c7e9fa7e9fa7f 4001205f0b7c8f08 1100 49b20\n"
            "1 1 242 7 3ff3253253253253 4011f282ca2f7deb 13c0 7ab90\n"
            "1 2 9f 2e 40367063e7063e70 4011a0cdb282e187 1160 4d350\n"
            "1 3 64 55 4046f914c1bacf91 40078dc6d4a09e3b 1194 51f44\n"
            "1 4 55 6d 404c17c0a8e83f57 4001dec142066246 1168 4a0fc\n"
            "best 4001205f0b7c8f08 0 4 242 76c99ad0ab196673\n");
  EXPECT_EQ(dump_gossip(lb::GossipWire::full, 0),
            "total 138c 138c 7b3a0 5\n"
            "0 0 0 0 0 0\n"
            "3f0 3f0 3140 1 b f9e\n"
            "3e4 3e4 52b0 2 15 2263\n"
            "3e8 3e8 df7c 5 3e 58a6\n"
            "3e8 3e8 1e3d8 8 78 bc63\n"
            "3e8 3e8 46c5c e c7 17ba0\n"
            "knowledge 10609e605f7b3e7a fa2a795db30c9f93\n");
}

TEST(EmulationGolden, DeltaWire) {
  EXPECT_EQ(dump(run_experiment(golden_params(lb::GossipWire::delta, 0),
                                golden_instance())),
            "initial 405078e65986ca51\n"
            "0 1 242 2 3fd611a7b9611a7c 400a1740c40988a6 1374 496f4\n"
            "0 2 9b 2d 4036800000000000 4013dabcb7d37f0f 1130 2d1b0\n"
            "0 3 64 5a 4047af286bca1af3 4010445b5daf240e 1160 2f9d4\n"
            "0 4 50 6a 404c7e9fa7e9fa7f 4001205f0b7c8f08 1100 2c44c\n"
            "1 1 242 7 3ff3253253253253 4011f282ca2f7deb 13c0 48ee4\n"
            "1 2 9f 2e 40367063e7063e70 4011a0cdb282e187 1160 2e91c\n"
            "1 3 64 55 4046f914c1bacf91 40078dc6d4a09e3b 1194 30fbc\n"
            "1 4 55 6d 404c17c0a8e83f57 4001dec142066246 1168 2c2b4\n"
            "best 4001205f0b7c8f08 0 4 242 76c99ad0ab196673\n");
  EXPECT_EQ(dump_gossip(lb::GossipWire::delta, 0),
            "total 138c 400 4a044 5\n"
            "0 0 0 0 0 0\n"
            "3f0 3f0 3140 1 b f9e\n"
            "3e4 10 2f28 2 15 2263\n"
            "3e8 0 9a7c 5 3e 58a6\n"
            "3e8 0 11110 8 78 bc63\n"
            "3e8 0 29450 e c7 17ba0\n"
            "knowledge 10609e605f7b3e7a fa2a795db30c9f93\n");
}

TEST(EmulationGolden, KnowledgeCap) {
  EXPECT_EQ(dump(run_experiment(golden_params(lb::GossipWire::delta, 8),
                                golden_instance())),
            "initial 405078e65986ca51\n"
            "0 1 149 137 40484c0000000000 402a600269df4258 1374 32b50\n"
            "0 2 1c3 f 4009c046514e0233 401b488e4d9caf34 12f4 30964\n"
            "0 3 92 3b 403cc7ce0c7ce0c8 4018ae6cdf16c0e5 11f0 2b6f0\n"
            "0 4 52 59 404a05fd017f4060 4009d3dc7fba2272 1140 288f4\n"
            "1 1 14d 133 4047fc0000000000 402b1d80eb06b846 13c0 32ec0\n"
            "1 2 1c4 13 401022c91aa1f864 40135db2ddba048c 1348 31038\n"
            "1 3 7f 36 403dd591adf78389 400b489f1b3d622e 11b4 2b0d0\n"
            "1 4 41 5f 404db00000000000 4005aae63213af89 11c8 29f70\n"
            "best 4005aae63213af89 1 4 242 44f63d3709f9f2b8\n");
  EXPECT_EQ(dump_gossip(lb::GossipWire::delta, 8),
            "total 138c bb8 32fe0 5\n"
            "0 0 0 0 0 0\n"
            "3f0 3f0 3140 1 8 f87\n"
            "3e4 10 2f28 2 8 1bbc\n"
            "3e8 74 9c24 5 8 1f1d\n"
            "3e8 360 10ee8 8 8 1f40\n"
            "3e8 3e4 1246c 8 8 1f40\n"
            "knowledge 7488c36ccc36cb0d 9fee5f18fae1b24b\n");
}

} // namespace
} // namespace tlb::lbaf
