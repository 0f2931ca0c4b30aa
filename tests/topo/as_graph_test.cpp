#include "topo/as_graph.hpp"

#include <gtest/gtest.h>

namespace georank::topo {
namespace {

TEST(AsGraph, AddAsIsIdempotent) {
  AsGraph g;
  NodeId a = g.add_as(100);
  NodeId b = g.add_as(100);
  EXPECT_EQ(a, b);
  EXPECT_EQ(g.size(), 1u);
  EXPECT_TRUE(g.contains(100));
  EXPECT_FALSE(g.contains(200));
}

TEST(AsGraph, RejectsAsZero) {
  AsGraph g;
  EXPECT_THROW(g.add_as(0), std::invalid_argument);
}

TEST(AsGraph, IdAsnRoundTrip) {
  AsGraph g;
  NodeId id = g.add_as(42);
  EXPECT_EQ(g.asn_of(id), 42u);
  EXPECT_EQ(g.id_of(42), id);
  EXPECT_THROW((void)g.id_of(999), std::out_of_range);
}

TEST(AsGraph, P2cRelationshipIsDirectional) {
  AsGraph g;
  g.add_p2c(1, 2);
  EXPECT_EQ(g.relationship(1, 2), Rel::kCustomer);  // 2 is 1's customer
  EXPECT_EQ(g.relationship(2, 1), Rel::kProvider);  // 1 is 2's provider
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(AsGraph, P2pIsSymmetric) {
  AsGraph g;
  g.add_p2p(1, 2);
  EXPECT_EQ(g.relationship(1, 2), Rel::kPeer);
  EXPECT_EQ(g.relationship(2, 1), Rel::kPeer);
}

TEST(AsGraph, RelationshipAbsent) {
  AsGraph g;
  g.add_as(1);
  g.add_as(2);
  EXPECT_FALSE(g.relationship(1, 2).has_value());
  // An unknown AS on either side.
  EXPECT_FALSE(g.relationship(1, 99).has_value());
  EXPECT_FALSE(g.relationship(99, 2).has_value());
  EXPECT_FALSE(g.relationship(98, 99).has_value());
}

TEST(AsGraph, RejectsSelfAndDuplicateEdges) {
  AsGraph g;
  EXPECT_THROW(g.add_p2c(1, 1), std::invalid_argument);
  EXPECT_THROW(g.add_p2p(1, 1), std::invalid_argument);
  g.add_p2c(1, 2);
  EXPECT_THROW(g.add_p2c(1, 2), std::invalid_argument);
  EXPECT_THROW(g.add_p2c(2, 1), std::invalid_argument);
  EXPECT_THROW(g.add_p2p(1, 2), std::invalid_argument);
}

TEST(AsGraph, RemoveEdge) {
  AsGraph g;
  g.add_p2c(1, 2);
  g.add_p2p(1, 3);
  EXPECT_TRUE(g.remove_edge(1, 2));
  EXPECT_FALSE(g.relationship(1, 2).has_value());
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_FALSE(g.remove_edge(1, 2));  // already gone
  EXPECT_FALSE(g.remove_edge(1, 99));
  // Re-adding after removal is allowed (sanction/de-peering edits).
  g.add_p2p(1, 2);
  EXPECT_EQ(g.relationship(1, 2), Rel::kPeer);
}

TEST(AsGraph, NeighborListsByKind) {
  AsGraph g;
  g.add_p2c(10, 1);
  g.add_p2c(10, 2);
  g.add_p2c(20, 10);
  g.add_p2p(10, 30);
  EXPECT_EQ(g.customers_of(10), (std::vector<bgp::Asn>{1, 2}));
  EXPECT_EQ(g.providers_of(10), (std::vector<bgp::Asn>{20}));
  EXPECT_EQ(g.peers_of(10), (std::vector<bgp::Asn>{30}));
  EXPECT_TRUE(g.customers_of(1).empty());
  EXPECT_EQ(g.providers_of(1), (std::vector<bgp::Asn>{10}));
}

TEST(AsGraph, InverseRelation) {
  EXPECT_EQ(inverse(Rel::kCustomer), Rel::kProvider);
  EXPECT_EQ(inverse(Rel::kProvider), Rel::kCustomer);
  EXPECT_EQ(inverse(Rel::kPeer), Rel::kPeer);
}

}  // namespace
}  // namespace georank::topo
