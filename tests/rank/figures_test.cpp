// The paper's worked examples, encoded exactly:
//   Figure 1 pins the customer-cone path-segment semantics;
//   Figure 2 pins the hegemony per-VP scoring and trim rule.
#include <gtest/gtest.h>

#include <algorithm>

#include "rank/customer_cone.hpp"
#include "rank/hegemony.hpp"
#include "figure_cases.hpp"
#include "topo/route_propagation.hpp"

namespace georank::rank {
namespace {

using bgp::AsPath;
using sanitize::SanitizedPath;
using namespace figures;

/// True when `member` is in `holder`'s cone. A holder that was never
/// seen fails the test: it has no cone to look in.
bool in_cone(const ConeResult& r, bgp::Asn holder, bgp::Asn member) {
  const std::vector<bgp::Asn> members = r.members(holder);
  EXPECT_FALSE(members.empty()) << "AS " << holder << " has no cone";
  return std::binary_search(members.begin(), members.end(), member);
}

TEST(Figure1, PropagatorReproducesTheFigureSPaths) {
  topo::AsGraph g = figure1_graph();
  topo::RoutePropagator prop{g};
  // v_g's path to E must be G A C D E (the figure's red+gray path).
  topo::RoutingTable tE = prop.compute(E);
  EXPECT_EQ(tE.path_from(g.id_of(G)), (AsPath{G, A, C, D, E}));
  EXPECT_EQ(tE.path_from(g.id_of(H)), (AsPath{H, B, C, D, E}));
  topo::RoutingTable tH = prop.compute(H);
  EXPECT_EQ(tH.path_from(g.id_of(G)), (AsPath{G, A, B, H}));
  topo::RoutingTable tG = prop.compute(G);
  EXPECT_EQ(tG.path_from(g.id_of(H)), (AsPath{H, B, A, G}));
}

TEST(Figure1, SharedSegments) {
  topo::AsGraph g = figure1_graph();
  CustomerCone cone{g};
  ConeResult r = cone.compute(figure1_paths());

  // "Both VPs share visibility of C<D<E and C<D<F (red)."
  EXPECT_TRUE(in_cone(r, C, D));
  EXPECT_TRUE(in_cone(r, C, E));
  EXPECT_TRUE(in_cone(r, C, F));
  EXPECT_TRUE(in_cone(r, D, E));
  EXPECT_TRUE(in_cone(r, D, F));
}

TEST(Figure1, PerVpSegments) {
  topo::AsGraph g = figure1_graph();
  CustomerCone cone{g};
  ConeResult r = cone.compute(figure1_paths());

  // "B<H from v_g (blue) and A<G from v_h (green)."
  EXPECT_TRUE(in_cone(r, B, H));
  EXPECT_TRUE(in_cone(r, A, G));
}

TEST(Figure1, DroppedSegmentsStayOut) {
  topo::AsGraph g = figure1_graph();
  CustomerCone cone{g};
  ConeResult r = cone.compute(figure1_paths());

  // The gray (dropped) portions must not leak into cones: A and B peer
  // with C, so C's cone members never enter A's or B's cone.
  EXPECT_FALSE(in_cone(r, A, C));
  EXPECT_FALSE(in_cone(r, A, D));
  EXPECT_FALSE(in_cone(r, A, E));
  EXPECT_FALSE(in_cone(r, B, D));
  // G is a stub: its cone is just itself.
  EXPECT_EQ(r.cone_size(G), 1u);
  EXPECT_EQ(r.cone_size(H), 1u);
  // Exact cone contents.
  EXPECT_EQ(r.cone_size(C), 4u);  // C D E F
  EXPECT_EQ(r.cone_size(D), 3u);  // D E F
  EXPECT_EQ(r.cone_size(A), 2u);  // A G
  EXPECT_EQ(r.cone_size(B), 2u);  // B H
}

TEST(Figure2, PerVpScoresAndTrim) {
  // AS 100 ("AS A") is on 3/3 paths at VP1, 2/3 at VP2, 1/3 at VP3 with
  // equal-size prefixes: per-VP scores 1, 0.67, 0.33. The trim removes
  // the top and bottom, leaving 0.67 (Figure 2's worked example).
  Hegemony hegemony;
  HegemonyResult r = hegemony.compute(figure2_paths());
  ASSERT_EQ(r.vp_count, 3u);
  EXPECT_NEAR(r.score_of(100), 2.0 / 3.0, 1e-9);
}

TEST(Figure2, ConeAndHegemonyDisagreeByDesign) {
  // An AS reached mostly over PEERING scores high on hegemony but low on
  // customer cone (the Hurricane pattern, §3.3/§5.4).
  topo::AsGraph g = peering_graph();
  std::vector<SanitizedPath> paths = peering_paths();
  CustomerCone cone{g};
  ConeResult cr = cone.compute(paths);
  Hegemony hegemony;
  HegemonyResult hr = hegemony.compute(paths);

  // Hegemony: 50 is on every path -> 1.0 after trim.
  EXPECT_DOUBLE_EQ(hr.score_of(50), 1.0);
  // Cone: the peer link 10-50 caps 50's cone to {50, 60}; 10,11,12 gain
  // nothing.
  EXPECT_EQ(cr.cone_size(50), 2u);
  EXPECT_EQ(cr.cone_size(10), 1u);
}

}  // namespace
}  // namespace georank::rank
