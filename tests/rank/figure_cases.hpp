// The paper's worked examples as path sets: Figure 1 (customer cone) and
// Figure 2 (hegemony). Shared by the figure tests, which pin their
// values, and the kernel differential test, which runs them through both
// kernel forms.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/prefix.hpp"
#include "sanitize/path_sanitizer.hpp"
#include "topo/as_graph.hpp"

namespace georank::rank::figures {

using bgp::AsPath;
using sanitize::SanitizedPath;

// Figure 1 ASes: A=101 B=102 C=103 D=104 E=105 F=106 G=107 H=108.
constexpr bgp::Asn A = 101, B = 102, C = 103, D = 104, E = 105, F = 106,
                   G = 107, H = 108;

inline topo::AsGraph figure1_graph() {
  topo::AsGraph g;
  g.add_p2p(A, B);
  g.add_p2p(A, C);
  g.add_p2p(B, C);
  g.add_p2c(C, D);
  g.add_p2c(D, E);
  g.add_p2c(D, F);
  g.add_p2c(A, G);
  g.add_p2c(B, H);
  return g;
}

inline SanitizedPath mk(std::uint32_t vp_ip, AsPath path, std::uint32_t pfx_index) {
  SanitizedPath sp;
  sp.vp = bgp::VpId{vp_ip, path[0]};
  sp.prefix = bgp::Prefix{0x0A000000 + pfx_index * 256, 24};
  sp.weight = 256;
  sp.path = std::move(path);
  return sp;
}

inline std::vector<SanitizedPath> figure1_paths() {
  // v_g lives in G, v_h lives in H; one prefix per origin AS, indexed by
  // the origin's ASN so both VPs share prefixes.
  std::vector<SanitizedPath> paths;
  auto add = [&](std::uint32_t vp, AsPath p) {
    std::uint32_t idx = p[p.size() - 1];
    paths.push_back(mk(vp, std::move(p), idx));
  };
  // From v_g (VP ip 1).
  add(1, AsPath{G, A, C, D, E});
  add(1, AsPath{G, A, C, D, F});
  add(1, AsPath{G, A, C, D});
  add(1, AsPath{G, A, C});
  add(1, AsPath{G, A, B, H});
  add(1, AsPath{G, A, B});
  add(1, AsPath{G, A});
  // From v_h (VP ip 2).
  add(2, AsPath{H, B, C, D, E});
  add(2, AsPath{H, B, C, D, F});
  add(2, AsPath{H, B, C, D});
  add(2, AsPath{H, B, C});
  add(2, AsPath{H, B, A, G});
  add(2, AsPath{H, B, A});
  add(2, AsPath{H, B});
  return paths;
}

/// Figure 2's trim example: AS 100 ("AS A") is on 3/3 paths at VP1, 2/3
/// at VP2 and 1/3 at VP3, all prefixes the same size.
inline std::vector<SanitizedPath> figure2_paths() {
  std::vector<SanitizedPath> paths;
  auto add = [&](std::uint32_t vp, AsPath p, std::uint32_t pfx_index) {
    paths.push_back(mk(vp, std::move(p), pfx_index));
  };
  add(1, AsPath{1, 100, 201}, 1);
  add(1, AsPath{1, 100, 202}, 2);
  add(1, AsPath{1, 100, 203}, 3);
  add(2, AsPath{2, 100, 201}, 1);
  add(2, AsPath{2, 100, 202}, 2);
  add(2, AsPath{2, 99, 203}, 3);
  add(3, AsPath{3, 100, 201}, 1);
  add(3, AsPath{3, 98, 202}, 2);
  add(3, AsPath{3, 98, 203}, 3);
  return paths;
}

/// An AS reached only over peering: 50 peers with every VP's provider
/// and has one customer, 60.
inline topo::AsGraph peering_graph() {
  topo::AsGraph g;
  g.add_p2c(10, 1);  // VP AS 1 buys from 10
  g.add_p2c(11, 2);
  g.add_p2c(12, 3);
  g.add_p2p(10, 50);
  g.add_p2p(11, 50);
  g.add_p2p(12, 50);
  g.add_p2c(50, 60);  // 50's only customer
  return g;
}

inline std::vector<SanitizedPath> peering_paths() {
  return {
      mk(1, AsPath{1, 10, 50, 60}, 1),
      mk(2, AsPath{2, 11, 50, 60}, 1),
      mk(3, AsPath{3, 12, 50, 60}, 1),
  };
}

}  // namespace georank::rank::figures
