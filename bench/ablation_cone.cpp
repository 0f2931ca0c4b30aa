// Ablation (DESIGN.md §4): path-observed vs recursively-closed customer
// cones. Luckie et al. (and this paper) include B in A's cone only when
// an observed path shows B downstream of A; closing the cone recursively
// over all inferred p2c links INFLATES cones (complex relationships leak
// whole customer trees). This harness quantifies the inflation.
#include <cstdio>
#include <iostream>
#include <unordered_set>

#include "common/bench_world.hpp"
#include "rank/customer_cone.hpp"

using namespace georank;

namespace {

/// Recursive closure over ground-truth p2c links.
std::size_t recursive_cone_size(const topo::AsGraph& g, bgp::Asn root) {
  std::unordered_set<bgp::Asn> seen{root};
  std::vector<bgp::Asn> stack{root};
  while (!stack.empty()) {
    bgp::Asn cur = stack.back();
    stack.pop_back();
    for (bgp::Asn customer : g.customers_of(cur)) {
      if (seen.insert(customer).second) stack.push_back(customer);
    }
  }
  return seen.size();
}

}  // namespace

int main() {
  bench::print_banner("Ablation: cone construction",
                      "Path-observed cones vs recursive p2c closure");

  auto ctx = bench::make_context();
  rank::CustomerCone cone{ctx->world.graph};
  rank::ConeResult observed = cone.compute(ctx->pipeline->sanitized().paths);

  // Compare for the 15 largest observed cones (ties: ascending ASN).
  util::Table table{{"AS", "name", "observed cone", "recursive cone", "inflation"}};
  for (std::size_t c = 2; c <= 4; ++c) table.set_align(c, util::Align::kRight);
  double total_observed = 0, total_recursive = 0;
  for (const rank::ScoredAs& entry : observed.by_as_count().top(15)) {
    const bgp::Asn asn = entry.asn;
    const std::size_t observed_size = observed.cone_size(asn);
    std::size_t rec = recursive_cone_size(ctx->world.graph, asn);
    total_observed += static_cast<double>(observed_size);
    total_recursive += static_cast<double>(rec);
    char buf[16];
    std::snprintf(buf, sizeof buf, "%.2fx",
                  static_cast<double>(rec) / static_cast<double>(observed_size));
    table.add_row({std::to_string(asn), ctx->world.name_of(asn),
                   std::to_string(observed_size), std::to_string(rec), buf});
  }
  table.print(std::cout);
  std::printf("\naggregate inflation over the 15 largest cones: %.2fx\n",
              total_recursive / total_observed);
  std::printf("expectation: recursive closure never shrinks a cone and "
              "inflates mid-tier ones most\n(every partially-observed "
              "customer contributes its whole subtree).\n");
  return 0;
}
