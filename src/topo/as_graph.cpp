#include "topo/as_graph.hpp"

#include <algorithm>
#include <optional>

namespace georank::topo {

NodeId AsGraph::add_as(Asn asn) {
  if (asn == bgp::kInvalidAsn) {
    throw std::invalid_argument{"AS 0 is not a valid AS number"};
  }
  auto [it, inserted] = index_.try_emplace(asn, static_cast<NodeId>(asns_.size()));
  if (inserted) {
    asns_.push_back(asn);
    adj_.emplace_back();
  }
  return it->second;
}

NodeId AsGraph::id_of(Asn asn) const {
  auto it = index_.find(asn);
  if (it == index_.end()) {
    throw std::out_of_range{"unknown AS " + std::to_string(asn)};
  }
  return it->second;
}

void AsGraph::add_edge(Asn a, Asn b, Rel rel_of_a, double export_fraction) {
  if (a == b) throw std::invalid_argument{"self relationship for AS " + std::to_string(a)};
  if (export_fraction <= 0.0 || export_fraction > 1.0) {
    throw std::invalid_argument{"export fraction must be in (0,1]"};
  }
  NodeId ia = add_as(a);
  NodeId ib = add_as(b);
  for (const Neighbor& n : adj_[ia]) {
    if (n.id == ib) {
      throw std::invalid_argument{"relationship already exists between AS " +
                                  std::to_string(a) + " and AS " + std::to_string(b)};
    }
  }
  auto fraction = static_cast<float>(export_fraction);
  adj_[ia].push_back(Neighbor{ib, rel_of_a, fraction});
  adj_[ib].push_back(Neighbor{ia, inverse(rel_of_a), fraction});
  ++edge_count_;
}

void AsGraph::add_p2c(Asn provider, Asn customer, double export_fraction) {
  add_edge(provider, customer, Rel::kCustomer, export_fraction);
}

void AsGraph::add_p2p(Asn a, Asn b) { add_edge(a, b, Rel::kPeer, 1.0); }

double AsGraph::export_fraction(Asn a, Asn b) const {
  if (!contains(a) || !contains(b)) return 1.0;
  NodeId ia = id_of(a), ib = id_of(b);
  for (const Neighbor& n : adj_[ia]) {
    if (n.id == ib) return n.export_up;
  }
  return 1.0;
}

bool AsGraph::remove_edge(Asn a, Asn b) {
  if (!contains(a) || !contains(b)) return false;
  NodeId ia = id_of(a), ib = id_of(b);
  auto erase_from = [&](NodeId from, NodeId target) {
    auto& vec = adj_[from];
    auto it = std::find_if(vec.begin(), vec.end(),
                           [&](const Neighbor& n) { return n.id == target; });
    if (it == vec.end()) return false;
    vec.erase(it);
    return true;
  };
  bool removed = erase_from(ia, ib);
  if (removed) {
    erase_from(ib, ia);
    --edge_count_;
  }
  return removed;
}

std::optional<Rel> AsGraph::relationship(Asn a, Asn b) const {
  const auto ia = index_.find(a);
  if (ia == index_.end()) return std::nullopt;
  const auto ib = index_.find(b);
  if (ib == index_.end()) return std::nullopt;
  for (const Neighbor& n : adj_[ia->second]) {
    if (n.id == ib->second) return n.rel;
  }
  return std::nullopt;
}

namespace {

std::vector<Asn> filtered_neighbors(const AsGraph& g, Asn asn, Rel want) {
  std::vector<Asn> out;
  for (const Neighbor& n : g.neighbors(g.id_of(asn))) {
    if (n.rel == want) out.push_back(g.asn_of(n.id));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<Asn> AsGraph::customers_of(Asn asn) const {
  return filtered_neighbors(*this, asn, Rel::kCustomer);
}
std::vector<Asn> AsGraph::providers_of(Asn asn) const {
  return filtered_neighbors(*this, asn, Rel::kProvider);
}
std::vector<Asn> AsGraph::peers_of(Asn asn) const {
  return filtered_neighbors(*this, asn, Rel::kPeer);
}

}  // namespace georank::topo
