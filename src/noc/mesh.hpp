// 2-D mesh with dimension-ordered (X-Y) routing and store-and-forward link
// occupancy tracking. The default matches Table I: 4x8 mesh, 1-cycle links,
// 1 flit/cycle bandwidth, 16-byte flits; any cols x rows geometry is
// accepted (large-core configs derive a near-square grid via forTiles).
//
// Each in-flight message is one pooled MeshPacket that carries the delivery
// action once; per-hop events capture only {this, packet}, so routing a
// message allocates nothing in steady state.
#pragma once

#include <array>
#include <vector>

#include "noc/network.hpp"

namespace lktm::noc {

struct MeshParams {
  unsigned cols = 8;
  unsigned rows = 4;
  Cycle routerLatency = 1;
  Cycle linkLatency = 1;

  /// Near-square geometry with cols * rows == tiles (rows is the largest
  /// divisor of tiles not exceeding its square root): 32 -> 4x8 (the Table I
  /// grid), 128 -> 8x16, 256 -> 16x16. Latencies keep their defaults.
  static MeshParams forTiles(unsigned tiles);
};

/// In-flight message state, recycled through the SimContext packet pool.
struct MeshPacket {
  unsigned tile = 0;
  unsigned dstTile = 0;
  unsigned flits = 0;
  unsigned hopCount = 0;
  sim::Action onArrive;
};

class MeshNetwork final : public Network {
 public:
  MeshNetwork(sim::SimContext& ctx, MeshParams params);

  void send(NodeId src, NodeId dst, unsigned flits,
            sim::Action onArrive) override;

  unsigned numTiles() const { return params_.cols * params_.rows; }

  /// Tile a node is attached to (LLC bank b lives at tile b).
  unsigned tileOf(NodeId n) const { return static_cast<unsigned>(n) % numTiles(); }

  /// Number of mesh hops between two nodes (Manhattan distance).
  unsigned hops(NodeId src, NodeId dst) const;

 private:
  sim::Engine& engine_;
  sim::Pool<MeshPacket>& pool_;
  MeshParams params_;
  // nextFree cycle per directed link: [tile][direction], 0=E 1=W 2=N 3=S.
  std::vector<std::array<Cycle, 4>> linkFree_;
  stats::Histogram& hopsHist_;

  struct Pos {
    unsigned x, y;
  };
  /// (x, y) of every tile, computed once so routing divides by nothing.
  std::vector<Pos> pos_;

  unsigned tileHops(unsigned srcTile, unsigned dstTile) const;
  void step(MeshPacket* p);
};

}  // namespace lktm::noc
