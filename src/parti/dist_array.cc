#include "parti/dist_array.h"

#include <climits>

namespace mc::parti {

namespace {
// Wider ghost widths are implausible and would size huge padded blocks.
constexpr std::uint64_t kMaxGhost = 1u << 20;
}  // namespace

void PartiDesc::serialize(std::vector<std::byte>& out) const {
  blob::putShape(out, decomp.globalShape());
  for (int g : decomp.grid()) blob::putU64(out, static_cast<std::uint64_t>(g));
  blob::putU64(out, static_cast<std::uint64_t>(ghost));
}

PartiDesc PartiDesc::deserialize(blob::ByteReader& r) {
  const layout::Shape shape = blob::readShape(r);
  std::vector<int> grid;
  std::uint64_t procs = 1;
  for (int d = 0; d < shape.rank; ++d) {
    const std::uint64_t g = r.u64In(1, INT_MAX, "parti grid extent");
    // Both factors are at most INT_MAX, so the product cannot wrap.
    procs *= g;
    MC_REQUIRE(procs <= INT_MAX,
               "parti processor grid exceeds INT_MAX processors");
    grid.push_back(static_cast<int>(g));
  }
  const auto ghostWidth =
      static_cast<int>(r.u64In(0, kMaxGhost, "parti ghost width"));
  return PartiDesc{layout::BlockDecomp(shape, std::move(grid)), ghostWidth};
}

}  // namespace mc::parti
