#include "optix/optix.hpp"

#include "core/failpoint.hpp"
#include "core/timing.hpp"

namespace rtnn::ox {

const rt::Bvh& detail::AccelData::binary() const {
  if (const rt::Bvh* built = binary_.load(std::memory_order_acquire)) return *built;
  std::lock_guard<std::mutex> lock(binary_mutex_);
  if (const rt::Bvh* built = binary_.load(std::memory_order_relaxed)) return *built;
  RTNN_FAILPOINT("ox.accel.binary_build");
  // The boxes back in id order. Until a refit moves them, they give, with
  // the build's leaf size (and thread count), the tree build_accel
  // collapsed.
  const std::span<const std::uint32_t> order = wide.prim_order();
  const std::span<const Aabb> ordered = wide.ordered_prim_aabbs();
  std::vector<Aabb> boxes(order.size());
  for (std::size_t s = 0; s < order.size(); ++s) boxes[order[s]] = ordered[s];
  auto bvh = std::make_unique<rt::Bvh>();
  bvh->build(boxes, rt::BvhBuildOptions{.leaf_size = leaf_size});
  binary_storage_ = std::move(bvh);
  binary_.store(binary_storage_.get(), std::memory_order_release);
  return *binary_storage_;
}

Accel Context::build_accel(std::span<const Aabb> prim_aabbs,
                           const AccelBuildOptions& options) const {
  Timer timer;
  auto data = std::make_shared<detail::AccelData>();
  data->leaf_size = options.leaf_size;
  rt::Bvh bvh;  // dropped on return: the wide tree is the resident index
  bvh.build(prim_aabbs, rt::BvhBuildOptions{.leaf_size = options.leaf_size});
  data->wide.build(bvh);
  Accel accel;
  accel.data_ = std::move(data);
  accel.build_seconds_ = timer.elapsed();
  return accel;
}

Accel Context::build_tiled_accel(std::span<const Vec3> points, float aabb_width,
                                 std::span<const std::vector<std::uint32_t>> tile_ids,
                                 const TiledAccelOptions& options) const {
  Timer timer;
  auto data = std::make_shared<detail::AccelData>();
  rt::TiledBuildOptions build_options;
  build_options.leaf_size = options.leaf_size;
  build_options.lazy_build = options.lazy_build;
  data->tiled.build(points, aabb_width, tile_ids, build_options);
  Accel accel;
  accel.data_ = std::move(data);
  accel.build_seconds_ = timer.elapsed();
  return accel;
}

namespace {

/// Copy-on-write handle for a refit: the build product may be shared with
/// other Accel handles (they are snapshots, like real GASes); mutate in
/// place only when the caller is the sole owner and no binary tree was
/// built over the old boxes (the copy starts without one).
std::shared_ptr<detail::AccelData> writable(
    const std::shared_ptr<const detail::AccelData>& data) {
  if (data.use_count() == 1 && data->binary_if_built() == nullptr) {
    return std::const_pointer_cast<detail::AccelData>(data);
  }
  return std::make_shared<detail::AccelData>(*data);
}

}  // namespace

void Accel::refit(std::span<const Aabb> prim_aabbs) {
  RTNN_CHECK(built(), "refit of an unbuilt accel");
  RTNN_CHECK(!is_tiled(), "tiled accels update through update_tiled()");
  Timer timer;
  std::shared_ptr<detail::AccelData> data = writable(data_);
  data->wide.refit(prim_aabbs);
  data_ = std::move(data);
  refit_seconds_ = timer.elapsed();
}

void Accel::refit(std::span<const Vec3> points, float aabb_width) {
  RTNN_CHECK(built(), "refit of an unbuilt accel");
  RTNN_CHECK(!is_tiled(), "tiled accels update through update_tiled()");
  Timer timer;
  std::shared_ptr<detail::AccelData> data = writable(data_);
  data->wide.refit(points, aabb_width);
  data_ = std::move(data);
  refit_seconds_ = timer.elapsed();
}

rt::TiledUpdateStats Accel::update_tiled(std::span<const Vec3> points,
                                         const rt::TileUpdatePolicy& policy) {
  RTNN_CHECK(is_tiled(), "update_tiled on a non-tiled accel");
  Timer timer;
  std::shared_ptr<detail::AccelData> data = writable(data_);
  // The outer COW clones the tile-pointer vector only; untouched tiles
  // stay shared with the snapshot through their shared_ptrs, and
  // TiledBvh::update replaces just the touched ones.
  const rt::TiledUpdateStats stats = data->tiled.update(points, policy);
  data_ = std::move(data);
  refit_seconds_ = timer.elapsed();
  return stats;
}

}  // namespace rtnn::ox
