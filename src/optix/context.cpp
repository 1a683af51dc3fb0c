#include "optix/optix.hpp"

namespace rtnn::ox {

Accel Context::wide_accel(const rt::Bvh& bvh) {
  auto data = std::make_shared<detail::AccelData>();
  data->wide.build(bvh);
  Accel accel;
  accel.data_ = std::move(data);
  return accel;
}

Accel Context::build_accel(std::span<const Aabb> prim_aabbs) const {
  rt::Bvh bvh;
  bvh.build(prim_aabbs);
  return wide_accel(bvh);
}

Accel Context::build_accel(std::span<const Vec3> points, float aabb_width) const {
  rt::Bvh bvh;
  bvh.build(points, aabb_width);
  return wide_accel(bvh);
}

Accel Context::build_tiled_accel(std::span<const Vec3> points, float aabb_width,
                                 std::span<const std::vector<std::uint32_t>> tile_ids,
                                 const TiledAccelOptions& options) const {
  auto data = std::make_shared<detail::AccelData>();
  data->tiled.build(points, aabb_width, tile_ids, {.lazy_build = options.lazy_build});
  Accel accel;
  accel.data_ = std::move(data);
  return accel;
}

namespace {

/// Copy-on-write handle for a refit: the build product may be shared with
/// other Accel handles (they are snapshots, like real GASes); mutate in
/// place only when the caller is the sole owner.
std::shared_ptr<detail::AccelData> writable(
    const std::shared_ptr<const detail::AccelData>& data) {
  if (data.use_count() == 1) return std::const_pointer_cast<detail::AccelData>(data);
  return std::make_shared<detail::AccelData>(*data);
}

}  // namespace

void Accel::refit(std::span<const Aabb> prim_aabbs) {
  RTNN_CHECK(built(), "refit of an unbuilt accel");
  RTNN_CHECK(!is_tiled(), "tiled accels update through update_tiled()");
  std::shared_ptr<detail::AccelData> data = writable(data_);
  data->wide.refit(prim_aabbs);
  data_ = std::move(data);
}

void Accel::refit(std::span<const Vec3> points, float aabb_width) {
  RTNN_CHECK(built(), "refit of an unbuilt accel");
  RTNN_CHECK(!is_tiled(), "tiled accels update through update_tiled()");
  std::shared_ptr<detail::AccelData> data = writable(data_);
  data->wide.refit(points, aabb_width);
  data_ = std::move(data);
}

rt::TiledUpdateStats Accel::update_tiled(std::span<const Vec3> points,
                                         const rt::TileUpdatePolicy& policy) {
  RTNN_CHECK(is_tiled(), "update_tiled on a non-tiled accel");
  std::shared_ptr<detail::AccelData> data = writable(data_);
  // The outer COW clones the tile-pointer vector only; untouched tiles
  // stay shared with the snapshot through their shared_ptrs, and
  // TiledBvh::update replaces just the touched ones.
  const rt::TiledUpdateStats stats = data->tiled.update(points, policy);
  data_ = std::move(data);
  return stats;
}

}  // namespace rtnn::ox
