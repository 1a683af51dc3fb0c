// Umbrella header for the engine layer.
//
//   #include "engine/engine.hpp"
//
//   auto backend = rtnn::engine::make_backend("auto");
//   backend->set_points(points);
//   rtnn::SearchParams params;
//   params.mode = rtnn::SearchMode::kKnn;
//   params.radius = 0.05f;
//   params.k = 16;
//   rtnn::NeighborResult result = backend->search(queries, params);
//
// Dynamic point clouds follow the index lifecycle build → refit →
// rebuild: after a frame of motion, call update_points(moved) instead of
// set_points(). Backends with caps().dynamic ("rtnn", "fastrnn", "auto")
// keep their acceleration structure alive across frames and refit it in
// place (cost lands in Report::time.refit) until the refit-vs-rebuild
// policy — k_refit vs k1, plus the measured SAH inflation against
// CostModel::max_sah_inflation — schedules a rebuild; all other backends
// transparently fall back to a rebuild, so frame loops never branch on
// capability:
//
//   backend->update_points(frame_positions);   // same count, moved points
//   result = backend->search(queries, params, &report);
//   // report.accel_refits / accel_rebuilds / sah_inflation tell the story
//
// Between updates, repeated searches reuse the index as is. See README.md
// ("The SearchBackend contract" and "The index lifecycle").
//
// For many concurrent callers over one cloud, serve backends through
// rtnn::service::SearchService (service/service.hpp): it publishes
// immutable snapshot() clones per update and coalesces in-flight
// requests into batched launches.
#pragma once

#include "engine/auto_backend.hpp"
#include "engine/backends.hpp"
#include "engine/registry.hpp"
#include "engine/search_backend.hpp"
