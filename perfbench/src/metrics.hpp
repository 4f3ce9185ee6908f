#pragma once
// The benchmark's metric names and units — the single list BENCHMARK.json
// mirrors (tests/test_run.py checks that the two agree).
//
// Every workload prints every metric: end-to-end metrics are defined for
// each workload in terms of the operations that workload performs (see
// README.md), and a per-layer metric reads 0 on a workload whose traced
// run never enters that layer.

#include <array>
#include <string_view>

namespace perfbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

inline constexpr std::array<MetricSpec, 15> kEndToEnd{{
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},
    {"prove_p50_ms", "ms"},
    {"prove_p90_ms", "ms"},
    {"verify_p50_ms", "ms"},
    {"verify_p90_ms", "ms"},
    {"label_bytes_per_edge", "B"},
    {"label_bits_max", "bit"},
    {"reverify_p50_ms", "ms"},
    {"reverify_p99_ms", "ms"},
    {"edits_per_s", "1/s"},
    {"req_p50_ms", "ms"},
    {"req_p99_ms", "ms"},
    {"max_rate_rps", "1/s"},
}};

inline constexpr std::array<MetricSpec, 43> kPerLayer{{
    {"pathwidth.interval_ms", "ms"},
    {"pathwidth.interval_ms_t1", "ms"},
    {"lane.plan_ms", "ms"},
    {"lanewidth.construction_ms", "ms"},
    {"klane.hierarchy_ms", "ms"},
    {"core.prove_body_ms", "ms"},
    {"core.prove_body_ms_t1", "ms"},
    {"core.width", "count"},
    {"core.lanes", "count"},
    {"core.hierarchy_depth", "count"},
    {"cert.own_bytes_per_edge", "B"},
    {"cert.through_bytes_per_edge", "B"},
    {"cert.pointer_bytes_per_edge", "B"},
    {"cert.through_records_per_edge", "count"},
    {"core.verify_sweep_ms", "ms"},
    {"core.verify_sweep_ms_t1", "ms"},
    {"core.check_us_p50", "us"},
    {"core.check_us_p99", "us"},
    {"core.sweep_cache_hit_ratio", "ratio"},
    {"core.sweep_cache_entries", "count"},
    {"core.stripe_contention", "count"},
    {"runtime.apply_edits_us", "us"},
    {"runtime.epoch_slots", "count"},
    {"core.reverify_us", "us"},
    {"core.dirty_vertices_per_batch", "count"},
    {"core.corrupt_reject_share", "ratio"},
    {"serve.prove_ms_p50", "ms"},
    {"serve.verify_ms_p50", "ms"},
    {"serve.reverify_ms_p50", "ms"},
    {"serve.result_cache_hit_ratio", "ratio"},
    {"serve.plan_cache_hit_ratio", "ratio"},
    {"serve.plan_builds", "count"},
    {"serve.plan_builds_coalesced", "count"},
    {"serve.rejected_jobs", "count"},
    {"snapshot.hit_ratio", "ratio"},
    {"snapshot.load_ms_mean", "ms"},
    {"snapshot.bytes_per_plan", "B"},
    {"net.overhead_p50_ms", "ms"},
    {"net.req_wall_p50_ms", "ms"},
    {"net.cert_bytes_per_response", "B"},
    {"net.stream_encode_reuse_ratio", "ratio"},
    {"net.short_writes", "count"},
    {"net.quota_rejected", "count"},
}};

}  // namespace perfbench
