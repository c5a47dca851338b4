// The `campaign` workload: one op is one model::run_shard followed by
// CornerAccumulator::fold, walking the full 324-cell expand_grid in
// canonical order (seeds = 1, 2000 bits per shard) and wrapping around.
// Runs stop only after whole passes, so every run covers the same corner
// mix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/fleet_campaign.hpp"
#include "report.hpp"

namespace perfbench {

namespace model = ::ptrng::model;

inline constexpr std::size_t kCampaignBitsPerShard = 2000;

/// The benchmark's campaign configuration for a run seed.
[[nodiscard]] model::CampaignConfig campaign_config(std::uint64_t seed);

/// Shard class of a grid cell: ero, ero_attacked, multi_ring,
/// multi_ring_attacked or cell_array.
[[nodiscard]] std::string shard_class(const model::CornerSpec& spec);

/// One op: runs shard `s` of the campaign the way run_campaign does
/// (cell s / seeds, seed chunk_seed(config.seed, s)), wrapping around the
/// grid, and folds it into that cell's accumulator.
void fold_shard(const std::vector<model::CornerSpec>& grid,
                const model::CampaignConfig& config,
                std::vector<model::CornerAccumulator>& accs, std::uint64_t s);

/// Bit-exact equality of two accumulators (moments and counters).
[[nodiscard]] bool same_accumulator(const model::CornerAccumulator& a,
                                    const model::CornerAccumulator& b);

/// Checks that the loop's accumulators folded exactly one shard per op.
void check_folded(Result& result, std::uint64_t folded, std::size_t ops);

/// Checks that run_campaign's accumulators equal the benchmark's own
/// run_shard + fold over the same shards.
void check_campaign_accumulators(
    Result& result, const std::vector<model::CornerAccumulator>& library,
    const std::vector<model::CornerAccumulator>& own);

}  // namespace perfbench
