// Fleet-scale Monte Carlo corner campaign CLI (model/fleet_campaign.hpp):
// expands the {generator x node x operating corner x flicker x attack}
// grid, simulates `--seeds` devices per corner on the thread pool, and
// prints the per-corner verdict table. With `--checkpoint`
// the campaign snapshots after every batch and `--resume` continues a
// killed run — the final report is BYTE-IDENTICAL to an uninterrupted
// run (the CI kill-and-resume smoke relies on exactly that).
//
// Usage: fleet_campaign [options]
//   --corners N       grid cells to run (0 = full grid; default 12)
//   --seeds N         devices per corner            (default 4)
//   --bits N          raw bits per device           (default 20000)
//   --seed X          campaign base seed            (default 0xf1ee7ca5)
//   --divider N       eRO / multi-ring divider      (default 200)
//   --batch N         shards per batch/checkpoint   (default 64)
//   --checkpoint F    snapshot file (enables checkpointing)
//   --resume          continue from --checkpoint if present
//   --max-shards N    fold at most N shards, then checkpoint and exit 3
//   --report-json F   write the versioned JSON report to F
//   --quiet           suppress the progress lines
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "model/fleet_campaign.hpp"

namespace {

std::uint64_t parse_u64(const char* s) {
  return std::strtoull(s, nullptr, 0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ptrng;

  model::CampaignConfig config;
  config.corners = 12;
  config.seeds = 4;
  std::string report_json;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0;
    };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << argv[i] << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg("--corners")) {
      config.corners = static_cast<std::size_t>(parse_u64(value()));
    } else if (arg("--seeds")) {
      config.seeds = static_cast<std::size_t>(parse_u64(value()));
    } else if (arg("--bits")) {
      config.bits_per_shard = static_cast<std::size_t>(parse_u64(value()));
    } else if (arg("--seed")) {
      config.seed = parse_u64(value());
    } else if (arg("--divider")) {
      config.divider = static_cast<std::uint32_t>(parse_u64(value()));
    } else if (arg("--batch")) {
      config.batch_size = static_cast<std::size_t>(parse_u64(value()));
    } else if (arg("--checkpoint")) {
      config.checkpoint_path = value();
    } else if (arg("--resume")) {
      config.resume = true;
    } else if (arg("--max-shards")) {
      config.max_shards = static_cast<std::size_t>(parse_u64(value()));
    } else if (arg("--report-json")) {
      report_json = value();
    } else if (arg("--quiet")) {
      quiet = true;
    } else {
      std::cerr << "unknown option: " << argv[i] << "\n";
      return 2;
    }
  }
  if (!quiet) {
    config.progress = [](std::uint64_t folded, std::uint64_t total) {
      std::cerr << "  " << folded << "/" << total << " shards folded\n";
    };
  }

  const auto report = model::run_campaign(config);
  std::cout << report.table();
  if (!report_json.empty()) {
    std::ofstream out(report_json, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "cannot write " << report_json << "\n";
      return 1;
    }
    out << report.json() << "\n";
  }
  if (!report.complete) {
    std::cout << "campaign interrupted at " << report.shards_folded << "/"
              << report.shards_total
              << " shards; re-run with --resume to continue\n";
    return 3;
  }
  return 0;
}
