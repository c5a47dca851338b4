// Entropy audit of an elementary RO-TRNG (the paper's security use case),
// written against the bit-stream pipeline API (trng/bit_stream.hpp).
//
// Generates raw bits from the simulated eRO-TRNG at a configurable
// sampling divider, then reports
//   * analytic entropy under the NAIVE model (total jitter assumed iid),
//   * analytic entropy under the REFINED model (thermal only),
//   * empirical Shannon / Markov / min-entropy,
//   * AIS31 procedure B verdict (T6, T7, T8),
//   * post-processing effect via Pipeline-composed BitTransforms
//     (XOR decimation, von Neumann) with an online-test tap on the raw
//     stream.
//
// Usage: entropy_audit [divider] [--raw-out <file>]     (default 2000)
//
// --raw-out dumps the raw stream the post-processing pipeline consumed
// into the versioned PTRNGRAW container (trng/raw_export.hpp) for
// external SP 800-90B estimation, then RE-READS the file and
// cross-checks it bit-for-bit and estimator-for-estimator against the
// in-process raw recorder; any disagreement exits nonzero.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "stats/descriptive.hpp"
#include "model/legacy_models.hpp"
#include "oscillator/oscillator_pair.hpp"
#include "trng/ais31.hpp"
#include "trng/bit_stream.hpp"
#include "trng/entropy.hpp"
#include "trng/ero_trng.hpp"
#include "trng/online_test.hpp"
#include "trng/postprocess.hpp"
#include "trng/raw_export.hpp"

int main(int argc, char** argv) {
  using namespace ptrng;
  using namespace ptrng::oscillator;

  std::uint32_t divider = 2000;
  std::string raw_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--raw-out") == 0 && i + 1 < argc) {
      raw_out = argv[++i];
    } else {
      divider = static_cast<std::uint32_t>(std::atoi(argv[i]));
    }
  }
  std::cout << "eRO-TRNG entropy audit, sampling divider K = " << divider
            << "\n\n";

  // Analytic accounting.
  const phase_noise::PhasePsd psd(paper::b_th, paper::b_fl, paper::f0);
  const auto naive = model::naive_from_psd(psd);
  const model::RefinedThermalModel refined(psd);
  const double v_naive = naive.accumulated_cycle_variance(divider);
  const double v_refined = refined.accumulated_cycle_variance(divider);
  std::cout << "accumulated phase variance per bit [cycles^2]:\n"
            << "  naive (total jitter iid): " << cell_sci(v_naive) << "\n"
            << "  refined (thermal only):   " << cell_sci(v_refined) << "\n"
            << "worst-case entropy lower bounds:\n"
            << "  H_naive   = " << cell(trng::entropy_lower_bound(v_naive), 6)
            << "\n  H_refined = "
            << cell(trng::entropy_lower_bound(v_refined), 6)
            << "   <- the security-relevant figure\n\n";

  // Empirical side: the eRO-TRNG is a BitSource; pull one raw block.
  const std::size_t need = trng::ais31::procedure_b_bits();
  std::cout << "generating " << need << " raw bits...\n";
  auto gen = trng::paper_trng(divider, 0xa0d17);
  const auto bits = gen.generate_bits(need);

  TableWriter emp({"estimator", "value [bits/bit]"});
  emp.add_row({"empirical bias |p-1/2|", cell(trng::bias(bits), 6)});
  emp.add_row({"Shannon (8-bit blocks)",
               cell(trng::shannon_block_entropy(bits, 8), 6)});
  emp.add_row({"Markov rate", cell(trng::markov_entropy_rate(bits), 6)});
  emp.add_row({"min-entropy (8-bit)", cell(trng::min_entropy(bits, 8), 6)});
  emp.print(std::cout);

  // AIS31 procedure B.
  std::cout << "\nAIS31 procedure B (raw sequence):\n";
  const auto proc = trng::ais31::procedure_b(bits);
  for (const auto& o : proc.outcomes)
    std::cout << "  " << (o.passed ? "PASS " : "FAIL ") << o.name << ": "
              << o.detail << "\n";
  std::cout << "  => " << (proc.passed ? "PASSED" : "FAILED") << "\n\n";

  // Post-processing comparison through the pipeline API: fresh sources
  // with the same seed replay the identical raw stream through different
  // transform chains. The XOR pipeline additionally carries an
  // online-test tap calibrated from the raw block above: per-window
  // ones-count variance (the embedded monitor the paper's conclusion
  // proposes, watching the source BEFORE post-processing can hide a
  // failure).
  trng::OnlineTestConfig mon_cfg;
  mon_cfg.n_cycles = 256;
  mon_cfg.windows_per_test = 64;
  mon_cfg.false_alarm = 1e-6;
  {
    // Calibrate the reference window variance from the raw block (the
    // same stats::variance the monitor's decisions use).
    std::vector<double> window_ones;
    for (std::size_t w = 0; w + mon_cfg.n_cycles <= bits.size();
         w += mon_cfg.n_cycles) {
      double ones = 0.0;
      for (std::size_t i = 0; i < mon_cfg.n_cycles; ++i)
        ones += (bits[w + i] & 1u);
      window_ones.push_back(ones);
    }
    mon_cfg.reference_sigma2 = stats::variance(window_ones);
  }
  trng::ThermalNoiseMonitor monitor(mon_cfg, /*f0=*/1.0);

  auto xor_src = trng::paper_trng(divider, 0xa0d17);
  trng::Pipeline xor_pipe(xor_src);
  xor_pipe.add_transform(std::make_unique<trng::XorDecimateTransform>(2))
      .attach_tap(monitor);

  // --raw-out: export the raw stream this pipeline pumps, and record it
  // in-process for the cross-check below. Both taps watch the SAME
  // blocks, in attachment order.
  std::ofstream raw_file;
  std::unique_ptr<trng::RawExportWriter> raw_writer;
  std::unique_ptr<trng::ExportTap> export_tap;
  trng::RawRecorderTap recorder_tap;
  if (!raw_out.empty()) {
    raw_file.open(raw_out, std::ios::binary | std::ios::trunc);
    if (!raw_file) {
      std::cerr << "cannot open " << raw_out << " for writing\n";
      return 1;
    }
    trng::RawExportHeader header;
    header.generator_id = "ero_trng";
    header.sample_width_bits = 1;
    header.config_digest = trng::config_digest(
        "ero_trng divider=" + std::to_string(divider) + " seed=0xa0d17");
    raw_writer = std::make_unique<trng::RawExportWriter>(raw_file, header);
    export_tap = std::make_unique<trng::ExportTap>(*raw_writer);
    xor_pipe.attach_tap(*export_tap).attach_tap(recorder_tap);
  }

  const auto xor2 = xor_pipe.generate_bits(need / 2);

  auto vn_src = trng::paper_trng(divider, 0xa0d17);
  trng::Pipeline vn_pipe(vn_src);
  vn_pipe.add_transform(std::make_unique<trng::VonNeumannTransform>());
  const auto vn = vn_pipe.generate_bits(need / 8);

  TableWriter post({"stream", "bits", "bias", "serial corr"});
  post.add_row({"raw", cell(bits.size()), cell(trng::bias(bits), 6),
                cell(trng::serial_correlation(bits), 6)});
  post.add_row({"xor/2", cell(xor2.size()), cell(trng::bias(xor2), 6),
                cell(trng::serial_correlation(xor2), 6)});
  post.add_row({"von Neumann", cell(vn.size()), cell(trng::bias(vn), 6),
                cell(trng::serial_correlation(vn), 6)});
  post.print(std::cout);
  std::cout << "online-test tap on the raw stream: " << monitor.decisions()
            << " decisions, " << monitor.alarms() << " alarms\n";

  // Export cross-check: what external tooling will read from the file
  // must match what this process measured, byte for byte and estimator
  // for estimator.
  if (!raw_out.empty()) {
    raw_file.close();
    std::ifstream in(raw_out, std::ios::binary);
    const auto data = trng::read_raw_export(in);
    std::cout << "\nraw export: " << data.samples.size() << " samples -> "
              << raw_out << " (generator \"" << data.header.generator_id
              << "\")\n"
              << "ea_noniid layout: strip the 64-byte header, e.g.\n"
              << "  tail -c +65 " << raw_out << " > raw.bin && "
              << "ea_non_iid raw.bin 1\n";
    if (data.samples != recorder_tap.bits()) {
      std::cerr << "EXPORT MISMATCH: file payload differs from the "
                   "in-process raw recorder\n";
      return 1;
    }
    const double h_file = trng::markov_entropy_rate(data.samples);
    const double h_live = trng::markov_entropy_rate(recorder_tap.bits());
    if (h_file != h_live) {
      std::cerr << "ESTIMATOR DISAGREEMENT: Markov rate on the exported "
                   "samples ("
                << h_file << ") != in-process rate (" << h_live << ")\n";
      return 1;
    }
    std::cout << "export cross-check: payload and estimator agree "
              << "(Markov rate " << h_file << ")\n";
  }

  std::cout << "\nNote: if H_refined is too low for your target, raise K "
               "(slower sampling) or add\nalgebraic post-processing — and "
               "size it using the REFINED model, not the naive one.\n";
  return 0;
}
