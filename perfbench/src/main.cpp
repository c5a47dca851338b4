// perfbench: runs one workload of the ptrng benchmark and prints its
// result as the last line of standard output.
//
//   perfbench --workload raw|serve|campaign --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--git-head REV]
//
// --trace 0 times the workload's ops with tracing off and reports the
// end-to-end metrics. --trace 1 is the traced run: it covers all three
// workloads in this one process (each gets a third of S) whatever
// --workload names, because every traced run reports every per-layer
// metric; there --workload only names the output files. It records spans
// around every layer call, writes them to
// DIR/<workload>-seed<N>-trace1.spans.csv and reports the per-layer
// metrics. Every run makes its correctness checks; the exit code is 0
// only when all of them passed.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "host.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  RunOptions run;
  int trace = 0;
  std::string out_dir;
  std::string git_head;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload raw|serve|campaign --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--git-head REV]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.run.seed = std::stoull(value, &used);
        have_seed = used == value.size();
      } else if (key == "--seconds") {
        args.run.seconds = std::stod(value, &used);
        have_seconds = used == value.size() && args.run.seconds > 0.0 &&
                       args.run.seconds <= 60.0;
      } else if (key == "--trace") {
        have_trace = value == "0" || value == "1";
        args.trace = value == "1" ? 1 : 0;
      } else if (key == "--out-dir") {
        args.out_dir = value;
      } else if (key == "--git-head") {
        args.git_head = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (args.workload != "raw" && args.workload != "serve" &&
      args.workload != "campaign")
    usage("--workload must be raw, serve or campaign");
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (!have_seconds) usage("--seconds must be in (0, 60]");
  if (!have_trace) usage("--trace must be 0 or 1");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Result result;
  record_host(result, args.git_head);
  result.note("workload", args.workload);
  result.note("trace", std::to_string(args.trace));

  Tracer tracer;
  tracer.reserve(1u << 16);
  try {
    if (args.trace == 0) {
      if (args.workload == "raw") raw_end_to_end(args.run, result);
      if (args.workload == "serve") serve_end_to_end(args.run, result);
      if (args.workload == "campaign") campaign_end_to_end(args.run, result);
    } else {
      raw_traced(args.run, result, tracer);
      serve_traced(args.run, result, tracer);
      campaign_traced(args.run, result, tracer);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    result.check("workload completed", false, e.what());
  }

  const std::string detail = result.detail_json();
  if (!args.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.run.seed) + "-trace" +
                             std::to_string(args.trace);
    std::ofstream(stem + ".json") << detail << '\n'
                                  << result.summary_json() << '\n';
    if (args.trace == 1 && !tracer.write_csv(stem + ".spans.csv"))
      std::cerr << "perfbench: cannot write " << stem << ".spans.csv\n";
  }
  std::cout << detail << '\n' << result.summary_json() << std::endl;
  return result.correct() ? 0 : 1;
}
