// Example: dump the virtual-time spans of one rank, making the
// asynchronous scheduler's overlap visible — offloads, kernel windows, MPI
// activity, and idle waits, exactly the behavior of Fig 4.
//
//   $ ./trace_viewer [--variant=acc.async] [--ranks=2] [--rank=0] [--steps=1]
//
// With --json=FILE the same run is exported as a Chrome/Perfetto trace of
// every rank instead of a text dump.

#include <cstdio>
#include <fstream>

#include "apps/burgers/burgers_app.h"
#include "obs/chrome_trace.h"
#include "obs/span.h"
#include "runtime/controller.h"
#include "runtime/observe.h"
#include "support/options.h"

int main(int argc, char** argv) {
  using namespace usw;
  const Options opts(argc, argv);

  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({2, 2, 1}, {16, 16, 32});
  config.variant = runtime::variant_by_name(opts.get("variant", "acc.async"));
  config.nranks = static_cast<int>(opts.get_int("ranks", 2));
  config.timesteps = static_cast<int>(opts.get_int("steps", 1));
  config.storage = var::StorageMode::kFunctional;
  config.collect_trace = true;

  apps::burgers::BurgersApp app;
  const runtime::RunResult result = runtime::run_simulation(config, app);

  const std::string json = opts.get("json", "");
  if (!json.empty()) {
    std::ofstream os(json);
    if (!os) {
      std::fprintf(stderr, "trace_viewer: cannot write '%s'\n", json.c_str());
      return 1;
    }
    obs::write_chrome_trace(os, runtime::observe(result));
    std::printf("wrote Chrome trace of %d ranks to %s\n", config.nranks,
                json.c_str());
    return 0;
  }

  const int rank = static_cast<int>(opts.get_int("rank", 0));
  const runtime::RankResult& r = result.ranks.at(static_cast<std::size_t>(rank));
  const std::vector<obs::Span>& spans = *r.trace;
  std::printf("--- rank %d trace (%zu spans), variant %s ---\n", rank, spans.size(),
              config.variant.name.c_str());
  std::fputs(obs::dump_spans(spans, *r.init_graph_info, *r.graph_info).c_str(), stdout);
  std::printf("--- total CPE kernel time: %s; total MPE idle: %s ---\n",
              format_duration(obs::covered_time(spans, obs::SpanKind::kKernel)).c_str(),
              format_duration(obs::covered_time(spans, obs::SpanKind::kWait)).c_str());
  return 0;
}
