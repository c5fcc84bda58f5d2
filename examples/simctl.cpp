// Command-line simulator front end.
//
//   ./build/examples/simctl --template            # print a template
//   ./build/examples/simctl scenario.cfg          # run a file
//   ./build/examples/simctl scenario.cfg scheme=baseline loads=0.5
//
// Trailing key=value arguments override the file, so one scenario can be
// swept across schemes from a shell loop.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/scenario.hpp"

using namespace netclone;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --template | <scenario.cfg> [key=value ...]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage(argv[0]);
  }
  if (std::strcmp(argv[1], "--template") == 0) {
    std::fputs(harness::default_scenario_text().c_str(), stdout);
    return 0;
  }
  try {
    const harness::Scenario scenario = harness::load_scenario_file(
        argv[1], std::vector<std::string>(argv + 2, argv + argc));
    std::printf("capacity estimate: %.0f KRPS\n",
                scenario.capacity_rps() / 1e3);
    (void)scenario.run();
    return 0;
  } catch (const harness::ScenarioError& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return 1;
  }
}
