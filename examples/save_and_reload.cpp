// Persistence workflow: generate a benchmark instance, save it in the
// bookshelf-lite format, reload it, legalize the copy, and verify the two
// paths agree — the pattern for distributing reproducible instances.
//
//   ./save_and_reload [benchmark-name] [path]
//
// The path defaults to <benchmark-name>.mchdesign in the working directory.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "eval/metrics.h"
#include "gen/generator.h"
#include "io/design_io.h"
#include "legal/flow.h"

int main(int argc, char** argv) {
  using namespace mch;
  const std::string name = argc > 1 ? argv[1] : "fft_a";
  const std::string path = argc > 2 ? argv[2] : name + ".mchdesign";

  gen::GeneratorOptions options;
  options.scale = 0.05;
  db::Design original = gen::generate_design(gen::find_spec(name), options);

  io::save_design(path, original);
  std::printf("saved %s (%zu cells, %zu nets) to %s\n", name.c_str(),
              original.num_cells(), original.num_nets(), path.c_str());

  db::Design reloaded = io::load_design(path);
  std::printf("reloaded: %zu cells, %zu nets\n", reloaded.num_cells(),
              reloaded.num_nets());

  const legal::FlowResult a = legal::legalize(original);
  const legal::FlowResult b = legal::legalize(reloaded);
  const double disp_a = eval::displacement(original).total_sites;
  const double disp_b = eval::displacement(reloaded).total_sites;
  std::printf("legalized original: %.2f sites (legal: %s)\n", disp_a,
              a.legal ? "yes" : "no");
  std::printf("legalized reload:   %.2f sites (legal: %s)\n", disp_b,
              b.legal ? "yes" : "no");
  const bool match = disp_a == disp_b;
  std::printf(match ? "bit-identical results — the format round-trips.\n"
                    : "MISMATCH — serialization lost information!\n");
  return match && a.legal && b.legal ? 0 : 1;
}
