// Small generated design families shared by the legal/ suites' parametrized
// contracts (tiered vs the monolithic oracle, partition invariants, one-shot
// purity). Each family stresses a different part of the model: obstacles
// that split row chains, rows near capacity, multi-row cells that couple
// many rows, wide cells, and GP inputs far from legal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

#include "gen/generator.h"

namespace mch::legal::testing {

struct DesignFamily {
  const char* name;
  std::size_t singles;
  std::size_t doubles;
  double density;
  std::size_t macros;
  std::uint64_t seed;
  double triple_fraction = 0.0;
  double quad_fraction = 0.0;
  int max_width_sites = 12;
  double noise_x_sites = 1.5;
  double noise_y_rows = 0.1;
};

inline db::Design generate(const DesignFamily& family) {
  gen::GeneratorOptions options;
  options.seed = family.seed;
  options.nets_per_cell = 0.0;
  options.fixed_macros = family.macros;
  options.triple_fraction = family.triple_fraction;
  options.quad_fraction = family.quad_fraction;
  options.max_width_sites = family.max_width_sites;
  options.noise_x_sites = family.noise_x_sites;
  options.noise_y_rows = family.noise_y_rows;
  return gen::generate_random_design(family.singles, family.doubles,
                                     family.density, options);
}

inline std::ostream& operator<<(std::ostream& os, const DesignFamily& f) {
  return os << f.name;
}

inline const DesignFamily kDesignFamilies[] = {
    {"macros", 300, 40, 0.6, 6, 11},
    {"dense_macros", 300, 40, 0.8, 4, 12},
    {"sparse", 300, 40, 0.35, 3, 13},
    {"single_height", 340, 0, 0.7, 0, 14},
    {"double_heavy", 200, 120, 0.6, 4, 15},
    // No macros: with 4 this mix fails to converge in both solve modes, an
    // open defect recorded in ROADMAP.md.
    {"tall", 300, 30, 0.6, 0, 16, /*triple=*/0.05, /*quad=*/0.03},
    {"wide_cells", 250, 30, 0.6, 4, 17, 0.0, 0.0, /*max_width=*/24},
    {"noisy_gp", 300, 40, 0.6, 4, 18, 0.0, 0.0, 12, /*noise_x=*/6.0,
     /*noise_y=*/0.4},
};

/// gtest name generator: the family name as the instance suffix.
struct FamilyName {
  template <typename ParamInfo>
  std::string operator()(const ParamInfo& info) const {
    return info.param.name;
  }
};

}  // namespace mch::legal::testing
