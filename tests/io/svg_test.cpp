#include "io/svg.h"

#include <gtest/gtest.h>

#include <fstream>

#include "gen/generator.h"
#include "test_dir.h"

namespace mch::io {
namespace {

db::Design sample_design() {
  gen::GeneratorOptions opts;
  opts.seed = 9;
  return gen::generate_random_design(30, 5, 0.4, opts);
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++count;
  return count;
}

TEST(SvgTest, WellFormedDocument) {
  const std::string svg = render_svg(sample_design());
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("xmlns"), std::string::npos);
}

TEST(SvgTest, OneRectPerCellPlusBackgroundAndRows) {
  const db::Design d = sample_design();
  const std::string svg = render_svg(d);
  // background + rows + cells
  EXPECT_EQ(count_occurrences(svg, "<rect"),
            1 + d.chip().num_rows + d.num_cells());
}

TEST(SvgTest, DisplacementLinesToggle) {
  db::Design d = sample_design();
  // Move every cell so a displacement segment exists.
  for (db::Cell& cell : d.cells()) cell.x += 1.0;
  SvgOptions with;
  with.draw_displacement = true;
  EXPECT_EQ(count_occurrences(render_svg(d, with), "<line"), d.num_cells());
  SvgOptions without;
  without.draw_displacement = false;
  EXPECT_EQ(count_occurrences(render_svg(d, without), "<line"), 0u);
}

TEST(SvgTest, RowShadingToggle) {
  const db::Design d = sample_design();
  SvgOptions no_rows;
  no_rows.draw_rows = false;
  EXPECT_EQ(count_occurrences(render_svg(d, no_rows), "<rect"),
            1 + d.num_cells());
}

TEST(SvgTest, WindowCullsOutsideCells) {
  db::Design d = sample_design();
  SvgOptions window;
  window.draw_displacement = false;
  window.draw_rows = false;
  window.window_x = 0;
  window.window_y = 0;
  window.window_w = 1.0;  // tiny window: most cells culled
  window.window_h = 1.0;
  const std::string svg = render_svg(d, window);
  EXPECT_LT(count_occurrences(svg, "<rect"), 1 + d.num_cells());
}

TEST(SvgTest, MultiRowCellsColoredDifferently) {
  const db::Design d = sample_design();
  const std::string svg = render_svg(d);
  EXPECT_NE(svg.find("#1f4e9c"), std::string::npos);  // multi-row fill
  EXPECT_NE(svg.find("#5b8ed6"), std::string::npos);  // single fill
}

TEST(SvgTest, FixedMacrosGrayAndWithoutDisplacementLines) {
  gen::GeneratorOptions opts;
  opts.seed = 10;
  opts.fixed_macros = 2;
  db::Design d = gen::generate_random_design(20, 3, 0.3, opts);
  for (db::Cell& cell : d.cells())
    if (!cell.fixed) cell.x += 1.0;  // movables get displacement lines
  SvgOptions options;
  options.draw_displacement = true;
  const std::string svg = render_svg(d, options);
  EXPECT_NE(svg.find("#8a8a8a"), std::string::npos);  // macro fill
  // Lines only for the movable cells.
  EXPECT_EQ(count_occurrences(svg, "<line"),
            d.num_cells() - d.num_fixed_cells());
}

TEST(SvgTest, SaveWritesFile) {
  const std::string path = test_dir() + "/mch_svg_test.svg";
  save_svg(path, sample_design());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line.rfind("<svg", 0), 0u);
}

}  // namespace
}  // namespace mch::io
