#include "io/design_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "gen/generator.h"
#include "test_dir.h"
#include "util/check.h"

namespace mch::io {
namespace {

db::Design sample_design() {
  gen::GeneratorOptions opts;
  opts.seed = 12;
  db::Design d = gen::generate_random_design(50, 8, 0.5, opts);
  d.name = "sample";
  return d;
}

TEST(DesignIoTest, RoundTripPreservesEverything) {
  const db::Design original = sample_design();
  std::stringstream ss;
  write_design(ss, original);
  const db::Design loaded = read_design(ss);

  EXPECT_EQ(loaded.name, original.name);
  EXPECT_EQ(loaded.chip().num_rows, original.chip().num_rows);
  EXPECT_EQ(loaded.chip().num_sites, original.chip().num_sites);
  EXPECT_DOUBLE_EQ(loaded.chip().site_width, original.chip().site_width);
  EXPECT_DOUBLE_EQ(loaded.chip().row_height, original.chip().row_height);
  EXPECT_EQ(loaded.chip().bottom_rail, original.chip().bottom_rail);

  ASSERT_EQ(loaded.num_cells(), original.num_cells());
  for (std::size_t i = 0; i < loaded.num_cells(); ++i) {
    const db::Cell& a = loaded.cells()[i];
    const db::Cell& b = original.cells()[i];
    EXPECT_DOUBLE_EQ(a.width, b.width);
    EXPECT_EQ(a.height_rows, b.height_rows);
    EXPECT_EQ(a.bottom_rail, b.bottom_rail);
    EXPECT_DOUBLE_EQ(a.gp_x, b.gp_x);
    EXPECT_DOUBLE_EQ(a.gp_y, b.gp_y);
    EXPECT_DOUBLE_EQ(a.x, b.x);
    EXPECT_DOUBLE_EQ(a.y, b.y);
  }

  ASSERT_EQ(loaded.num_nets(), original.num_nets());
  for (std::size_t i = 0; i < loaded.num_nets(); ++i) {
    const db::NetView a = loaded.nets()[i];
    const db::NetView b = original.nets()[i];
    ASSERT_EQ(a.pins.size(), b.pins.size());
    for (std::size_t p = 0; p < a.pins.size(); ++p) {
      EXPECT_EQ(a.pins[p].cell, b.pins[p].cell);
      EXPECT_DOUBLE_EQ(a.pins[p].dx, b.pins[p].dx);
      EXPECT_DOUBLE_EQ(a.pins[p].dy, b.pins[p].dy);
    }
  }
}

TEST(DesignIoTest, FileRoundTrip) {
  const db::Design original = sample_design();
  const std::string path = test_dir() + "/mch_io_test.design";
  save_design(path, original);
  const db::Design loaded = load_design(path);
  EXPECT_EQ(loaded.num_cells(), original.num_cells());
  EXPECT_EQ(loaded.num_nets(), original.num_nets());
}

TEST(DesignIoTest, BadMagicRejected) {
  std::stringstream ss("notadesign 1\n");
  EXPECT_THROW(read_design(ss), CheckError);
}

TEST(DesignIoTest, BadVersionRejected) {
  std::stringstream ss("mchdesign 99\n");
  EXPECT_THROW(read_design(ss), CheckError);
}

TEST(DesignIoTest, TruncatedCellsRejected) {
  std::stringstream ss(
      "mchdesign 2\nname t\nchip 4 10 1 10 VSS\ncells 2\n3 1 VSS 0 0 0 0 0\n");
  EXPECT_THROW(read_design(ss), CheckError);
}

TEST(DesignIoTest, BadRailTokenRejected) {
  std::stringstream ss(
      "mchdesign 2\nname t\nchip 4 10 1 10 XXX\ncells 0\nnets 0\n");
  EXPECT_THROW(read_design(ss), CheckError);
}

TEST(DesignIoTest, MissingFileThrows) {
  EXPECT_THROW(load_design("/nonexistent/path/foo.design"), CheckError);
}

TEST(DesignIoTest, Version1WithoutFixedFlagStillReads) {
  std::stringstream ss(
      "mchdesign 1\nname old\nchip 4 10 1 10 VSS\ncells 1\n"
      "3 1 VDD 2 0 2 0\nnets 0\n");
  const db::Design d = read_design(ss);
  ASSERT_EQ(d.num_cells(), 1u);
  EXPECT_FALSE(d.cells()[0].fixed);
  EXPECT_DOUBLE_EQ(d.cells()[0].gp_x, 2.0);
}

TEST(DesignIoTest, FixedFlagRoundTrips) {
  db::Chip chip;
  chip.num_rows = 4;
  chip.num_sites = 20;
  db::Design d(chip);
  db::Cell macro;
  macro.width = 5;
  macro.height_rows = 2;
  macro.fixed = true;
  macro.x = macro.gp_x = 5.0;
  macro.y = macro.gp_y = 0.0;
  d.add_cell(macro);
  std::stringstream ss;
  write_design(ss, d);
  const db::Design loaded = read_design(ss);
  ASSERT_EQ(loaded.num_cells(), 1u);
  EXPECT_TRUE(loaded.cells()[0].fixed);
}

TEST(DesignIoTest, EmptyDesignRoundTrips) {
  db::Chip chip;
  chip.num_rows = 2;
  chip.num_sites = 4;
  db::Design d(chip);
  std::stringstream ss;
  write_design(ss, d);
  const db::Design loaded = read_design(ss);
  EXPECT_EQ(loaded.num_cells(), 0u);
  EXPECT_EQ(loaded.name, "unnamed");
}

}  // namespace
}  // namespace mch::io
