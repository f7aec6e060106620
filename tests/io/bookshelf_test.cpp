#include "io/bookshelf.h"

#include <gtest/gtest.h>

#include <fstream>

#include "gen/generator.h"
#include "test_dir.h"
#include "util/check.h"

namespace mch::io {
namespace {

/// Writes a small hand-crafted Bookshelf bundle into the test's own
/// directory and returns the .aux path.
std::string write_sample_bundle() {
  const std::string dir = test_dir();
  {
    std::ofstream aux(dir + "/sample.aux");
    aux << "RowBasedPlacement : sample.nodes sample.nets sample.wts "
           "sample.pl sample.scl\n";
  }
  {
    std::ofstream nodes(dir + "/sample.nodes");
    nodes << "UCLA nodes 1.0\n"
          << "# comment line\n"
          << "NumNodes : 4\n"
          << "NumTerminals : 1\n"
          << "  a1  4  9\n"
          << "  a2  6  9\n"
          << "  tall  3  18\n"
          << "  blk  20 18 terminal\n";
  }
  {
    std::ofstream pl(dir + "/sample.pl");
    pl << "UCLA pl 1.0\n"
       << "a1   10.5  2.0 : N\n"
       << "a2   20.0  11.0 : N\n"
       << "tall 30.0  0.0  : N\n"
       << "blk  50.0  9.0  : N /FIXED\n";
  }
  {
    std::ofstream scl(dir + "/sample.scl");
    scl << "UCLA scl 1.0\n"
        << "NumRows : 4\n";
    for (int r = 0; r < 4; ++r)
      scl << "CoreRow Horizontal\n"
          << "  Coordinate : " << r * 9 << "\n"
          << "  Height : 9\n"
          << "  Sitewidth : 1\n"
          << "  Sitespacing : 1\n"
          << "  SubrowOrigin : 0 NumSites : 100\n"
          << "End\n";
  }
  {
    std::ofstream nets(dir + "/sample.nets");
    nets << "UCLA nets 1.0\n"
         << "NumNets : 1\n"
         << "NumPins : 2\n"
         << "NetDegree : 2  n0\n"
         << "  a1 I : 1.0 -2.5\n"
         << "  tall O : 0.0 0.0\n";
  }
  {
    std::ofstream wts(dir + "/sample.wts");
    wts << "UCLA wts 1.0\n";
  }
  return dir + "/sample.aux";
}

TEST(BookshelfTest, LoadsSampleBundle) {
  const db::Design design = load_bookshelf(write_sample_bundle());
  EXPECT_EQ(design.name, "sample");
  ASSERT_EQ(design.num_cells(), 4u);
  EXPECT_EQ(design.chip().num_rows, 4u);
  EXPECT_EQ(design.chip().num_sites, 100u);
  EXPECT_DOUBLE_EQ(design.chip().row_height, 9.0);

  const db::Cell& a1 = design.cells()[0];
  EXPECT_DOUBLE_EQ(a1.width, 4.0);
  EXPECT_EQ(a1.height_rows, 1u);
  EXPECT_FALSE(a1.fixed);
  EXPECT_DOUBLE_EQ(a1.gp_x, 10.5);
  EXPECT_DOUBLE_EQ(a1.gp_y, 2.0);

  const db::Cell& tall = design.cells()[2];
  EXPECT_EQ(tall.height_rows, 2u);
  EXPECT_FALSE(tall.fixed);
  // Rail of the nearest legal row (gp_y = 0 → row 0 → VSS).
  EXPECT_EQ(tall.bottom_rail, db::RailType::kVss);

  const db::Cell& blk = design.cells()[3];
  EXPECT_TRUE(blk.fixed);
  EXPECT_EQ(blk.height_rows, 2u);
}

TEST(BookshelfTest, PinOffsetsConvertedFromCenter) {
  const db::Design design = load_bookshelf(write_sample_bundle());
  ASSERT_EQ(design.num_nets(), 1u);
  const db::NetView net = design.nets()[0];
  ASSERT_EQ(net.pins.size(), 2u);
  // a1 is 4x9; Bookshelf offset (1, -2.5) from center → (3, 2) from corner.
  EXPECT_EQ(net.pins[0].cell, 0u);
  EXPECT_DOUBLE_EQ(net.pins[0].dx, 3.0);
  EXPECT_DOUBLE_EQ(net.pins[0].dy, 2.0);
  // tall is 3x18; center offset 0 → corner offset (1.5, 9).
  EXPECT_DOUBLE_EQ(net.pins[1].dx, 1.5);
  EXPECT_DOUBLE_EQ(net.pins[1].dy, 9.0);
}

TEST(BookshelfTest, RoundTripThroughWriter) {
  gen::GeneratorOptions options;
  options.seed = 4;
  options.fixed_macros = 2;
  options.row_height = 9.0;
  db::Design original = gen::generate_random_design(60, 8, 0.4, options);
  original.name = "rt";

  const std::string dir = test_dir();
  save_bookshelf(dir, "rt", original);
  const db::Design loaded = load_bookshelf(dir + "/rt.aux");

  ASSERT_EQ(loaded.num_cells(), original.num_cells());
  ASSERT_EQ(loaded.num_nets(), original.num_nets());
  EXPECT_EQ(loaded.chip().num_rows, original.chip().num_rows);
  EXPECT_EQ(loaded.chip().num_sites, original.chip().num_sites);
  for (std::size_t i = 0; i < loaded.num_cells(); ++i) {
    const db::Cell& a = loaded.cells()[i];
    const db::Cell& b = original.cells()[i];
    EXPECT_DOUBLE_EQ(a.width, b.width) << i;
    EXPECT_EQ(a.height_rows, b.height_rows) << i;
    EXPECT_EQ(a.fixed, b.fixed) << i;
    EXPECT_DOUBLE_EQ(a.gp_x, b.x) << i;  // .pl stores current positions
    EXPECT_DOUBLE_EQ(a.gp_y, b.y) << i;
  }
  for (std::size_t n = 0; n < loaded.num_nets(); ++n) {
    ASSERT_EQ(loaded.nets()[n].pins.size(), original.nets()[n].pins.size());
    for (std::size_t p = 0; p < loaded.nets()[n].pins.size(); ++p) {
      EXPECT_EQ(loaded.nets()[n].pins[p].cell,
                original.nets()[n].pins[p].cell);
      EXPECT_NEAR(loaded.nets()[n].pins[p].dx,
                  original.nets()[n].pins[p].dx, 1e-9);
    }
  }
}

TEST(BookshelfTest, MissingAuxThrows) {
  EXPECT_THROW(load_bookshelf("/nonexistent/x.aux"), CheckError);
}

TEST(BookshelfTest, NonRowMultipleMovableRejected) {
  const std::string dir = test_dir();
  {
    std::ofstream aux(dir + "/bad.aux");
    aux << "RowBasedPlacement : bad.nodes bad.nets bad.wts bad.pl bad.scl\n";
  }
  {
    std::ofstream nodes(dir + "/bad.nodes");
    nodes << "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n a 4 7.5\n";
  }
  {
    std::ofstream pl(dir + "/bad.pl");
    pl << "UCLA pl 1.0\na 0 0 : N\n";
  }
  {
    std::ofstream scl(dir + "/bad.scl");
    scl << "UCLA scl 1.0\nNumRows : 2\n"
        << "CoreRow Horizontal\n  Coordinate : 0\n  Height : 9\n"
        << "  Sitewidth : 1\n  Sitespacing : 1\n"
        << "  SubrowOrigin : 0 NumSites : 50\nEnd\n"
        << "CoreRow Horizontal\n  Coordinate : 9\n  Height : 9\n"
        << "  Sitewidth : 1\n  Sitespacing : 1\n"
        << "  SubrowOrigin : 0 NumSites : 50\nEnd\n";
  }
  {
    std::ofstream nets(dir + "/bad.nets");
    nets << "UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n";
  }
  EXPECT_THROW(load_bookshelf(dir + "/bad.aux"), CheckError);
}

TEST(BookshelfTest, CoordinateShiftToOrigin) {
  // Rows starting at y = 100, origin x = 50: everything shifts to (0, 0).
  const std::string dir = test_dir();
  {
    std::ofstream aux(dir + "/s.aux");
    aux << "RowBasedPlacement : s.nodes s.nets s.wts s.pl s.scl\n";
  }
  {
    std::ofstream nodes(dir + "/s.nodes");
    nodes << "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n a 4 9\n";
  }
  {
    std::ofstream pl(dir + "/s.pl");
    pl << "UCLA pl 1.0\na 60 109 : N\n";
  }
  {
    std::ofstream scl(dir + "/s.scl");
    scl << "UCLA scl 1.0\nNumRows : 2\n"
        << "CoreRow Horizontal\n  Coordinate : 100\n  Height : 9\n"
        << "  Sitewidth : 1\n  Sitespacing : 1\n"
        << "  SubrowOrigin : 50 NumSites : 40\nEnd\n"
        << "CoreRow Horizontal\n  Coordinate : 109\n  Height : 9\n"
        << "  Sitewidth : 1\n  Sitespacing : 1\n"
        << "  SubrowOrigin : 50 NumSites : 40\nEnd\n";
  }
  {
    std::ofstream nets(dir + "/s.nets");
    nets << "UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n";
  }
  const db::Design design = load_bookshelf(dir + "/s.aux");
  EXPECT_DOUBLE_EQ(design.cells()[0].gp_x, 10.0);
  EXPECT_DOUBLE_EQ(design.cells()[0].gp_y, 9.0);
}

}  // namespace
}  // namespace mch::io
