#include "bgp/mrt_text.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "bgp/mrt_stream.hpp"

namespace georank::bgp {
namespace {

RouteEntry sample_entry() {
  return RouteEntry{VpId{0xC0A80101, 701},
                    *Prefix::parse("10.0.0.0/16"),
                    AsPath{701, 3356, 1299}};
}

TEST(MrtText, WriterFormat) {
  std::ostringstream os;
  MrtTextWriter writer{os, 1000};
  writer.write_entry(sample_entry(), 2);
  EXPECT_EQ(os.str(),
            "TABLE_DUMP2|173800|B|192.168.1.1|701|10.0.0.0/16|701 3356 1299|IGP\n");
}

TEST(MrtText, CollectionRoundTrip) {
  RibCollection in;
  in.days.resize(2);
  in.days[0].day = 0;
  in.days[1].day = 1;
  for (int i = 0; i < 5; ++i) {
    RouteEntry e = sample_entry();
    e.prefix = Prefix{static_cast<std::uint32_t>(0x0A000000 + i * 0x10000), 16};
    in.days[0].entries.push_back(e);
    in.days[1].entries.push_back(e);
  }
  std::string text = to_mrt_text(in);
  MrtStreamLoader loader;
  RibCollection out = loader.load_text(text);
  ASSERT_EQ(out.days.size(), 2u);
  EXPECT_EQ(out.days[0].entries, in.days[0].entries);
  EXPECT_EQ(out.days[1].entries, in.days[1].entries);
  EXPECT_EQ(loader.stats().parsed, 10u);
  EXPECT_EQ(loader.stats().malformed, 0u);
}

}  // namespace
}  // namespace georank::bgp
