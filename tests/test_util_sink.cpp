#include "util/sink.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace tv::util {
namespace {

struct Spec {
  std::string name;
};

using IntSink = Sink<Spec, int>;

/// Records every call as a string, so ordering across begin/cell/end shows.
class LogSink : public IntSink {
 public:
  void begin(const Spec& spec) override { log.push_back("begin " + spec.name); }
  void cell(const int& item) override {
    log.push_back("cell " + std::to_string(item));
  }
  void end() override { log.push_back("end"); }
  std::vector<std::string> log;
};

TEST(Sink, CollectKeepsOrder) {
  CollectSink<Spec, int> collect;
  IntSink& sink = collect;
  sink.begin(Spec{"grid"});
  for (int i : {3, 1, 2}) sink.cell(i);
  sink.end();
  EXPECT_EQ(collect.results, (std::vector<int>{3, 1, 2}));
}

TEST(Sink, TeeFansOutAndSkipsNull) {
  CollectSink<Spec, int> a, b;
  TeeSink<Spec, int> tee;
  tee.add(&a);
  tee.add(nullptr);
  tee.add(&b);
  tee.cell(7);
  tee.cell(9);
  EXPECT_EQ(a.results, (std::vector<int>{7, 9}));
  EXPECT_EQ(b.results, (std::vector<int>{7, 9}));
}

TEST(Sink, TeeForwardsBeginAndEnd) {
  LogSink first, second;
  TeeSink<Spec, int> tee;
  tee.add(&first);
  tee.add(&second);
  tee.begin(Spec{"grid"});
  tee.cell(4);
  tee.end();
  const std::vector<std::string> expected{"begin grid", "cell 4", "end"};
  EXPECT_EQ(first.log, expected);
  EXPECT_EQ(second.log, expected);
}

}  // namespace
}  // namespace tv::util
