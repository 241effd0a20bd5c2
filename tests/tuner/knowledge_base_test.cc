#include "tuner/knowledge_base.h"

#include <gtest/gtest.h>

namespace mron::tuner {
namespace {

using mapreduce::JobConfig;

TEST(KnowledgeBase, StoreAndLookup) {
  TuningKnowledgeBase kb;
  JobConfig cfg;
  cfg.io_sort_mb = 256;
  kb.store("Terasort", cfg, 1.5);
  const auto got = kb.lookup("Terasort");
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->io_sort_mb, 256);
  EXPECT_FALSE(kb.lookup("Unknown").has_value());
}

TEST(KnowledgeBase, KeepsCheaperEntry) {
  TuningKnowledgeBase kb;
  JobConfig cheap, pricey;
  cheap.io_sort_mb = 111;
  pricey.io_sort_mb = 999;
  kb.store("job", cheap, 1.0);
  kb.store("job", pricey, 2.0);  // worse: ignored
  EXPECT_DOUBLE_EQ(kb.lookup("job")->io_sort_mb, 111);
  kb.store("job", pricey, 0.5);  // better: replaces
  EXPECT_DOUBLE_EQ(kb.lookup("job")->io_sort_mb, 999);
}

TEST(KnowledgeBase, SerializeRoundTrips) {
  // Tuned values are arbitrary doubles, not round numbers: every bit must
  // survive the text format, or a reused config is not the stored one.
  TuningKnowledgeBase kb;
  JobConfig cfg;
  cfg.io_sort_mb = 320;  // an integer parameter: set() rounds it
  cfg.sort_spill_percent = 0.54260869565217396;
  cfg.shuffle_input_buffer_percent = 1.0 / 3.0;
  cfg.map_memory_mb = 640;
  cfg.shuffle_parallelcopies = 30;
  kb.store("WC/wiki", cfg, 2.2500000000000004);
  kb.store("Terasort", JobConfig{}, 3.0);

  TuningKnowledgeBase other;
  EXPECT_EQ(other.deserialize(kb.serialize()), 2);
  const auto got = other.lookup("WC/wiki");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->io_sort_mb, 320);
  EXPECT_EQ(got->sort_spill_percent, 0.54260869565217396);
  EXPECT_EQ(got->shuffle_input_buffer_percent, 1.0 / 3.0);
  EXPECT_EQ(got->map_memory_mb, 640);
  EXPECT_EQ(got->shuffle_parallelcopies, 30);
  EXPECT_EQ(other.lookup_entry("WC/wiki")->cost, 2.2500000000000004);
  EXPECT_EQ(other.serialize(), kb.serialize());
}

TEST(KnowledgeBase, DeserializeSkipsGarbage) {
  TuningKnowledgeBase kb;
  EXPECT_EQ(kb.deserialize("\n\nnot-a-valid-line\n"), 0);
  EXPECT_EQ(kb.size(), 0u);
}

}  // namespace
}  // namespace mron::tuner
