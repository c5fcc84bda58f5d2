#include "pisa/pipeline.hpp"

#include <gtest/gtest.h>

#include "pisa/audit.hpp"
#include "pisa/resources.hpp"

namespace netclone::pisa {
namespace {

TEST(Pipeline, ResourceBeyondStageCountThrows) {
  Pipeline pipeline{4};
  EXPECT_THROW((void)RegisterScalar<int>(pipeline, "late", 4), CheckFailure);
  EXPECT_NO_THROW(RegisterScalar<int>(pipeline, "ok", 3));
}

TEST(Pipeline, ForwardAccessAcrossStages) {
  Pipeline pipeline;
  RegisterArray<int> early{pipeline, "early", 1, 8};
  RegisterArray<int> late{pipeline, "late", 5, 8};
  PipelinePass pass{pipeline};
  (void)early.read(pass, 0);
  (void)late.read(pass, 0);
  EXPECT_EQ(pass.current_stage(), 5U);
}

TEST(Pipeline, BackwardAccessThrows) {
  Pipeline pipeline;
  RegisterArray<int> early{pipeline, "early", 1, 8};
  RegisterArray<int> late{pipeline, "late", 5, 8};
  PipelinePass pass{pipeline};
  (void)late.read(pass, 0);
  EXPECT_THROW((void)early.read(pass, 0), CheckFailure);
}

TEST(Pipeline, DoubleAccessInOnePassThrows) {
  // The constraint that forces NetClone's shadow table (§3.4): one
  // register array cannot be read twice by the same packet.
  Pipeline pipeline;
  RegisterArray<int> state{pipeline, "StateT", 3, 8};
  PipelinePass pass{pipeline};
  (void)state.read(pass, 0);
  EXPECT_THROW((void)state.read(pass, 1), CheckFailure);
}

TEST(Pipeline, ShadowTablePatternWorks) {
  Pipeline pipeline;
  RegisterArray<int> state{pipeline, "StateT", 3, 8};
  RegisterArray<int> shadow{pipeline, "ShadowT", 4, 8};
  // Writes keep both consistent (one access to each per pass)...
  {
    PipelinePass pass{pipeline};
    state.write(pass, 2, 7);
    shadow.write(pass, 2, 7);
  }
  // ...so a later pass can observe two different indices.
  {
    PipelinePass pass{pipeline};
    EXPECT_EQ(state.read(pass, 2), 7);
    EXPECT_EQ(shadow.read(pass, 5), 0);
  }
}

TEST(Pipeline, FreshPassResetsAccessTracking) {
  Pipeline pipeline;
  RegisterScalar<int> seq{pipeline, "SEQ", 0};
  for (int i = 1; i <= 3; ++i) {
    PipelinePass pass{pipeline};
    EXPECT_EQ(seq.execute(pass, [](int& c) { return ++c; }), i);
  }
}

TEST(RegisterArray, ExecuteIsReadModifyWrite) {
  Pipeline pipeline;
  RegisterArray<std::uint32_t> filter{pipeline, "FilterT", 5, 16};
  {
    PipelinePass pass{pipeline};
    const bool hit = filter.execute(pass, 3, [](std::uint32_t& cell) {
      const bool match = cell == 77;
      cell = 77;
      return match;
    });
    EXPECT_FALSE(hit);
  }
  EXPECT_EQ(filter.peek(3), 77U);
  {
    PipelinePass pass{pipeline};
    const bool hit = filter.execute(pass, 3, [](std::uint32_t& cell) {
      const bool match = cell == 77;
      if (match) {
        cell = 0;
      }
      return match;
    });
    EXPECT_TRUE(hit);
  }
  EXPECT_EQ(filter.peek(3), 0U);
}

TEST(RegisterArray, OutOfRangeIndexThrows) {
  Pipeline pipeline;
  RegisterArray<int> arr{pipeline, "arr", 0, 4};
  PipelinePass pass{pipeline};
  EXPECT_THROW((void)arr.read(pass, 4), CheckFailure);
}

TEST(RegisterArray, InitialValueAndReset) {
  Pipeline pipeline;
  RegisterArray<int> arr{pipeline, "arr", 0, 4, 9};
  EXPECT_EQ(arr.peek(2), 9);
  {
    PipelinePass pass{pipeline};
    arr.write(pass, 2, 1);
  }
  EXPECT_EQ(arr.peek(2), 1);
  arr.reset();
  EXPECT_EQ(arr.peek(2), 9);
}

TEST(ExactMatchTable, InsertLookupEraseSemantics) {
  Pipeline pipeline;
  ExactMatchTable<int> table{pipeline, "T", 2, 4, 4, 4};
  table.insert(10, 100);
  table.insert(20, 200);
  EXPECT_EQ(table.entry_count(), 2U);
  {
    PipelinePass pass{pipeline};
    EXPECT_EQ(table.lookup(pass, 10), 100);
  }
  {
    PipelinePass pass{pipeline};
    EXPECT_EQ(table.lookup(pass, 30), std::nullopt);
  }
  table.erase(10);
  {
    PipelinePass pass{pipeline};
    EXPECT_EQ(table.lookup(pass, 10), std::nullopt);
  }
}

TEST(ExactMatchTable, OverwriteExistingKeyAllowedAtCapacity) {
  Pipeline pipeline;
  ExactMatchTable<int> table{pipeline, "T", 0, 2, 4, 4};
  table.insert(1, 1);
  table.insert(2, 2);
  EXPECT_NO_THROW(table.insert(1, 99));  // update, not growth
  EXPECT_THROW((void)table.insert(3, 3), CheckFailure);
}

TEST(ExactMatchTable, DoubleLookupThrows) {
  Pipeline pipeline;
  ExactMatchTable<int> table{pipeline, "T", 0, 4, 4, 4};
  table.insert(1, 1);
  PipelinePass pass{pipeline};
  (void)table.lookup(pass, 1);
  EXPECT_THROW((void)table.lookup(pass, 1), CheckFailure);
}

TEST(HashUnit, DeterministicAndBounded) {
  Pipeline pipeline;
  HashUnit hash{pipeline, "H", 5};
  PipelinePass pass{pipeline};
  const std::uint32_t a = hash.hash32(pass, 1234, 128);
  const std::uint32_t b = hash.hash32(pass, 1234, 128);  // stateless: ok
  EXPECT_EQ(a, b);
  EXPECT_LT(a, 128U);
}

TEST(HashUnit, StageOrderStillEnforced) {
  Pipeline pipeline;
  HashUnit hash{pipeline, "H", 2};
  RegisterArray<int> late{pipeline, "late", 5, 4};
  PipelinePass pass{pipeline};
  (void)late.read(pass, 0);
  EXPECT_THROW((void)hash.hash32(pass, 1, 8), CheckFailure);
}

TEST(RandomUnit, MultipleDrawsPerPass) {
  Pipeline pipeline;
  RandomUnit random{pipeline, "R", 0, 42};
  PipelinePass pass{pipeline};
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(random.next_below(pass, 6), 6U);
  }
}

TEST(Pipeline, ResetSoftStateClearsRegistersKeepsTables) {
  Pipeline pipeline;
  RegisterScalar<std::uint32_t> seq{pipeline, "SEQ", 0};
  RegisterArray<int> state{pipeline, "StateT", 3, 4};
  ExactMatchTable<int> table{pipeline, "GrpT", 1, 4, 2, 2};
  table.insert(0, 42);
  {
    PipelinePass pass{pipeline};
    (void)seq.execute(pass, [](std::uint32_t& c) { return ++c; });
    state.write(pass, 1, 5);
  }
  pipeline.reset_soft_state();
  EXPECT_EQ(seq.peek(), 0U);
  EXPECT_EQ(state.peek(1), 0);
  EXPECT_EQ(table.entry_count(), 1U);  // control-plane state survives
}

TEST(Audit, ReportsStageAndSramTotals) {
  Pipeline pipeline;
  RegisterScalar<std::uint32_t> seq{pipeline, "SEQ", 0};
  RegisterArray<std::uint32_t> filter{pipeline, "FilterT", 5,
                                      std::size_t{1} << 17};
  const AuditReport report = audit(pipeline);
  EXPECT_EQ(report.stages_used, 6U);
  EXPECT_EQ(report.stages_available, kDefaultStageCount);
  EXPECT_EQ(report.sram_bytes_total, 4U + (std::size_t{1} << 19));
  EXPECT_GT(report.sram_fraction, 0.0);
  EXPECT_LT(report.sram_fraction, 1.0);
  ASSERT_EQ(report.resources.size(), 2U);
  EXPECT_EQ(report.resources[0].name, "SEQ");
  EXPECT_FALSE(report.to_string().empty());
}

TEST(Audit, EmptyPipeline) {
  Pipeline pipeline;
  const AuditReport report = audit(pipeline);
  EXPECT_EQ(report.stages_used, 0U);
  EXPECT_EQ(report.sram_bytes_total, 0U);
}

}  // namespace
}  // namespace netclone::pisa
