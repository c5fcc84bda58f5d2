#include "harness/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/groups.hpp"

namespace netclone::harness {
namespace {

TEST(ScenarioParse, DefaultsAndOverrides) {
  const Scenario s = parse_scenario(R"(
    scheme = baseline
    servers = 4
    workers = 8
    loads = 0.2, 0.5
    mean_us = 50
  )");
  EXPECT_EQ(s.scheme, Scheme::kBaseline);
  EXPECT_EQ(s.servers, 4U);
  EXPECT_EQ(s.workers, 8U);
  EXPECT_EQ(s.loads, (std::vector<double>{0.2, 0.5}));
  EXPECT_DOUBLE_EQ(s.mean_us, 50.0);
  // Untouched keys keep their defaults.
  EXPECT_EQ(s.clients, 2U);
  EXPECT_EQ(s.workload, "exp");
}

TEST(ScenarioParse, CommentsAndBlankLines) {
  const Scenario s = parse_scenario(
      "# full-line comment\n\nscheme = netclone  # trailing comment\n");
  EXPECT_EQ(s.scheme, Scheme::kNetClone);
}

TEST(ScenarioParse, LaterKeysWin) {
  const Scenario s =
      parse_scenario("servers = 4\nservers = 6\nscheme = cclone\n");
  EXPECT_EQ(s.servers, 6U);
  EXPECT_EQ(s.scheme, Scheme::kCClone);
}

TEST(ScenarioParse, AllSchemesRecognized) {
  EXPECT_EQ(parse_scheme("baseline"), Scheme::kBaseline);
  EXPECT_EQ(parse_scheme("C-Clone"), Scheme::kCClone);
  EXPECT_EQ(parse_scheme("LAEDGE"), Scheme::kLaedge);
  EXPECT_EQ(parse_scheme("NetClone"), Scheme::kNetClone);
  EXPECT_EQ(parse_scheme("netclone-nofilter"), Scheme::kNetCloneNoFilter);
  EXPECT_EQ(parse_scheme("racksched"), Scheme::kRackSched);
  EXPECT_EQ(parse_scheme("netclone-racksched"),
            Scheme::kNetCloneRackSched);
  EXPECT_THROW((void)parse_scheme("quantum"), ScenarioError);
}

TEST(ScenarioParse, Errors) {
  EXPECT_THROW((void)parse_scenario("bogus_key = 1\n"), ScenarioError);
  EXPECT_THROW((void)parse_scenario("servers\n"), ScenarioError);
  EXPECT_THROW((void)parse_scenario("servers =\n"), ScenarioError);
  EXPECT_THROW((void)parse_scenario("servers = few\n"), ScenarioError);
  EXPECT_THROW((void)parse_scenario("servers = 1\n"), ScenarioError);
  EXPECT_THROW((void)parse_scenario("clients = 0\n"), ScenarioError);
  EXPECT_THROW((void)parse_scenario("workload = exotic\n"), ScenarioError);
  EXPECT_THROW((void)parse_scenario("loads = 0.5,-1\n"), ScenarioError);
  EXPECT_THROW((void)parse_scenario("loads = \n"), ScenarioError);
  EXPECT_THROW((void)parse_scenario("servers = 2.5\n"), ScenarioError);
}

/// Captures the ScenarioError message for a bad input (fails the test if
/// the input parses).
std::string parse_error(const std::string& text) {
  try {
    (void)parse_scenario(text);
  } catch (const ScenarioError& err) {
    return err.what();
  }
  ADD_FAILURE() << "expected ScenarioError for:\n" << text;
  return "";
}

TEST(ScenarioDiagnostics, NumericErrorsCarryLineAndKey) {
  const std::string msg = parse_error("servers = few\n");
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("servers"), std::string::npos) << msg;
  EXPECT_NE(msg.find("few"), std::string::npos) << msg;

  // The line counter tracks blank/comment lines too.
  const std::string later =
      parse_error("# header\n\nservers = 4\nflash_x = fast\n");
  EXPECT_NE(later.find("line 4"), std::string::npos) << later;
  EXPECT_NE(later.find("flash_x"), std::string::npos) << later;
}

TEST(ScenarioParse, IntegerKeysRoundTripExactly) {
  // 2^53 + 1 is the first integer a double cannot hold; 2^64 - 1 is the
  // largest u64.
  EXPECT_EQ(parse_scenario("seed = 9007199254740993\n").seed,
            9007199254740993ULL);
  EXPECT_EQ(parse_scenario("seed = 18446744073709551615\n").seed,
            18446744073709551615ULL);
  EXPECT_EQ(parse_scenario("workers = 4294967295\n").workers, 4294967295U);
}

TEST(ScenarioDiagnostics, OutOfRangeIntegersCarryLineAndKey) {
  const std::string cases[][2] = {
      {"seed", "18446744073709551616"},  // 2^64
      {"seed", "inf"},
      {"seed", "1e30"},
      {"kv_objects", "-1"},
      {"kv_objects", "0"},
      {"kv_objects", "1073741825"},  // kv::kMaxObjects + 1
      {"workers", "4294967296"},  // 2^32
  };
  for (const auto& [key, value] : cases) {
    const std::string msg =
        parse_error("servers = 4\n" + key + " = " + value + "\n");
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find(key), std::string::npos) << msg;
  }
}

TEST(ScenarioDiagnostics, ShardsIsAnUnknownKey) {
  const std::string msg = parse_error("servers = 4\n\nshards = 3\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown key 'shards'"), std::string::npos) << msg;
}

TEST(ScenarioDiagnostics, StructuralErrorsCarryLine) {
  const std::string missing_eq = parse_error("servers\n");
  EXPECT_NE(missing_eq.find("line 1"), std::string::npos) << missing_eq;
  const std::string empty = parse_error("servers = 4\nseed =\n");
  EXPECT_NE(empty.find("line 2"), std::string::npos) << empty;
  EXPECT_NE(empty.find("seed"), std::string::npos) << empty;
  const std::string unknown = parse_error("zzz = 1\n");
  EXPECT_NE(unknown.find("line 1"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("zzz"), std::string::npos) << unknown;
}

TEST(ScenarioDiagnostics, FaultErrorsCarryLine) {
  const std::string msg =
      parse_error("servers = 4\nfault = at=2s teleport sw0\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(ScenarioDiagnostics, FileErrorsCarryPath) {
  const std::string path = ::testing::TempDir() + "netclone_bad.cfg";
  {
    std::ofstream out{path};
    out << "servers = 4\nworkers = oops\n";
  }
  try {
    (void)load_scenario_file(path);
    ADD_FAILURE() << "expected ScenarioError";
  } catch (const ScenarioError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

TEST(ScenarioParse, FatTreeKeys) {
  const Scenario s = parse_scenario(R"(
    racks = 3
    servers_per_rack = 4
    aggs = 2
    agg_mode = replicated
    shape = diurnal
    skew = 1.1
    hotspot_rack = 2
    hotspot_share = 0.6
  )");
  EXPECT_EQ(s.racks, 3u);
  EXPECT_EQ(s.servers_per_rack, 4u);
  EXPECT_EQ(s.aggs, 2u);
  EXPECT_EQ(s.agg_mode, "replicated");
  EXPECT_EQ(s.total_servers(), 12u);
  ASSERT_TRUE(s.hotspot_rack.has_value());
  EXPECT_EQ(*s.hotspot_rack, 2u);
  // Classic scenarios count `servers` instead.
  EXPECT_EQ(parse_scenario("servers = 5\n").total_servers(), 5u);
}

TEST(ScenarioParse, GeneratorKeyValidation) {
  const std::string tree = "racks = 2\nservers_per_rack = 2\n";
  EXPECT_NE(parse_error(tree + "agg_mode = weird\n").find("agg_mode"),
            std::string::npos);
  EXPECT_NE(parse_error("shape = square\n").find("square"),
            std::string::npos);
  EXPECT_NE(parse_error("shape = flash\nflash_x = 0\n").find("flash_x"),
            std::string::npos);
  EXPECT_NE(parse_error("shape = diurnal\ndiurnal_min = 2\n")
                .find("diurnal_min"),
            std::string::npos);
  EXPECT_NE(parse_error("skew = -1\n").find("skew"), std::string::npos);
  EXPECT_NE(parse_error(tree + "hotspot_rack = 5\n").find("hotspot_rack"),
            std::string::npos);
  EXPECT_NE(parse_error(tree + "hotspot_rack = 0\nhotspot_share = 1.5\n")
                .find("hotspot_share"),
            std::string::npos);
  // A hotspot needs a rack structure; the fat tree is NetClone-only
  // and needs >= 2 servers. Fault lines parse in fat-tree scenarios
  // too — they route through MultiRackExperiment.
  EXPECT_NE(parse_error("hotspot_rack = 0\n").find("racks"),
            std::string::npos);
  EXPECT_EQ(
      parse_scenario(tree + "fault = at=2ms agg_fail agg0\n").faults.events
          .size(),
      1u);
  EXPECT_NE(parse_error(tree + "scheme = baseline\n").find("netclone"),
            std::string::npos);
  EXPECT_THROW((void)parse_scenario("racks = 1\nservers_per_rack = 1\n"),
               ScenarioError);
  EXPECT_THROW((void)parse_scenario(tree + "aggs = 0\n"), ScenarioError);
}

TEST(ScenarioBuild, TrafficShapesReachClientTemplate) {
  const Scenario s = parse_scenario(
      "servers = 4\nshape = flash\nflash_at_ms = 3\nflash_len_ms = 2\n"
      "flash_x = 5\nskew = 1.0\n");
  const ClusterConfig cfg = s.build_config();
  ASSERT_EQ(cfg.client_template.rate_profile.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.client_template.rate_profile[0].multiplier, 5.0);
  // 4 servers -> C(4,2) unordered candidate pairs... doubled to ordered
  // groups by build_group_pairs; the weight vector must match.
  EXPECT_EQ(cfg.client_template.group_weights.size(),
            core::build_group_pairs(4).size());
  // Steady + no skew leaves the template untouched (digest compat).
  const ClusterConfig plain =
      parse_scenario("servers = 4\n").build_config();
  EXPECT_TRUE(plain.client_template.rate_profile.empty());
  EXPECT_TRUE(plain.client_template.group_weights.empty());
}

TEST(ScenarioBuild, MultiRackConfigWiring) {
  const Scenario s = parse_scenario(R"(
    racks = 2
    servers_per_rack = 3
    aggs = 2
    agg_mode = replicated
    workers = 8
    clients = 3
    seed = 9
  )");
  const MultiRackConfig cfg = s.build_multirack_config();
  EXPECT_EQ(cfg.server_racks, 2u);
  EXPECT_EQ(cfg.servers_per_rack, 3u);
  EXPECT_EQ(cfg.num_aggs, 2u);
  EXPECT_EQ(cfg.agg_mode, AggMode::kReplicated);
  EXPECT_EQ(cfg.workers, 8u);
  EXPECT_EQ(cfg.num_clients, 3u);
  EXPECT_EQ(cfg.seed, 9u);
  ASSERT_NE(cfg.factory, nullptr);
  // Capacity counts all racks' hosts.
  const double expected = 6.0 * 8.0 * 1e6 / (25.0 * 1.14);
  EXPECT_NEAR(s.capacity_rps(), expected, expected * 1e-9);
}

TEST(ScenarioParse, TemplateParsesCleanly) {
  const Scenario s = parse_scenario(default_scenario_text());
  EXPECT_EQ(s.scheme, Scheme::kNetClone);
  EXPECT_EQ(s.servers, 6U);
}

TEST(ScenarioFile, MissingFileThrows) {
  EXPECT_THROW((void)load_scenario_file("/nonexistent/scenario.cfg"),
               ScenarioError);
}

TEST(ScenarioFile, RoundTripThroughDisk) {
  const std::string path = ::testing::TempDir() + "netclone_scenario.cfg";
  {
    std::ofstream out{path};
    out << "scheme = racksched\nservers = 3\n";
  }
  const Scenario s = load_scenario_file(path);
  EXPECT_EQ(s.scheme, Scheme::kRackSched);
  EXPECT_EQ(s.servers, 3U);
  std::remove(path.c_str());
}

TEST(ScenarioFile, OverridesFollowTheFilesLines) {
  const std::string path = ::testing::TempDir() + "netclone_overrides.cfg";
  {
    std::ofstream out{path};
    out << "scheme = racksched\nservers = 3";
  }
  const Scenario s = load_scenario_file(path, {"servers=5", "workers=8"});
  EXPECT_EQ(s.scheme, Scheme::kRackSched);
  EXPECT_EQ(s.servers, 5U);
  EXPECT_EQ(s.workers, 8U);
  try {
    (void)load_scenario_file(path, {"servers=5", "workers=oops"});
    ADD_FAILURE() << "expected ScenarioError";
  } catch (const ScenarioError& err) {
    const std::string msg = err.what();
    EXPECT_EQ(msg.rfind(path + " + overrides: line 4:", 0), 0U) << msg;
  }
  std::remove(path.c_str());
}

TEST(ScenarioBuild, SyntheticConfigWiring) {
  Scenario s = parse_scenario("workload = bimodal\nservers = 3\n");
  const ClusterConfig cfg = s.build_config();
  EXPECT_EQ(cfg.server_workers.size(), 3U);
  EXPECT_EQ(cfg.factory->label(), "Bimodal(90%-25,10%-250)");
  // Capacity uses the jitter-inflated mean.
  const double expected =
      3.0 * 16.0 * 1e6 / (cfg.factory->mean_intrinsic_us() * 1.14);
  EXPECT_NEAR(s.capacity_rps(), expected, expected * 1e-9);
}

TEST(ScenarioBuild, KvConfigWiring) {
  Scenario s = parse_scenario(
      "workload = memcached\nkv_objects = 1000\nget_fraction = 0.9\n");
  const ClusterConfig cfg = s.build_config();
  EXPECT_EQ(cfg.factory->label(), "Memcached 90%-GET,10%-SCAN");
}

TEST(ScenarioBuild, KvCapacityUsesTheRequestMixMean) {
  const Scenario s = parse_scenario(
      "workload = redis\nkv_objects = 1000\nget_fraction = 0.9\n"
      "servers = 3\n");
  // Redis: a GET costs 5 us, a SCAN(100) 5 + 100 x 1 us.
  const double mean_us = 0.9 * 5.0 + 0.1 * (5.0 + 100.0 * 1.0);
  const double expected = 3.0 * 16.0 * 1e6 / (mean_us * 1.14);
  EXPECT_NEAR(s.capacity_rps(), expected, expected * 1e-9);
}

TEST(ScenarioRun, EndToEndTinySweep) {
  Scenario s = parse_scenario(R"(
    scheme = netclone
    servers = 2
    workers = 4
    loads = 0.3
    measure_ms = 4
    warmup_ms = 1
    title = tiny
  )");
  const auto points = s.run();
  ASSERT_EQ(points.size(), 1U);
  EXPECT_GT(points[0].result.completed, 0U);
  EXPECT_GT(points[0].result.cloned_requests, 0U);
}

TEST(ScenarioRun, CsvExport) {
  const std::string path = ::testing::TempDir() + "netclone_sweep.csv";
  Scenario s = parse_scenario("servers = 2\nworkers = 4\nloads = 0.2\n"
                              "measure_ms = 3\nwarmup_ms = 1\ncsv = " +
                              path + "\n");
  (void)s.run();
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("p99_us"), std::string::npos);
  std::string row;
  std::getline(in, row);
  EXPECT_NE(row.find("NetClone"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace netclone::harness
