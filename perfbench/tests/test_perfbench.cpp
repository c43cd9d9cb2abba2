// Self-tests of the benchmark's own code: the timing wrappers change no
// simulated result, metric names are well formed, the percentile rule picks
// the right tail, and the output checks catch corrupted reports.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <regex>
#include <sstream>

#include "probe.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

FleetSpec small_fleet(const std::string& name) {
  return shrink(fleet_spec(name, 5), 8, 300);
}

TEST(Wrappers, LeaveTheDigestUnchanged) {
  for (const std::string name : {"fleet_scale", "fleet_features"}) {
    SCOPED_TRACE(name);
    const FleetSpec spec = small_fleet(name);
    const FleetRun bare = run_fleet(spec, 1, nullptr, /*wrap=*/false);
    Recorder rec;
    const FleetRun timed = run_fleet(spec, 1, &rec, /*wrap=*/true);
    const FleetRun quiet = run_fleet(spec, 1, nullptr, /*wrap=*/true);
    EXPECT_EQ(fleet_digest(bare.report), fleet_digest(timed.report));
    EXPECT_EQ(fleet_digest(bare.report), fleet_digest(quiet.report));
    EXPECT_EQ(rec.samples("dispatch.pick_ns").size(), rec.samples("dispatch.view").size());
    EXPECT_GE(rec.samples("dispatch.pick_ns").size(), 300u);
    EXPECT_EQ(rec.samples("arrivals.next_ns").size(), 301u);  // 300 requests + end
    if (spec.autoscale) {
      EXPECT_FALSE(rec.samples("autoscale.decide_ns").empty());
    }
  }
}

TEST(Wrappers, FeatureFleetDigestIsThreadCountFree) {
  const FleetSpec spec = small_fleet("fleet_features");
  EXPECT_EQ(fleet_digest(run_fleet(spec, 1, nullptr).report),
            fleet_digest(run_fleet(spec, 4, nullptr).report));
}

TEST(Wrappers, SetupProbeStopsAtTheFirstPull) {
  const double s = probe_fleet_setup(small_fleet("fleet_scale"), 1);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 10.0);
}

TEST(MetricNames, ValidatorAcceptsOnlyTheAllowedAlphabet) {
  EXPECT_TRUE(valid_metric_name("wall_s"));
  EXPECT_TRUE(valid_metric_name("strategy.md_lb.run_layer_us_p99"));
  EXPECT_TRUE(valid_metric_name("9-lives"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_lead"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/ed"));
  EXPECT_FALSE(valid_metric_name("pct%"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricNames, EveryDeclaredNameIsValid) {
  std::ifstream f{PERFBENCH_DECLARATION};
  ASSERT_TRUE(f.good()) << PERFBENCH_DECLARATION;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  const std::regex name_re{"\"name\": \"([^\"]*)\""};
  std::size_t n = 0;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), name_re);
       it != std::sregex_iterator(); ++it, ++n) {
    EXPECT_TRUE(valid_metric_name((*it)[1].str())) << (*it)[1].str();
  }
  EXPECT_GT(n, 40u);
}

TEST(PercentileRule, PicksTheHighestTailWithTenSamplesBeyond) {
  EXPECT_EQ(tail_permille(0), 500);
  EXPECT_EQ(tail_permille(10), 500);
  EXPECT_EQ(tail_permille(39), 500);
  EXPECT_EQ(tail_permille(40), 750);
  EXPECT_EQ(tail_permille(99), 750);
  EXPECT_EQ(tail_permille(100), 900);
  EXPECT_EQ(tail_permille(199), 900);
  EXPECT_EQ(tail_permille(200), 950);
  EXPECT_EQ(tail_permille(999), 950);
  EXPECT_EQ(tail_permille(1000), 990);
  EXPECT_EQ(tail_permille(9999), 990);
  EXPECT_EQ(tail_permille(10000), 999);
  EXPECT_EQ(permille_label(999), "p99.9");
  EXPECT_EQ(permille_label(990), "p99");
}

TEST(PercentileRule, SummaryUsesNearestRank) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail_permille, 990);
  EXPECT_EQ(s.tail, 990.0);
  // Exactly ten samples lie beyond the reported tail.
  EXPECT_EQ(std::count_if(v.begin(), v.end(), [&](double x) { return x > s.tail; }), 10);
}

TEST(OutputCheck, CorruptedFleetReportsFail) {
  const FleetRun run = run_fleet(small_fleet("fleet_scale"), 1, nullptr);
  ASSERT_EQ(fleet_failures(run.arrived, run.report), 0u);
  ASSERT_FALSE(run.report.requests.empty());

  monde::serve::ClusterReport late = run.report;
  late.requests[0].first_token = late.requests[0].completion + monde::Duration::nanos(1.0);
  EXPECT_EQ(fleet_failures(run.arrived, late), 1u);

  monde::serve::ClusterReport twice = run.report;
  twice.requests.push_back(twice.requests.back());
  EXPECT_GE(fleet_failures(run.arrived, twice), 1u);

  monde::serve::ClusterReport lost = run.report;
  lost.requests.pop_back();
  EXPECT_EQ(fleet_failures(run.arrived, lost), 1u);

  monde::serve::ClusterReport moved = run.report;
  moved.requests[3].arrival = moved.requests[3].arrival + monde::Duration::nanos(1.0);
  EXPECT_GE(fleet_failures(run.arrived, moved), 1u);

  monde::serve::ClusterReport stranger = run.report;
  stranger.requests[0].id = 1u << 30;
  EXPECT_EQ(fleet_failures(run.arrived, stranger), run.arrived.size());
}

TEST(OutputCheck, CorruptedFig6GridsFail) {
  Fig6Row good;
  good.tput[0] = 10.0;  // GPU+PM
  good.tput[1] = 20.0;  // MD+AM
  good.tput[2] = 30.0;  // MD+LB
  good.tput[3] = 40.0;  // Ideal
  EXPECT_EQ(fig6_failures({good, good}), 0u);

  Fig6Row nan = good;
  nan.tput[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(fig6_failures({good, nan}), 1u);

  Fig6Row zero = good;
  zero.tput[3] = 0.0;
  EXPECT_EQ(fig6_failures({zero}), 1u);

  Fig6Row inverted = good;
  inverted.tput[2] = 5.0;  // MD+LB below GPU+PM fails the whole row
  EXPECT_EQ(fig6_failures({good, inverted}), 4u);

  EXPECT_NE(fig6_digest({good}), fig6_digest({inverted}));
}

TEST(OutputCheck, Fig6ResultsDoNotDependOnRunOrder) {
  const auto sim = [] {
    const auto sys = monde::core::SystemConfig::dac24();
    return std::make_shared<monde::ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);
  };
  const std::vector<Fig6Row> a = run_fig6(1, {1}, sim(), nullptr);
  const std::vector<Fig6Row> b = run_fig6(2, {1}, sim(), nullptr);
  EXPECT_EQ(fig6_failures(a), 0u);
  EXPECT_EQ(fig6_digest(a), fig6_digest(b));
  EXPECT_EQ(paper_ratio_err_pct(a), paper_ratio_err_pct(b));
}

TEST(Recorder, SpansNestAndExportAsChromeTrace) {
  Recorder rec{3};
  {
    const Timed outer{&rec, "outer"};
    const Timed inner{&rec, "inner"};
  }
  { const Timed again{&rec, "again"}; }
  { const Timed dropped{&rec, "dropped"}; }  // over the cap: sampled, not kept
  EXPECT_EQ(rec.spans_kept(), 3u);
  EXPECT_EQ(rec.spans_dropped(), 1u);
  EXPECT_EQ(rec.samples("dropped").size(), 1u);
  const std::string json = rec.chrome_trace("w");
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"span\": 1, \"parent\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"span\": 2, \"parent\": -1"), std::string::npos);
  EXPECT_EQ(json.find("dropped"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
