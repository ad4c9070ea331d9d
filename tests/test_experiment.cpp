#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include "exp/shard_scheduler.hpp"

namespace ncb {
namespace {

TEST(ExperimentConfig, DescribeMentionsKeyFields) {
  const auto c = fig3_config();
  const auto text = c.describe();
  EXPECT_NE(text.find("K=100"), std::string::npos);
  EXPECT_NE(text.find("n=10000"), std::string::npos);
  EXPECT_NE(text.find("ER(p=0.3)"), std::string::npos);
}

TEST(ExperimentConfig, FigureDefaultsMatchPaper) {
  EXPECT_EQ(fig3_config().num_arms, 100u);
  EXPECT_EQ(fig3_config().horizon, 10000);
  EXPECT_EQ(fig5_config().num_arms, 100u);
  EXPECT_DOUBLE_EQ(fig4_config(false).edge_probability, 0.3);
  EXPECT_DOUBLE_EQ(fig4_config(true).edge_probability, 0.6);
  EXPECT_EQ(fig4_config(false).strategy_size, 3u);
  EXPECT_EQ(fig6_config().horizon, 10000);
}

TEST(BuildGraph, DeterministicForFixedSeed) {
  const auto c = fig3_config();
  const Graph a = build_graph(c);
  const Graph b = build_graph(c);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_EQ(a.num_vertices(), 100u);
}

TEST(BuildGraph, AllFamiliesConstruct) {
  ExperimentConfig c;
  c.num_arms = 12;
  for (const auto fam :
       {GraphFamily::kErdosRenyi, GraphFamily::kComplete, GraphFamily::kEmpty,
        GraphFamily::kStar, GraphFamily::kCycle,
        GraphFamily::kDisjointCliques, GraphFamily::kBarabasiAlbert,
        GraphFamily::kWattsStrogatz}) {
    c.graph_family = fam;
    c.family_param = fam == GraphFamily::kWattsStrogatz ? 2 : 4;
    if (fam == GraphFamily::kWattsStrogatz) c.edge_probability = 0.2;
    const Graph g = build_graph(c);
    EXPECT_EQ(g.num_vertices(), 12u) << c.describe();
  }
}

TEST(BuildGraph, CliquesMustDivide) {
  ExperimentConfig c;
  c.graph_family = GraphFamily::kDisjointCliques;
  c.num_arms = 10;
  c.family_param = 3;
  EXPECT_THROW((void)build_graph(c), std::invalid_argument);
}

TEST(BuildInstance, MeansUniformAndDeterministic) {
  const auto c = fig3_config();
  const auto a = build_instance(c);
  const auto b = build_instance(c);
  EXPECT_EQ(a.means(), b.means());
  for (const double mu : a.means()) {
    EXPECT_GE(mu, 0.0);
    EXPECT_LE(mu, 1.0);
  }
}

TEST(BuildFamily, RespectsStrategySize) {
  auto c = fig4_config(false);
  c.num_arms = 8;
  const auto inst = build_instance(c);
  const auto family = build_family(c, inst.graph());
  EXPECT_EQ(family->max_strategy_size(), 3u);
  // |F| = C(8,1)+C(8,2)+C(8,3) = 8+28+56 = 92.
  EXPECT_EQ(family->size(), 92u);
}

TEST(RunSingleExperiment, SmallEndToEnd) {
  ExperimentConfig c;
  c.num_arms = 10;
  c.horizon = 300;
  c.replications = 3;
  const auto result = run_single_experiment(c, "dfl-sso", Scenario::kSso);
  EXPECT_EQ(result.replications, 3u);
  EXPECT_EQ(result.per_slot_regret.length(), 300u);
}

TEST(RunCombinatorialExperiment, SmallEndToEnd) {
  ExperimentConfig c;
  c.num_arms = 6;
  c.horizon = 200;
  c.replications = 2;
  c.strategy_size = 2;
  ThreadPool pool(2);
  const auto result =
      run_combinatorial_experiment(c, "dfl-cso", Scenario::kCso, &pool);
  EXPECT_EQ(result.replications, 2u);
  EXPECT_EQ(result.accumulated_regret().size(), 200u);
}

TEST(RunSingleExperiment, UnknownPolicyThrows) {
  ExperimentConfig c;
  c.num_arms = 4;
  c.horizon = 10;
  c.replications = 1;
  EXPECT_THROW((void)run_single_experiment(c, "bogus", Scenario::kSso),
               std::invalid_argument);
}

TEST(ScenarioNames, AllDistinct) {
  EXPECT_EQ(scenario_name(Scenario::kSso), "SSO");
  EXPECT_EQ(scenario_name(Scenario::kCso), "CSO");
  EXPECT_EQ(scenario_name(Scenario::kSsr), "SSR");
  EXPECT_EQ(scenario_name(Scenario::kCsr), "CSR");
  EXPECT_TRUE(is_combinatorial(Scenario::kCso));
  EXPECT_FALSE(is_combinatorial(Scenario::kSsr));
  EXPECT_TRUE(is_side_reward(Scenario::kCsr));
  EXPECT_FALSE(is_side_reward(Scenario::kSso));
}

}  // namespace
}  // namespace ncb
