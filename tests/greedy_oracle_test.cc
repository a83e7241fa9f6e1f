// The library's clustering against tests/greedy_oracle.h on the inputs of
// `anonymize_csv --synthetic` (its default seed 7): 60 x 50-point trips, as WCOP-CT
// clusters them and as WCOP-SA clusters their TRACLUS segments; 60 x 300
// (multi-word EDR rows); 2,000 x 8 (clusters take members from the
// implicit run of the reach scan); and 16 far-apart tiles x 125 x 8 (every
// cross-tile pair separated). Each runs at threads 1 and 4 under both pivot
// policies and must produce the oracle's clusters, trash, rounds and
// candidate-pair charges.

#include <gtest/gtest.h>

#include "anon/wcop_ct.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "greedy_oracle.h"
#include "segment/traclus.h"
#include "traj/resample.h"

namespace wcop {
namespace {

using testing_util::ExpectGreedyMatchesOracle;

/// anonymize_csv's default `--seed`; it draws the requirements from
/// seed + 1 and clusters with seed + 2.
constexpr uint64_t kCliSeed = 7;

/// The dataset `anonymize_csv --synthetic --trajectories=N --points=P
/// [--synthetic-tiles=T]` anonymizes at its defaults: `--max-points=500`,
/// `--assign-k=5`, `--assign-delta=250`, `--tile-spacing=200000`.
Dataset CliSynthetic(size_t trajectories, size_t points, size_t tiles = 1) {
  const SyntheticOptions gen =
      SyntheticOptions::CommandLine(kCliSeed, trajectories, points);
  Dataset dataset =
      DownsampleDataset(tiles > 1 ? GenerateTiledSyntheticGeoLife(
                                        gen, tiles, 200000.0)
                                        .value()
                                  : GenerateSyntheticGeoLife(gen).value(),
                        500);
  Rng rng(kCliSeed + 1);
  AssignUniformRequirements(&dataset, 2, 5, 10.0, 250.0, &rng);
  return dataset;
}

/// Checks the clustering RunWcopCt runs on `dataset` (the CLI's seed)
/// against the oracle.
void ExpectCtClusteringMatchesOracle(const Dataset& dataset) {
  WcopOptions options;
  options.seed = kCliSeed + 2;
  options = ResolveOptions(dataset, options);
  const size_t trash_max = static_cast<size_t>(
      options.trash_fraction * static_cast<double>(dataset.size()));
  for (const testing_util::ClusteringRun& oracle :
       ExpectGreedyMatchesOracle(dataset, trash_max, options)) {
    ASSERT_TRUE(oracle.outcome.ok()) << oracle.outcome.status();
    EXPECT_FALSE(oracle.outcome->clusters.empty());
  }
}

TEST(GreedyOracleTest, CtAndTraclusSegmentsAt60x50) {
  const Dataset dataset = CliSynthetic(60, 50);
  {
    SCOPED_TRACE("ct");
    ExpectCtClusteringMatchesOracle(dataset);
  }
  SCOPED_TRACE("sa-traclus");
  TraclusSegmenter traclus((TraclusOptions()));
  Result<Dataset> segments = traclus.Segment(dataset);
  ASSERT_TRUE(segments.ok()) << segments.status();
  ASSERT_GT(segments->size(), dataset.size());
  ExpectCtClusteringMatchesOracle(*segments);
}

TEST(GreedyOracleTest, MultiWordTripsAt60x300) {
  ExpectCtClusteringMatchesOracle(CliSynthetic(60, 300));
}

TEST(GreedyOracleTest, ManyShortTripsAt2000x8) {
  ExpectCtClusteringMatchesOracle(CliSynthetic(2000, 8));
}

TEST(GreedyOracleTest, SixteenFarApartTiles) {
  ExpectCtClusteringMatchesOracle(CliSynthetic(125, 8, 16));
}

}  // namespace
}  // namespace wcop
