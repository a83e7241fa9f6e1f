#include "attack/adversary.h"

#include <algorithm>
#include <numeric>

#include "anon/uncertainty.h"
#include "common/rng.h"

namespace wcop {
namespace attack {

Result<AdversaryModel> AdversaryPreset(const std::string& name) {
  AdversaryModel model;
  if (name.empty() || name == "moderate") {
    model.observations = 5;
    model.noise = 25.0;
    model.pmc_delta = 0.0;
    model.tau_seconds = 1800.0;
    model.epsilon = 250.0;
    return model;
  }
  if (name == "weak") {
    model.observations = 3;
    model.noise = 100.0;
    model.pmc_delta = 250.0;
    model.tau_seconds = 900.0;
    model.epsilon = 500.0;
    return model;
  }
  if (name == "strong") {
    model.observations = 10;
    model.noise = 0.0;
    model.pmc_delta = 0.0;
    model.tau_seconds = 3600.0;
    model.epsilon = 100.0;
    return model;
  }
  return Status::InvalidArgument("unknown adversary preset '" + name +
                                 "' (expected weak|moderate|strong)");
}

std::vector<Point> SampleObservations(const Trajectory& truth,
                                      const AdversaryModel& model,
                                      uint64_t stream) {
  Rng rng(MixSeed(model.seed, stream));
  // The uncertainty-aware adversary (Definition 1) observes a possible
  // motion curve of the victim, not the recorded polyline itself.
  Trajectory curve;
  if (model.pmc_delta > 0.0) {
    curve = SamplePossibleMotionCurve(truth, model.pmc_delta, &rng);
  }
  const Trajectory& source = model.pmc_delta > 0.0 ? curve : truth;
  std::vector<Point> observations;
  observations.reserve(model.observations);
  for (size_t o = 0; o < model.observations; ++o) {
    Point p = source[rng.UniformIndex(source.size())];
    if (model.noise > 0.0) {
      p.x += rng.Gaussian(0.0, model.noise);
      p.y += rng.Gaussian(0.0, model.noise);
    }
    observations.push_back(p);
  }
  return observations;
}

std::vector<size_t> DrawSubset(size_t universe, size_t cap, uint64_t seed) {
  std::vector<size_t> picked(universe);
  std::iota(picked.begin(), picked.end(), 0);
  if (cap > 0 && cap < picked.size()) {
    Rng rng(seed);
    std::shuffle(picked.begin(), picked.end(), rng.engine());
    picked.resize(cap);
    std::sort(picked.begin(), picked.end());
  }
  return picked;
}

}  // namespace attack
}  // namespace wcop
