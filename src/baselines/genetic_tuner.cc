#include "baselines/genetic_tuner.h"

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "common/check.h"
#include "sim/parallel_runner.h"

namespace mron::baselines {

using mapreduce::JobConfig;
using mapreduce::ParamRegistry;

namespace {

/// Genome = normalized coordinates over the full Table-2 registry.
std::vector<double> random_genome(Rng& rng, std::size_t dims) {
  std::vector<double> g(dims);
  for (auto& v : g) v = rng.uniform01();
  return g;
}

JobConfig decode(const std::vector<double>& genome) {
  const auto& reg = ParamRegistry::standard();
  JobConfig cfg;
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const auto& p = reg.at(i);
    reg.set(cfg, i, p.min + genome[i] * (p.max - p.min));
  }
  mapreduce::clamp_constraints(cfg);
  return cfg;
}

/// Memo key: every extended-registry value of a decoded (already clamped)
/// config, so genomes that decode to the same job share one entry.
/// std::map's `<` treats -0.0 and +0.0 as one key.
std::vector<double> memo_key(const JobConfig& cfg) {
  const auto& reg = ParamRegistry::extended();
  std::vector<double> key(reg.size());
  for (std::size_t i = 0; i < reg.size(); ++i) key[i] = reg.get(cfg, i);
  return key;
}

}  // namespace

GeneticOfflineTuner::GeneticOfflineTuner(GeneticOptions options)
    : options_(options), rng_(options.seed) {
  MRON_CHECK(options_.population >= 2);
}

JobConfig GeneticOfflineTuner::tune(const Evaluator& evaluate,
                                    int budget_runs) {
  MRON_CHECK(evaluate != nullptr);
  MRON_CHECK(budget_runs >= options_.population);
  const std::size_t dims = ParamRegistry::standard().size();

  struct Individual {
    std::vector<double> genome;
    double seconds = std::numeric_limits<double>::infinity();
  };
  std::vector<Individual> pop(static_cast<std::size_t>(options_.population));
  for (auto& ind : pop) ind.genome = random_genome(rng_, dims);
  // Seed one individual with the defaults so the GA never regresses below
  // them (Gunther does the same).
  pop[0].genome =
      [&] {
        const auto& reg = ParamRegistry::standard();
        std::vector<double> g(dims);
        const JobConfig def;
        for (std::size_t i = 0; i < dims; ++i) {
          const auto& p = reg.at(i);
          g[i] = p.max > p.min
                     ? (reg.get(def, i) - p.min) / (p.max - p.min)
                     : 0.0;
        }
        return g;
      }();

  // Fitness is memoized per decoded config for this tune() call:
  // quantization and clamping collapse distinct genomes onto the same job,
  // which then runs once. The budget still counts every logical
  // evaluation, so the GA's trajectory does not depend on the memo.
  std::map<std::vector<double>, double> memo;
  auto fitness = [&](const JobConfig& cfg) {
    auto [it, fresh] = memo.try_emplace(memo_key(cfg));
    if (fresh) it->second = evaluate(cfg);
    return it->second;
  };

  // Seeding wave: every initial individual is an independent full job run,
  // so fan the first occurrence of each distinct config across the pool.
  // Keys are built and fitness filled in index order, so the set of runs
  // and the result are identical at any options.jobs.
  const auto wave = static_cast<std::size_t>(
      std::min<int>(options_.population, budget_runs));
  std::vector<JobConfig> configs(wave);
  std::vector<std::vector<double>> keys(wave);
  std::vector<std::size_t> firsts;
  for (std::size_t i = 0; i < wave; ++i) {
    configs[i] = decode(pop[i].genome);
    keys[i] = memo_key(configs[i]);
    if (memo.try_emplace(keys[i]).second) firsts.push_back(i);
  }
  sim::ParallelRunner pool(options_.jobs);
  pool.for_each(firsts.size(), [&](std::size_t j) {
    memo.find(keys[firsts[j]])->second = evaluate(configs[firsts[j]]);
  });
  for (std::size_t i = 0; i < wave; ++i) pop[i].seconds = memo.at(keys[i]);
  runs_used_ = static_cast<int>(wave);

  auto tournament_pick = [&]() -> const Individual& {
    const Individual* best = nullptr;
    for (int i = 0; i < options_.tournament; ++i) {
      const auto& cand = pop[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(pop.size()) - 1))];
      if (best == nullptr || cand.seconds < best->seconds) best = &cand;
    }
    return *best;
  };

  while (runs_used_ < budget_runs) {
    // Offspring: uniform crossover of two tournament winners + mutation.
    Individual child;
    const Individual& a = tournament_pick();
    const Individual& b = tournament_pick();
    child.genome.resize(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      child.genome[d] = rng_.uniform01() < 0.5 ? a.genome[d] : b.genome[d];
      if (rng_.uniform01() < options_.mutation_rate) {
        child.genome[d] = std::clamp(
            child.genome[d] + rng_.normal(0.0, options_.mutation_sigma), 0.0,
            1.0);
      }
    }
    child.seconds = fitness(decode(child.genome));
    ++runs_used_;
    // Steady-state replacement: evict the worst.
    auto worst = std::max_element(
        pop.begin(), pop.end(), [](const Individual& x, const Individual& y) {
          return x.seconds < y.seconds;
        });
    if (child.seconds < worst->seconds) *worst = std::move(child);
  }

  auto best = std::min_element(
      pop.begin(), pop.end(), [](const Individual& x, const Individual& y) {
        return x.seconds < y.seconds;
      });
  best_seconds_ = best->seconds;
  return decode(best->genome);
}

}  // namespace mron::baselines
