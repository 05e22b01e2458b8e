#pragma once

// Correctness checks of the headline benchmark. Each one recomputes its
// expectation from the reaction model, the lattice and the run's own
// counters, or compares two runs of the same run; none compares against a
// stored copy of earlier output. They work on SimResult, a plain copy of
// what a simulation left behind, so that the self-test can perturb one.

#include <cstdint>
#include <string>
#include <vector>

#include "model/reaction_model.hpp"

namespace perfbench {

/// The end state of one simulation, copied out of the simulator.
struct SimResult {
  std::string variant;
  std::vector<std::uint8_t> final_state;        ///< Configuration::raw()
  std::vector<std::uint64_t> initial_counts;    ///< per species at t = 0
  std::vector<std::uint64_t> reported_counts;   ///< Configuration::count at the end
  std::vector<double> final_coverage;           ///< last coverage sample
  double time = 0;
  std::uint64_t trials = 0;
  std::uint64_t executed = 0;
  std::uint64_t steps = 0;
  std::vector<std::uint64_t> executed_per_type;
  double nk = 0;  ///< N * K: the clock rate of the trial-based methods
};

/// Per reaction type, the net change of each species' population when it
/// fires, derived from the transforms. Throws std::invalid_argument for a
/// type that writes a site whose source is a multi-species mask: its net
/// change would then depend on the configuration.
[[nodiscard]] std::vector<std::vector<std::int64_t>> net_species_change(
    const casurf::ReactionModel& model);

// Each check returns an empty string when the result passes, else what
// failed.

/// Species counts recounted from the final state equal the initial counts
/// plus sum over types of executed_per_type x net change, and equal the
/// counts the configuration reports.
[[nodiscard]] std::string check_balance(
    const SimResult& r, const std::vector<std::vector<std::int64_t>>& net_change);

/// Two runs of one trajectory end with identical state, time and counters.
[[nodiscard]] std::string check_identical(const SimResult& a, const SimResult& b);

/// Clock law of the trial-based methods: each trial advances time by an
/// Exp(N K) draw, so the reached time lies within kClockSigmas standard
/// deviations sqrt(trials) / (N K) of trials / (N K).
inline constexpr double kClockSigmas = 6.0;
[[nodiscard]] std::string check_clock_law(const SimResult& r);

/// Per-species coverages agree within an absolute tolerance.
[[nodiscard]] std::string check_coverages(const std::vector<double>& got,
                                          const std::vector<double>& want,
                                          double tolerance,
                                          const std::vector<std::string>& species);

}  // namespace perfbench
