#include "checks.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "model/transform.hpp"

namespace perfbench {

namespace {

std::string format(const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

}  // namespace

std::vector<std::vector<std::int64_t>> net_species_change(
    const casurf::ReactionModel& model) {
  const std::size_t num_species = model.species().size();
  std::vector<std::vector<std::int64_t>> net;
  for (const casurf::ReactionType& rt : model.reactions()) {
    std::vector<std::int64_t> delta(num_species, 0);
    for (const casurf::Transform& t : rt.transforms()) {
      if (t.tg == casurf::kKeep) continue;
      if (std::popcount(t.src) != 1) {
        throw std::invalid_argument("reaction " + rt.name() +
                                    " writes a site with a multi-species source");
      }
      --delta[static_cast<std::size_t>(std::countr_zero(t.src))];
      ++delta[t.tg];
    }
    net.push_back(std::move(delta));
  }
  return net;
}

std::string check_balance(const SimResult& r,
                          const std::vector<std::vector<std::int64_t>>& net_change) {
  const std::size_t num_species = r.initial_counts.size();
  if (r.executed_per_type.size() != net_change.size()) {
    return r.variant + ": executed_per_type has the wrong length";
  }
  std::vector<std::uint64_t> recount(num_species, 0);
  for (const std::uint8_t s : r.final_state) {
    if (s >= num_species) return format("%s: species %d out of domain", r.variant.c_str(), s);
    ++recount[s];
  }
  for (std::size_t sp = 0; sp < num_species; ++sp) {
    auto expected = static_cast<std::int64_t>(r.initial_counts[sp]);
    for (std::size_t rt = 0; rt < net_change.size(); ++rt) {
      expected += static_cast<std::int64_t>(r.executed_per_type[rt]) * net_change[rt][sp];
    }
    const auto got = static_cast<std::int64_t>(recount[sp]);
    if (got != expected) {
      return format("%s: species %zu recounts %lld, stoichiometry gives %lld",
                    r.variant.c_str(), sp, static_cast<long long>(got),
                    static_cast<long long>(expected));
    }
    if (recount[sp] != r.reported_counts[sp]) {
      return format("%s: species %zu recounts %llu, configuration reports %llu",
                    r.variant.c_str(), sp, static_cast<unsigned long long>(recount[sp]),
                    static_cast<unsigned long long>(r.reported_counts[sp]));
    }
  }
  return "";
}

std::string check_identical(const SimResult& a, const SimResult& b) {
  const std::string pair = a.variant + " vs " + b.variant;
  if (a.final_state != b.final_state) {
    std::size_t i = 0;
    while (i < a.final_state.size() && i < b.final_state.size() &&
           a.final_state[i] == b.final_state[i]) {
      ++i;
    }
    return format("%s: final configurations differ (first at site %zu)", pair.c_str(), i);
  }
  if (std::bit_cast<std::uint64_t>(a.time) != std::bit_cast<std::uint64_t>(b.time)) {
    return format("%s: times differ (%.17g vs %.17g)", pair.c_str(), a.time, b.time);
  }
  if (a.trials != b.trials || a.executed != b.executed || a.steps != b.steps ||
      a.executed_per_type != b.executed_per_type) {
    return pair + ": counters differ";
  }
  return "";
}

std::string check_clock_law(const SimResult& r) {
  const double n = static_cast<double>(r.trials);
  const double mean = n / r.nk;
  const double sigma = std::sqrt(n) / r.nk;
  if (!(r.trials > 0) || !(std::abs(r.time - mean) <= kClockSigmas * sigma)) {
    return format("%s: time %.9g after %llu trials, clock law gives %.9g +- %g (%g sigma)",
                  r.variant.c_str(), r.time, static_cast<unsigned long long>(r.trials),
                  mean, kClockSigmas * sigma, kClockSigmas);
  }
  return "";
}

std::string check_coverages(const std::vector<double>& got, const std::vector<double>& want,
                            double tolerance, const std::vector<std::string>& species) {
  if (got.size() != want.size()) return "coverage vectors differ in length";
  for (std::size_t sp = 0; sp < got.size(); ++sp) {
    if (!(std::abs(got[sp] - want[sp]) <= tolerance)) {
      return format("coverage of %s is %.5f, expected %.5f +- %.4f", species[sp].c_str(),
                    got[sp], want[sp], tolerance);
    }
  }
  return "";
}

}  // namespace perfbench
