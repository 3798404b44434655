#include "sim/experiments.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <type_traits>
#include <utility>

#include "aeba/aeba_with_coins.h"
#include "core/almost_everywhere.h"

namespace ba::sim {

namespace {

using Runs = std::vector<RunReport>;
using Override = std::pair<std::string, std::string>;
using Sizes = std::vector<std::size_t>;
using Doubles = std::vector<double>;
using Metric = double (*)(const RunReport&);

/// One spec override in the key=value grammar; doubles go through
/// json_double so the parsed value is bit-identical to `v`.
template <typename T>
Override kv(const char* key, T v) {
  if constexpr (std::is_floating_point_v<T>)
    return {key, json_double(v)};
  else
    return {key, std::to_string(v)};
}

GridAxis axis(std::string scenario, std::vector<Override> overrides,
              Sizes ns, std::size_t seeds) {
  return GridAxis{std::move(scenario), std::move(overrides), std::move(ns),
                  {}, seeds};
}

/// Mean of `f` over the seed runs, summed in seed order.
template <typename F>
double mean(const Runs& runs, F f) {
  double sum = 0;
  for (const RunReport& r : runs) sum += f(r);
  return sum / static_cast<double>(runs.size());
}

double extra(const RunReport& r, const char* key) {
  for (const auto& [k, v] : r.extras)
    if (k == key) return v;
  return 0.0;
}

// Per-run metrics the tables average over seeds.
double agreement(const RunReport& r) { return r.agreement_fraction; }
double valid(const RunReport& r) { return r.validity == 1 ? 1.0 : 0.0; }
double all_agree(const RunReport& r) {
  return r.all_good_agree == 1 ? 1.0 : 0.0;
}
double max_bits(const RunReport& r) {
  return static_cast<double>(r.max_bits_good);
}
double total_bits(const RunReport& r) {
  return static_cast<double>(r.total_bits_good);
}
double rounds_of(const RunReport& r) { return static_cast<double>(r.rounds); }
double min_informed(const RunReport& r) {
  return r.detail->aeba->min_informed_fraction;
}
double mean_informed(const RunReport& r) {
  return r.detail->aeba->mean_informed_fraction;
}
double committee_good(const RunReport& r) {
  return r.detail->universe->good_fraction_at_sampling;
}
double population_good(const RunReport& r) {
  return r.detail->universe->population_good_fraction;
}

std::int64_t I(std::size_t v) { return static_cast<std::int64_t>(v); }

std::vector<Cell> cells(const Doubles& values) {
  std::vector<Cell> out;
  for (double v : values) out.emplace_back(v);
  return out;
}
std::vector<Cell> cells(const Sizes& values) {
  std::vector<Cell> out;
  for (std::size_t v : values) out.emplace_back(I(v));
  return out;
}

/// Appends one row, each cell constructed in place: Cell temporaries in a
/// brace list trip GCC 12's -Wmaybe-uninitialized on the string member.
template <typename... Cells>
void row(Table& t, Cells&&... cells) {
  std::vector<Cell> out;
  out.reserve(sizeof...(cells));
  (out.emplace_back(std::forward<Cells>(cells)), ...);
  t.row(std::move(out));
}

/// Walks a projection's axes in the order its plan pushed them.
class Cursor {
 public:
  explicit Cursor(const ExperimentRuns& runs) : runs_(runs) {}
  const Runs& next() { return runs_[axis_++][0]; }

  /// One row per label, each from the next axis: the label, then the
  /// seed mean of every metric.
  void mean_rows(Table& t, const std::vector<Cell>& labels,
                 const std::vector<Metric>& metrics) {
    for (const Cell& label : labels) {
      const Runs& r = next();
      std::vector<Cell> out{label};
      for (Metric m : metrics) out.emplace_back(mean(r, m));
      t.row(std::move(out));
    }
  }

 private:
  const ExperimentRuns& runs_;
  std::size_t axis_ = 0;
};

Table table(std::string caption, std::vector<std::string> header) {
  Table t(std::move(caption));
  t.header(std::move(header));
  return t;
}

/// Fitted exponent b of y ~ x^b: the shared least-squares slope in log-log.
double loglog_slope(const Doubles& xs, const Doubles& ys) {
  Doubles lx, ly;
  for (double x : xs) lx.push_back(std::log(x));
  for (double y : ys) ly.push_back(std::log(y));
  return least_squares_slope(lx, ly);
}

Table fit_table(std::string caption) {
  return table(std::move(caption), {"series", "measured_b", "paper_reference"});
}

// ---------------------------------------------------------------- E1 --
// The A2E column is Algorithm 3 standalone on a fresh ledger; its cost
// does not depend on the message value, so the registry input stands in
// for the decided bit.
ExperimentPlan e1(bool full) {
  const Sizes ns = full ? Sizes{64, 256, 512, 1024, 2048, 4096}
                        : Sizes{64, 256, 512, 1024};
  const std::size_t seeds = full ? 5 : 2;
  ExperimentPlan plan;
  plan.axes = {axis("e1_everywhere", {kv("corrupt_fraction", 0.10)}, ns,
                    seeds),
               axis("e1_a2e_phase", {}, ns, seeds)};
  plan.project = [](const ExperimentRuns& runs) {
    Table t = table(
        "E1 / Theorem 1 — everywhere BA: agreement w.h.p., polylog rounds, "
        "per-processor bits (10% malicious — the tree phase's supported "
        "regime at laptop-scale share parameters, see E12f)",
        {"n", "agree_rate", "validity", "rounds", "log2(n)^2",
         "max_bits/proc", "a2e_bits/proc", "a2e_bits/sqrt(n)"});
    Doubles xs, bits, a2e_bits, rounds;
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      const Runs& ba = runs[0][i];
      const double n = static_cast<double>(ba.front().n);
      xs.push_back(n);
      bits.push_back(mean(ba, max_bits));
      a2e_bits.push_back(mean(runs[1][i], max_bits));
      rounds.push_back(mean(ba, rounds_of));
      row(t, I(ba.front().n), mean(ba, all_agree), mean(ba, valid),
          rounds.back(), std::log2(n) * std::log2(n), bits.back(),
          a2e_bits.back(), a2e_bits.back() / std::sqrt(n));
    }
    Table fit = fit_table("E1 — fitted scaling exponents (y ~ n^b)");
    row(fit, std::string("a2e bits/proc"), loglog_slope(xs, a2e_bits),
          std::string("0.5 (Theorem 4: O~(sqrt n))"));
    row(fit, std::string("total bits/proc"), loglog_slope(xs, bits),
          std::string("<= 1 (tournament constants dominate at small n; "
                      "Theorem 2: O~(n^{4/delta}))"));
    row(fit, std::string("rounds"), loglog_slope(xs, rounds),
          std::string("~0 (polylog; Theorem 1)"));
    return std::vector<Table>{t, fit};
  };
  return plan;
}

// ---------------------------------------------------------------- E2 --
ExperimentPlan e2(bool full) {
  const Sizes ns =
      full ? Sizes{64, 256, 512, 1024, 2048, 4096} : Sizes{64, 256, 512};
  ExperimentPlan plan;
  plan.axes = {axis("e2_almost_everywhere", {}, ns, full ? 5 : 3)};
  plan.project = [](const ExperimentRuns& runs) {
    Table t = table(
        "E2 / Theorem 2 — almost-everywhere BA via the tournament "
        "(10% malicious): agreement >= 1 - 1/log n, polylog rounds",
        {"n", "agree_frac", "1-1/log n", "validity", "rounds", "log2(n)^2",
         "max_bits/proc", "mean_election_agree"});
    Doubles xs, rounds, bits;
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      const Runs& ae = runs[0][i];
      const double n = static_cast<double>(ae.front().n);
      const double logn = std::log2(n);
      xs.push_back(n);
      rounds.push_back(mean(ae, rounds_of));
      bits.push_back(mean(ae, max_bits));
      const double elec = mean(ae, [](const RunReport& r) {
        const auto& levels = r.detail->ae->levels;
        double e = 0;
        for (const auto& lvl : levels) e += lvl.mean_bin_agreement;
        return levels.empty() ? 1.0 : e / levels.size();
      });
      row(t, I(ae.front().n), mean(ae, agreement), 1.0 - 1.0 / logn,
          mean(ae, valid), rounds.back(), logn * logn, bits.back(),
          elec);
    }
    Table fit = fit_table("E2 — fitted scaling exponents (y ~ n^b)");
    row(fit, std::string("rounds"), loglog_slope(xs, rounds),
          std::string("~0 (polylog: O(log^{4+d} n / log log n))"));
    row(fit, std::string("bits/proc"), loglog_slope(xs, bits),
          std::string("O~(n^{4/delta}) — sublinear for delta > 4"));
    return std::vector<Table>{t, fit};
  };
  return plan;
}

// ---------------------------------------------------------------- E3 --
// Each case is a split-input agreement run (`e3_aeba`) plus a
// unanimous-input validity run (`e3_aeba_unanimous`).
ExperimentPlan e3(bool full) {
  const std::size_t seeds = full ? 10 : 4;
  const std::size_t n = full ? 1000 : 400;
  const Doubles corrupts{0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30};
  const Doubles bad_coins{0.0, 0.2, 1.0 / 3.0, 0.5, 0.7, 0.9};
  const Sizes ns = full ? Sizes{128, 256, 512, 1024, 2048, 4096}
                        : Sizes{128, 256, 512, 1024};
  ExperimentPlan plan;
  auto add_case = [&](std::size_t cn, double corrupt, double bad) {
    const std::vector<Override> ov{kv("corrupt_fraction", corrupt),
                                   kv("bad_coin_fraction", bad),
                                   kv("aeba_rounds", 24)};
    plan.axes.push_back(axis("e3_aeba", ov, {cn}, seeds));
    plan.axes.push_back(axis("e3_aeba_unanimous", ov, {cn}, seeds));
  };
  for (double c : corrupts) add_case(n, c, 1.0 / 3.0);
  for (double b : bad_coins) add_case(n, 0.2, b);
  for (std::size_t cn : ns) add_case(cn, 0.2, 1.0 / 3.0);

  plan.project = [n, corrupts, bad_coins, ns](const ExperimentRuns& runs) {
    struct Outcome {
      double agreement, validity, informed;
    };
    Cursor cursor(runs);
    auto outcome = [&cursor]() {  // a case's split axis, then unanimous
      const Runs& split = cursor.next();
      const double validity = mean(cursor.next(), [](const RunReport& r) {
        return r.decided_bit == 1 && r.agreement_fraction >= 0.95 ? 1.0 : 0.0;
      });
      return Outcome{mean(split, agreement), validity,
                     mean(split, min_informed)};
    };
    Table a = table(
        "E3a / Theorem 5 — AEBA agreement vs corruption fraction "
        "(random 2 log n-regular graph, 1/3 of coins adversarial)",
        {"corrupt", "agreement", "allowance 1-C2/log n", "validity",
         "min_informed"});
    for (double c : corrupts) {
      const Outcome o = outcome();
      row(a, c, o.agreement, 1.0 - 1.5 / std::log2(static_cast<double>(n)),
          o.validity, o.informed);
    }
    Table b = table(
        "E3b / Theorem 3 — AEBA agreement vs fraction of adversarial coin "
        "rounds (20% corruption; the theorem needs only t honest rounds)",
        {"bad_coin_frac", "agreement", "validity"});
    for (double bad : bad_coins) {
      const Outcome o = outcome();
      row(b, bad, o.agreement, o.validity);
    }
    Table c = table(
        "E3c / Theorem 5 — AEBA agreement vs n (20% corruption, 1/3 bad "
        "coins): deficit shrinks like C2/log n",
        {"n", "agreement", "deficit", "C2/log n (C2=1.5)"});
    for (std::size_t cn : ns) {
      const Outcome o = outcome();
      row(c, I(cn), o.agreement, 1.0 - o.agreement,
          1.5 / std::log2(static_cast<double>(cn)));
    }
    return std::vector<Table>{a, b, c};
  };
  return plan;
}

// ---------------------------------------------------------------- E4 --
ExperimentPlan e4(bool full) {
  const std::size_t seeds = full ? 8 : 3;
  const std::size_t n = full ? 1024 : 512;
  const Doubles knowledgeable{0.55, 0.65, 0.75, 0.85, 0.95};
  const Sizes floods{0, 64, 256, 1024};
  ExperimentPlan plan;
  for (double k : knowledgeable)
    plan.axes.push_back(
        axis("e4_a2e", {kv("input_fraction", k)}, {n}, seeds));
  for (std::size_t flood : floods)
    plan.axes.push_back(
        axis("e4_flooding", {kv("flood_per_pair", flood)}, {n}, seeds));
  plan.axes.push_back(axis("e4_cost", {},
                           full ? Sizes{256, 1024, 4096, 16384}
                                : Sizes{256, 1024, 4096},
                           1));

  plan.project = [n, knowledgeable, floods](const ExperimentRuns& runs) {
    Cursor cursor(runs);
    Table a = table(
        "E4a / Lemmas 7-8 — A2E vs knowledgeable fraction (20% corrupt "
        "responders answer wrongly): loop success and wrong decisions",
        {"knowledgeable", "first_loop_success", "final_agree_frac",
         "wrong_frac", "paper_bound 1-4/(eps*log n)"});
    for (double k : knowledgeable) {
      const Runs& r = cursor.next();
      row(a, k, mean(r, [](const RunReport& x) {
            return extra(x, "first_loop_success");
          }),
          mean(r, agreement), mean(r, [](const RunReport& x) {
            return extra(x, "wrong_count") /
                   static_cast<double>(x.n - x.corrupt_count);
          }),
          1.0 - 4.0 / (0.1 * std::log2(static_cast<double>(n))));
    }
    Table b = table(
        "E4b / Lemma 9 — knowledgeable processors overloaded per loop "
        "under request flooding (bound: (eps/4) n w.p. 1 - 4/(eps log n))",
        {"flood_per_pair", "max_overloaded", "bound (eps/4)n"});
    for (std::size_t flood : floods) {
      std::size_t worst = 0;
      for (const RunReport& r : cursor.next())
        worst = std::max(worst, static_cast<std::size_t>(
                                    extra(r, "max_overloaded")));
      row(b, I(flood), I(worst), static_cast<double>(n) * 0.1 / 4.0);
    }
    Table c = table("E4c / Theorem 4 — A2E per-processor bits ~ O~(sqrt n)",
                    {"n", "max_bits/proc", "bits/(sqrt(n)*log2(n)^2)"});
    const std::size_t cost = knowledgeable.size() + floods.size();
    Doubles xs, ys;
    for (std::size_t i = 0; i < runs[cost].size(); ++i) {
      const RunReport& r = runs[cost][i].front();
      const double cn = static_cast<double>(r.n);
      const double logn = std::log2(cn);
      xs.push_back(cn);
      ys.push_back(max_bits(r));
      row(c, I(r.n), ys.back(), ys.back() / (std::sqrt(cn) * logn * logn));
    }
    Table fit = fit_table("E4c — fitted exponent");
    row(fit, std::string("a2e bits/proc"), loglog_slope(xs, ys),
          std::string("0.5 + o(1) (Theorem 4)"));
    return std::vector<Table>{a, b, c, fit};
  };
  return plan;
}

// ---------------------------------------------------------------- E6 --
// The per-level survival trace of good arrays up the tree of Figure 1.
ExperimentPlan e6(bool full) {
  const std::size_t seeds = full ? 6 : 3;
  const Sizes ns = full ? Sizes{512, 4096} : Sizes{512};
  const Doubles corrupts{0.0, 0.05, 0.10, 0.15};
  ExperimentPlan plan;
  for (std::size_t n : ns)
    for (double c : corrupts)
      plan.axes.push_back(
          axis("e6_survival", {kv("corrupt_fraction", c)}, {n}, seeds));

  plan.project = [ns, corrupts](const ExperimentRuns& runs) {
    std::vector<Table> tables;
    Cursor cursor(runs);
    for (std::size_t n : ns)
      for (double corrupt : corrupts) {
        const Runs& seed_runs = cursor.next();
        Table t = table(
            "E6 / Lemma 6 — good winning-array fraction per level, n=" +
                std::to_string(n) + ", corrupt=" + std::to_string(corrupt),
            {"level", "elections", "winners", "good_winners", "good_frac",
             "bound 2/3-7l/log n", "election_agreement"});
        std::vector<AeLevelStats> acc;
        for (const RunReport& res : seed_runs) {
          const auto& levels = res.detail->ae->levels;
          if (acc.size() < levels.size()) {
            AeLevelStats zero;
            zero.mean_bin_agreement = 0.0;  // accumulator, not a default
            acc.resize(levels.size(), zero);
          }
          for (std::size_t i = 0; i < levels.size(); ++i) {
            acc[i].level = levels[i].level;
            acc[i].elections += levels[i].elections;
            acc[i].winners_total += levels[i].winners_total;
            acc[i].winners_good += levels[i].winners_good;
            acc[i].mean_bin_agreement += levels[i].mean_bin_agreement;
          }
        }
        const double logn = std::log2(static_cast<double>(n));
        for (const auto& lvl : acc)
          row(t, I(lvl.level), I(lvl.elections), I(lvl.winners_total),
              I(lvl.winners_good),
              lvl.winners_total == 0
                  ? 1.0
                  : static_cast<double>(lvl.winners_good) /
                        static_cast<double>(lvl.winners_total),
              2.0 / 3.0 - 7.0 * static_cast<double>(lvl.level) / logn,
              lvl.mean_bin_agreement /
                  static_cast<double>(seed_runs.size()));
        tables.push_back(std::move(t));
      }
    return tables;
  };
  return plan;
}

// ---------------------------------------------------------------- E7 --
ExperimentPlan e7(bool full) {
  const std::size_t seeds = full ? 8 : 3;
  const std::size_t n = full ? 2048 : 512;
  const Doubles ks{0.5, 1.0, 2.0, 3.0, 4.0};
  const Sizes ns = full ? Sizes{128, 256, 512, 1024, 2048, 4096, 8192}
                        : Sizes{128, 512, 2048};
  auto degree = [](std::size_t dn, double k) {
    return std::max<std::size_t>(
        3, static_cast<std::size_t>(k * std::log2(dn)));
  };
  ExperimentPlan plan;
  auto add = [&](std::size_t dn, double k) {
    plan.axes.push_back(axis("e7_informed",
                             {kv("corrupt_fraction", 0.2),
                              kv("aeba_rounds", 12),
                              kv("aeba_degree", degree(dn, k))},
                             {dn}, seeds));
  };
  for (double k : ks) add(n, k);
  for (std::size_t bn : ns) add(bn, 2.0);

  plan.project = [n, ks, ns, degree](const ExperimentRuns& runs) {
    Cursor cursor(runs);
    Table a = table(
        "E7a / Lemma 11 — informed fraction vs degree multiplier k "
        "(degree = k log2 n, 20% malicious), n=" + std::to_string(n),
        {"k", "degree", "mean_informed", "min_informed",
         "allowance 1-C2/log n"});
    for (double k : ks) {
      const Runs& r = cursor.next();
      double worst = 1.0;
      for (const RunReport& x : r) worst = std::min(worst, min_informed(x));
      row(a, k, I(degree(n, k)), mean(r, mean_informed), worst,
          1.0 - 1.5 / std::log2(static_cast<double>(n)));
    }
    Table b = table(
        "E7b / Lemma 11 — mean informed fraction vs n (degree 2 log2 n, "
        "20% malicious): deficit tracks C2/log n",
        {"n", "mean_informed", "deficit", "C2/log n (C2=1.5)"});
    for (std::size_t bn : ns) {
      const double informed = mean(cursor.next(), mean_informed);
      row(b, I(bn), informed, 1.0 - informed,
          1.5 / std::log2(static_cast<double>(bn)));
    }
    return std::vector<Table>{a, b};
  };
  return plan;
}

// ---------------------------------------------------------------- E9 --
// §1's motivation: quadratic all-to-all BA vs this paper's o(n²) total
// bits, in the same simulator, with the crossover of the fitted curves.
ExperimentPlan e9(bool full) {
  const Sizes ns = full ? Sizes{64, 256, 512, 1024, 2048, 4096}
                        : Sizes{64, 256, 512, 1024};
  ExperimentPlan plan;
  plan.axes = {axis("e9_rabin", {}, ns, 1), axis("e9_benor", {}, ns, 1),
               axis("e9_kingsaia", {}, ns, 1)};
  plan.project = [](const ExperimentRuns& runs) {
    Table t = table(
        "E9 — total bits, same simulator: quadratic baselines vs King-Saia "
        "(10% malicious; Ben-Or vs 10% crash, its classic t<n/5 regime)",
        {"n", "rabin_total", "benor_total", "kingsaia_total",
         "rabin_max/proc", "kingsaia_max/proc"});
    Doubles xs, rabin, benor, kingsaia;
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      const RunReport& r = runs[0][i].front();
      const RunReport& k = runs[2][i].front();
      xs.push_back(static_cast<double>(r.n));
      rabin.push_back(total_bits(r));
      benor.push_back(total_bits(runs[1][i].front()));
      kingsaia.push_back(total_bits(k));
      row(t, I(r.n), rabin.back(), benor.back(), kingsaia.back(),
          max_bits(r), max_bits(k));
    }
    const double b_rabin = loglog_slope(xs, rabin);
    const double b_ks = loglog_slope(xs, kingsaia);
    Table fit = fit_table(
        "E9 — fitted total-bit exponents (total ~ n^b) and crossover");
    row(fit, std::string("Rabin all-to-all"), b_rabin,
          std::string("2.0 (the O(n^2) barrier)"));
    row(fit, std::string("Ben-Or all-to-all"), loglog_slope(xs, benor),
          std::string("2.0"));
    row(fit, std::string("King-Saia everywhere BA"), b_ks,
          std::string("1.5 (n x O~(sqrt n)); laptop constants are large"));
    // n* where King-Saia's fitted total drops below Rabin's:
    // log(a1) + b1 log n = log(a2) + b2 log n.
    const double la_r = std::log(rabin.back()) - b_rabin * std::log(xs.back());
    const double la_k = std::log(kingsaia.back()) - b_ks * std::log(xs.back());
    Table cross = table("E9 — projected crossover (from fitted curves)",
                        {"pair", "crossover_n"});
    if (b_rabin > b_ks)
      row(cross, std::string("King-Saia beats Rabin at n >="),
              std::exp((la_k - la_r) / (b_rabin - b_ks)));
    else
      row(cross, std::string("no crossover in range (check exponents)"),
              0.0);
    return std::vector<Table>{t, fit, cross};
  };
  return plan;
}

// --------------------------------------------------------------- E10 --
// §1.3: electing processors vs electing secret-shared arrays, both under
// AdaptiveWinnerTakeover.
ExperimentPlan e10(bool full) {
  const std::size_t seeds = full ? 10 : 4;
  const std::size_t n = full ? 1024 : 256;
  ExperimentPlan plan;
  for (const char* cell : {"static", "adaptive"})
    for (const char* protocol : {"e10_proc_", "e10_array_"})
      plan.axes.push_back(
          axis(std::string(protocol) + cell, {}, {n}, seeds));
  plan.project = [n](const ExperimentRuns& runs) {
    Table t = table(
        "E10 / §1.3 — adaptive winner takeover: electing processors "
        "(KSSV'06-style baseline) vs electing secret-shared arrays "
        "(this paper), n=" + std::to_string(n),
        {"protocol", "adversary", "agree_frac", "validity_rate",
         "committee_corrupt_frac"});
    Cursor cursor(runs);
    for (const char* adversary : {"static-10%", "adaptive-takeover"}) {
      const Runs& proc = cursor.next();
      row(t, std::string("processor-election"), std::string(adversary),
          mean(proc, agreement), mean(proc, valid),
          mean(proc, [](const RunReport& r) {
            const auto& e = *r.detail->election;
            return e.committee.empty()
                       ? 0.0
                       : static_cast<double>(e.committee_corrupt) /
                             static_cast<double>(e.committee.size());
          }));
      // Array election has no committee to corrupt: the winners are
      // arrays whose owners secret-shared and erased them long ago.
      const Runs& array = cursor.next();
      row(t, std::string("array-election (King-Saia)"),
          std::string(adversary), mean(array, agreement),
          mean(array,
               [](const RunReport& r) {
                 return r.validity == 1 && r.decided_bit == 1 ? 1.0 : 0.0;
               }),
          std::string("n/a"));
    }
    Table note = table("E10 — reading", {"observation"});
    row(note, std::string(
     "The adaptive adversary corrupts 100% of the baseline committee the "
     "moment it is elected and splits the network; the same adversary "
     "corrupting winning-array owners gains nothing: their arrays were "
     "secret-shared across whole nodes and erased (Section 1.3)."));
    return std::vector<Table>{t, note};
  };
  return plan;
}

// --------------------------------------------------------------- E11 --
// §3.5: "a 2/3 + eps - 5/log log n fraction are random". The reference
// column is that formula as written (eps omitted): vacuous — negative —
// at laptop n.
ExperimentPlan e11(bool full) {
  const Sizes ns = full ? Sizes{256, 512, 1024, 2048} : Sizes{256, 512};
  ExperimentPlan plan;
  plan.axes = {axis("e11_coins", {}, ns, full ? 6 : 3),
               axis("e11_coins",
                    {kv("adversary_seed", 900), kv("protocol_seed", 901),
                     kv("input_seed", 902), kv("coin_words", 8)},
                    {ns.back()}, 1)};
  plan.project = [](const ExperimentRuns& runs) {
    Table t = table(
        "E11 / §3.5 — global coin subsequence quality (10% malicious): "
        "usable fraction vs the (s, 2s/3) claim",
        {"n", "seq_len", "good_frac", "ref 2/3", "ref 2/3-5/loglog n",
         "min_agreement", "bit_bias"});
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      const Runs& coins = runs[0][i];
      const std::size_t n = coins.front().n;
      const double loglog = std::log2(std::log2(static_cast<double>(n)));
      row(t, I(n), I(coins.back().detail->sequence_quality->length),
          mean(coins,
               [](const RunReport& r) {
                 const SequenceQuality& q = *r.detail->sequence_quality;
                 return static_cast<double>(q.good_words) /
                        static_cast<double>(q.length);
               }),
          2.0 / 3.0, 2.0 / 3.0 - 5.0 / loglog,
          mean(coins,
               [](const RunReport& r) {
                 return r.detail->sequence_quality->min_good_agreement;
               }),
          mean(coins, [](const RunReport& r) {
            return r.detail->sequence_quality->good_bit_bias;
          }));
    }
    const RunReport& run = runs[1][0].front();
    const AeResult& res = *run.detail->ae;
    std::vector<int> bits;
    for (std::size_t i = 0; i < res.seq_views.size(); ++i)
      if (res.seq_word_good[i])
        bits.push_back(static_cast<int>(res.seq_truth[i] & 1));
    double serial = 0;
    for (std::size_t i = 1; i < bits.size(); ++i)
      serial += bits[i] == bits[i - 1] ? 1.0 : 0.0;
    Table t2 = table("E11b — randomness sanity of the good subsequence, n=" +
                         std::to_string(run.n),
                     {"good_words", "serial_match_rate (expect ~0.5)"});
    row(t2, I(bits.size()),
         bits.size() > 1 ? serial / static_cast<double>(bits.size() - 1)
                         : 0.5);
    return std::vector<Table>{t, t2};
  };
  return plan;
}

// --------------------------------------------------------------- E12 --
// Every row is `e12_ablation` with one knob overridden.
ExperimentPlan e12(bool full) {
  const std::size_t n = full ? 1024 : 512;
  const Sizes qs{4, 8, 16}, ws{1, 2, 3}, d_ups{6, 9, 12, 15},
      g_intras{4, 8, 12, 16};
  const Doubles corrupts{0.05, 0.10, 0.15, 0.20, 0.25, 0.30};
  ExperimentPlan plan;
  auto knob = [&](Override o) {
    plan.axes.push_back(axis("e12_ablation",
                             {kv("corrupt_fraction", 0.10), std::move(o)},
                             {n}, full ? 5 : 2));
  };
  for (std::size_t q : qs) knob(kv("q", q));
  for (std::size_t w : ws) knob(kv("w", w));
  for (std::size_t d : d_ups) knob(kv("d_up", d));
  for (std::size_t g : g_intras) knob(kv("g_intra", g));
  for (bool lock : {true, false}) knob(kv("lock_rule_off", !lock));
  for (double c : corrupts) knob(kv("corrupt_fraction", c));

  plan.project = [n, qs, ws, d_ups, g_intras,
                  corrupts](const ExperimentRuns& runs) {
    Cursor cursor(runs);
    std::vector<Table> tables{
        table("E12a — branching factor q (tree depth vs election width), "
              "n=" + std::to_string(n),
              {"q", "agree", "valid", "max_bits/proc", "rounds"}),
        table("E12b — winners per election w (candidate pool size)",
              {"w", "agree", "valid", "max_bits/proc", "rounds"}),
        table("E12c — uplink degree d_up: share blowup (cost) vs "
              "Berlekamp-Welch margin (robustness). t = d/4, corrects "
              "(d - d/4 - 1)/2",
              {"d_up", "agree", "valid", "max_bits/proc"}),
        table("E12d — intra-node vote-graph out-degree (Lemma 11's k)",
              {"g_intra", "agree", "valid", "max_bits/proc"}),
        table("E12e — Rabin decide/lock rule: on (default) vs paper-literal "
              "commit-at-end (lock disabled)",
              {"lock", "agree", "valid"}),
        table("E12f — corruption tolerance at laptop-scale parameters "
              "(docs/ARCHITECTURE.md: the binomial-tail limit)",
              {"corrupt", "agree", "valid"})};
    cursor.mean_rows(tables[0], cells(qs),
                     {agreement, valid, max_bits, rounds_of});
    cursor.mean_rows(tables[1], cells(ws),
                     {agreement, valid, max_bits, rounds_of});
    cursor.mean_rows(tables[2], cells(d_ups), {agreement, valid, max_bits});
    cursor.mean_rows(tables[3], cells(g_intras), {agreement, valid, max_bits});
    cursor.mean_rows(tables[4],
                     {std::string("0.85/0.75"), std::string("off")},
                     {agreement, valid});
    cursor.mean_rows(tables[5], cells(corrupts), {agreement, valid});
    return tables;
  };
  return plan;
}

// --------------------------------------------------------------- E13 --
ExperimentPlan e13(bool full) {
  const std::size_t seeds = full ? 6 : 3;
  const std::size_t n = full ? 1024 : 256;
  const Doubles corrupts{0.0, 0.05, 0.10};
  const Sizes sizes{4, 8, 16, 32};
  ExperimentPlan plan;
  auto add = [&](std::vector<Override> ov) {
    plan.axes.push_back(axis("e13_universe", std::move(ov), {n}, seeds));
  };
  for (double c : corrupts)
    add({kv("corrupt_fraction", c), kv("committee_size", 16)});
  for (std::size_t size : sizes)  // 8 coin words: enough for size 32
    add({kv("adversary_seed", 300), kv("protocol_seed", 400),
         kv("coin_words", 8), kv("committee_size", size)});
  add({kv("adversary_seed", 500), kv("protocol_seed", 600),
       kv("committee_size", 16)});

  plan.project = [n, corrupts, sizes](const ExperimentRuns& runs) {
    Cursor cursor(runs);
    Table a = table(
        "E13a / §1 — universe reduction: committee good-fraction vs "
        "population (representative sampling), n=" + std::to_string(n),
        {"corrupt", "committee", "committee_good_frac",
         "population_good_frac", "view_agreement"});
    for (double c : corrupts) {
      const Runs& r = cursor.next();
      row(a, c, I(16), mean(r, committee_good), mean(r, population_good),
          mean(r, [](const RunReport& x) {
            return x.detail->universe->view_agreement;
          }));
    }
    Table b = table(
        "E13b — committee size sweep (10% malicious): sampling stays "
        "representative as the committee grows",
        {"committee_size", "committee_good_frac", "population_good_frac"});
    cursor.mean_rows(b, cells(sizes), {committee_good, population_good});
    // Once the sample is public, an adaptive adversary spends its
    // remaining budget on it — replayed on the run's final corruption
    // state (the network is gone, the arithmetic is the same).
    Table c = table("E13c — the adaptive caveat: committee corruption "
                    "before vs after publication, n=" + std::to_string(n),
                    {"moment", "committee_corrupt_frac"});
    const Runs& r = cursor.next();
    row(c, std::string("at sampling"), mean(r, [](const RunReport& x) {
          return 1.0 - committee_good(x);
        }));
    row(c, std::string("after publication (adaptive)"),
        mean(r, [](const RunReport& x) {
          std::vector<bool> corrupt = x.detail->corrupt_mask;
          std::size_t budget_left = x.n / 3 - x.corrupt_count;
          std::size_t corrupted = 0;
          for (ProcId p : x.detail->universe->committee) {
            if (!corrupt[p] && budget_left > 0) {
              corrupt[p] = true;
              --budget_left;
            }
            corrupted += corrupt[p] ? 1 : 0;
          }
          return static_cast<double>(corrupted) /
                 static_cast<double>(x.detail->universe->committee.size());
        }));
    return std::vector<Table>{a, b, c};
  };
  return plan;
}

}  // namespace

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> kExperiments = {
      {"e1", e1},   {"e2", e2},   {"e3", e3},   {"e4", e4},
      {"e6", e6},   {"e7", e7},   {"e9", e9},   {"e10", e10},
      {"e11", e11}, {"e12", e12}, {"e13", e13},
  };
  return kExperiments;
}

const Experiment* find_experiment(const std::string& grid, bool* full) {
  for (const Experiment& e : experiments())
    for (bool f : {false, true})
      if (grid == (f ? e.name + "_full" : e.name)) {
        if (full != nullptr) *full = f;
        return &e;
      }
  return nullptr;
}

std::vector<Table> run_experiment(const ExperimentPlan& plan,
                                  std::ostream* ndjson) {
  ExperimentRuns runs;
  for (const GridAxis& axis : plan.axes) {
    auto& points = runs.emplace_back();
    // One point per n value; an empty list keeps the spec's n.
    for (std::size_t i = 0; i < std::max<std::size_t>(1, axis.n_values.size());
         ++i) {
      GridAxis point = axis;
      if (!axis.n_values.empty()) point.n_values = {axis.n_values[i]};
      auto& seed_runs = points.emplace_back();
      for (const SweepJob& job : expand_grid({point})) {
        seed_runs.push_back(run_job(job));
        if (ndjson != nullptr) {
          seed_runs.back().write_json(*ndjson, /*include_timing=*/true);
          *ndjson << '\n';
        }
      }
    }
  }
  return plan.project(runs);
}

}  // namespace ba::sim
