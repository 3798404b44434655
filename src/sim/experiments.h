// The paper experiments E1–E13 as sweep grids.
//
// Each scenario-based experiment is data: a list of GridAxis (registry
// scenario, key=value overrides, n values, seeds — sim/sweep.h) plus a
// projection that turns the reports of its jobs into the experiment's
// tables. `ba_sweep --grid eK` runs experiment K in quick mode and
// `--grid eK_full` in full mode.
//
// Projections read the report's `detail` block, which the NDJSON stream
// does not carry, so experiment grids run in-process, one job at a time,
// with the worker pool parallel inside each run. E5 (Feige's lightest
// bin) and E8 (iterated secret sharing) drive no scenario; their claims
// are asserted by tree_election_test and crypto_test.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.h"
#include "sim/report.h"
#include "sim/sweep.h"

namespace ba::sim {

/// The reports of one experiment grid as runs[axis][point]: the seed runs
/// (in seed order) of the axis's point-th n value — expand_grid's order.
using ExperimentRuns = std::vector<std::vector<std::vector<RunReport>>>;

/// One experiment in one mode: the grid and its projection.
struct ExperimentPlan {
  std::vector<GridAxis> axes;
  std::function<std::vector<Table>(const ExperimentRuns&)> project;
};

struct Experiment {
  std::string name;  ///< "e1" .. "e13": the quick grid; name + "_full"
  ExperimentPlan (*plan)(bool full) = nullptr;
};

/// Every scenario-based experiment, in E-number order.
const std::vector<Experiment>& experiments();

/// Resolve "eK" (quick) or "eK_full" (full); nullptr for other names.
const Experiment* find_experiment(const std::string& grid, bool* full);

/// Run every job of `plan` in-process (run_job), in job order, stream each
/// timed report to `ndjson` when non-null, and return the projected tables.
std::vector<Table> run_experiment(const ExperimentPlan& plan,
                                  std::ostream* ndjson);

}  // namespace ba::sim
