// The traced replay of one everywhere-BA instance, and the crypto probes.
//
// The replay assembles the everywhere adapter from the library's public
// pieces (make_adversary, make_bit_inputs, tournament_params,
// A2EParams::laptop_scale, AlmostEverywhereBA, AlmostToEverywhere) in the
// order EverywhereBA::run uses, and times each layer from the outside:
// spans around the tree build and the two phase calls, and round spans from
// a benchmark-owned Transport attached with Network::set_transport.
// Because it re-implements the adapter's wiring, every replay is checked
// against run_scenario's report for the same spec and seed offset
// (equivalence_mismatches); numbers from a different program are never
// reported.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/report.h"
#include "sim/scenario.h"
#include "trace.h"

namespace perfbench {

/// What one traced replay observed, per layer.
struct LayerSample {
  // The run's outcome, digested exactly as the everywhere adapter does.
  int decided_bit = -1;
  int all_good_agree = -1;
  int validity = -1;
  std::uint64_t rounds = 0;
  std::uint64_t max_bits_good = 0;
  std::uint64_t total_bits_good = 0;
  std::uint64_t total_msgs_good = 0;
  std::uint64_t fingerprint = 0;    ///< full adapter fingerprint
  std::uint64_t ledger_digest = 0;  ///< mix_run_ledger alone

  double wall_s = 0;   ///< the whole replay (the root span)
  double tree_s = 0;   ///< AlmostEverywhereBA constructor: tree + layout
  double ae_s = 0;     ///< AlmostEverywhereBA::run
  double a2e_s = 0;    ///< AlmostToEverywhere construction + run
  std::uint64_t ae_bits_good_max = 0;   ///< most bits a good proc sent in AE
  std::uint64_t a2e_bits_good_max = 0;  ///< ... and in A2E alone

  double aeba_round_s = 0;        ///< rounds carrying AEBA vote envelopes
  double share_flow_round_s = 0;  ///< AE rounds without any envelope
  std::uint64_t envelopes = 0;    ///< envelopes staged on the network
  std::uint64_t net_rounds = 0;   ///< round barriers
};

/// Replay instance `seed_offset` of an everywhere-BA, lockstep, loopback
/// spec under spans parented to `parent`. The pool must already be pinned
/// to spec.workers.
LayerSample traced_replay(const ba::sim::ScenarioSpec& spec,
                          std::uint64_t seed_offset, Tracer& tracer,
                          int parent);

/// Every field on which the replay differs from run_scenario's report;
/// empty when they are the same run.
std::vector<std::string> equivalence_mismatches(const LayerSample& replay,
                                                const ba::sim::RunReport& ref);

/// Per-word costs of the share pipeline's crypto at the spec's shapes.
struct CryptoCosts {
  double deal_us = 0;          ///< CachedScheme::deal_into
  double decode_clean_us = 0;  ///< RobustDecoder::reconstruct_into, no error
  double decode_damaged_us = 0;  ///< ... with lying shares (the Gao path)
  bool correct = false;        ///< every decode returned the dealt secret
};

/// Times dealing and decoding at the leaf dealing shape of
/// tournament_params(spec) (k1 shares, privacy threshold t1, one share
/// vector per array word) and the spec's fault style: a crash adversary
/// leaves the decoder the surviving points, any other adversary leaves all
/// points with some of them lying. Each cost is the median of 5 batches.
CryptoCosts crypto_probe(const ba::sim::ScenarioSpec& spec,
                         std::uint64_t seed, Tracer& tracer, int parent);

}  // namespace perfbench
