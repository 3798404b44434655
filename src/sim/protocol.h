// The polymorphic protocol adapter: one `run(spec)` call drives any of
// the repo's protocol families.
//
// Each adapter reproduces the historical entry-point wiring for its kind
// — network construction, adversary instantiation, input generation,
// every Rng seed in the order the examples/experiments/tests always drew them
// — so a fixed (spec, seed_offset) produces byte-identical decisions,
// agreement stats, and per-processor ledgers to the pre-scenario-layer
// binaries. The adapters are stateless; `run_scenario` is the single
// entry point and additionally stamps scenario name, wall time, and the
// pool worker count into the report.
//
// Fingerprint contract: every adapter digests its complete observable
// result (protocol-specific fields in a fixed order, then the full
// per-processor ledger via `mix_run_ledger`). The parity suite holds this
// fingerprint byte-identical across 1/2/8 pool workers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/params.h"
#include "net/adversary.h"
#include "sim/report.h"
#include "sim/scenario.h"

namespace ba::sim {

class Protocol {
 public:
  virtual ~Protocol() = default;
  virtual ProtocolKind kind() const = 0;

  /// Execute the spec with every seed field shifted by `seed_offset`
  /// (the seed-sweep dimension). Fills the whole report except the
  /// scenario name, wall time and worker count (run_scenario's job).
  virtual RunReport run(const ScenarioSpec& spec,
                        std::uint64_t seed_offset) const = 0;
};

/// The adapter singleton for a protocol kind.
const Protocol& protocol_for(ProtocolKind kind);

/// Run one scenario end to end: spec -> adapter -> report. When
/// spec.workers > 0 the pool is pinned to that count for the run and
/// restored to the environment default after.
RunReport run_scenario(const ScenarioSpec& spec, std::uint64_t seed_offset = 0);

// ---- building blocks shared by the adapters (exposed for tests) ----

/// Adversary strategy instance per the spec (seed shifted by `off`).
std::unique_ptr<Adversary> make_adversary(const ScenarioSpec& spec,
                                          std::uint64_t off);

/// Per-processor input bits per the spec's InputPattern.
std::vector<std::uint8_t> make_bit_inputs(const ScenarioSpec& spec,
                                          std::uint64_t off);

/// laptop_scale(n) with the spec's tournament knob overrides applied.
ProtocolParams tournament_params(const ScenarioSpec& spec);

/// Digest the complete per-processor ledger plus round and corruption
/// counters — the tail of every adapter fingerprint.
void mix_run_ledger(RunDigest& d, const Network& net);

}  // namespace ba::sim
