#include "replay.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "aeba/aeba_with_coins.h"
#include "common/check.h"
#include "common/pool.h"
#include "core/a2e.h"
#include "core/almost_everywhere.h"
#include "core/everywhere.h"
#include "crypto/scheme_cache.h"
#include "sim/protocol.h"
#include "transport/transport.h"

namespace perfbench {

namespace sim = ba::sim;

namespace {

/// A benchmark-owned transport that only watches: it counts the envelopes
/// staged in each round and, at every barrier, records the round as a span
/// under the current phase span. Delivery stays in Network staging, so the
/// run is byte-identical to one with no transport attached.
class RoundMeter final : public ba::Transport {
 public:
  RoundMeter(Tracer& tracer, std::uint64_t instance, LayerSample& out)
      : tracer_(tracer), instance_(instance), out_(out) {}

  /// Rounds from now on belong to phase span `span`; `ae` marks the
  /// almost-everywhere phase, whose envelope-free rounds are share flows.
  void enter_phase(int span, bool ae) {
    phase_ = span;
    in_ae_ = ae;
    round_start_ = tracer_.spans()[static_cast<std::size_t>(span)].start;
    round_envelopes_ = 0;
    round_has_vote_ = false;
  }
  void leave_phase() { phase_ = -1; }

  const char* backend_name() const override { return "perfbench-meter"; }
  void on_attach(std::size_t) override {}
  void on_send(const ba::Envelope& e) override {
    ++round_envelopes_;
    ++out_.envelopes;
    round_has_vote_ |= e.payload.tag == ba::kTagAebaVote;
  }
  void sync_round(std::uint64_t,
                  std::vector<std::vector<ba::Envelope>>&) override {
    const Clock::time_point now = Clock::now();
    ++out_.net_rounds;
    ++stats_.rounds_synced;
    if (phase_ >= 0) {
      const char* name = "net.round";
      if (round_has_vote_) {
        name = "aeba.round";
        out_.aeba_round_s += secs(now - round_start_);
      } else if (in_ae_ && round_envelopes_ == 0) {
        name = "share_flow.round";
        out_.share_flow_round_s += secs(now - round_start_);
      }
      tracer_.record(name, phase_, instance_, round_start_, now);
    }
    round_start_ = now;
    round_envelopes_ = 0;
    round_has_vote_ = false;
  }
  const ba::TransportStats& stats() const override { return stats_; }

 private:
  Tracer& tracer_;
  std::uint64_t instance_;
  LayerSample& out_;
  ba::TransportStats stats_;
  int phase_ = -1;
  bool in_ae_ = false;
  Clock::time_point round_start_;
  std::uint64_t round_envelopes_ = 0;
  bool round_has_vote_ = false;
};

/// Median over 5 batches of the per-word cost of `op`, in microseconds;
/// each batch repeats `op` (which handles `words` words) for >= 20 ms.
template <typename Op>
double us_per_word(Op&& op, std::size_t words) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const Clock::time_point t0 = Clock::now();
    std::size_t calls = 0;
    Clock::time_point t1;
    do {
      op();
      ++calls;
      t1 = Clock::now();
    } while (t1 - t0 < std::chrono::milliseconds(20));
    batches.push_back(secs(t1 - t0) * 1e6 /
                      static_cast<double>(calls * words));
  }
  std::sort(batches.begin(), batches.end());
  return batches[batches.size() / 2];
}

/// The replay proper, under the already open root span `root`.
void replay_into(const sim::ScenarioSpec& s, std::uint64_t off,
                 Tracer& tracer, int root, LayerSample& out) {
  // EverywhereProtocol::run, then EverywhereBA::run, piece by piece.
  RoundMeter meter(tracer, off, out);
  ba::Network net(s.n, s.n / s.budget_div);
  net.set_transport(&meter);
  auto adversary = sim::make_adversary(s, off);
  const auto inputs = sim::make_bit_inputs(s, off);
  const std::uint64_t seed = s.protocol_seed + off;
  ba::EverywhereResult res;

  std::optional<ba::AlmostEverywhereBA> ae;
  int span_id = -1;
  {
    ScopedSpan span(tracer, "tree.build", root, off);
    span_id = span.id();
    ae.emplace(sim::tournament_params(s), seed);
  }
  out.tree_s = tracer.seconds(span_id);
  {
    ScopedSpan span(tracer, "core.ae", root, off);
    span_id = span.id();
    meter.enter_phase(span.id(), true);
    res.ae = ae->run(net, *adversary, inputs, /*release_sequence=*/true);
    meter.leave_phase();
  }
  out.ae_s = tracer.seconds(span_id);
  res.decided_bit = res.ae.decided_bit;
  std::vector<std::uint64_t> ae_bits(s.n);
  for (ba::ProcId p = 0; p < s.n; ++p) ae_bits[p] = net.ledger().bits_sent(p);
  {
    ScopedSpan span(tracer, "core.a2e", root, off);
    span_id = span.id();
    meter.enter_phase(span.id(), false);
    ba::A2EParams a2e_params = ba::A2EParams::laptop_scale(s.n);
    a2e_params.repeats = std::min(
        a2e_params.repeats, res.ae.seq_views.empty()
                                ? std::size_t{1}
                                : res.ae.seq_views.size());
    std::vector<std::uint64_t> beliefs(s.n);
    for (ba::ProcId p = 0; p < s.n; ++p) beliefs[p] = res.ae.decision[p];
    const auto* views = &res.ae.seq_views;
    auto label_view = [views](std::size_t loop,
                              ba::ProcId p) -> std::uint64_t {
      if (views->empty()) return 0;
      return (*views)[loop % views->size()][p];
    };
    ba::AlmostToEverywhere a2e(a2e_params, seed ^ 0xA2E);
    res.a2e = a2e.run(net, *adversary, beliefs, res.decided_bit ? 1 : 0,
                      label_view);
    meter.leave_phase();
  }
  out.a2e_s = tracer.seconds(span_id);
  res.all_good_agree = res.a2e.all_good_agree;
  res.validity = res.ae.validity;
  res.rounds = net.round();

  // The adapter's fingerprint, mixed in the adapter's order.
  sim::RunDigest d;
  d.mix(res.decided_bit ? 1 : 0);
  d.mix(res.all_good_agree ? 1 : 0);
  d.mix(res.validity ? 1 : 0);
  d.mix(res.rounds);
  d.mix_double(res.ae.agreement_fraction);
  for (auto bit : res.ae.decision) d.mix(bit);
  for (auto m : res.a2e.message) d.mix(m);
  sim::mix_run_ledger(d, net);
  sim::RunDigest ledger;
  sim::mix_run_ledger(ledger, net);

  const ba::BitLedger& book = net.ledger();
  const auto& mask = net.corrupt_mask();
  for (ba::ProcId p = 0; p < s.n; ++p) {
    if (mask[p]) continue;
    out.ae_bits_good_max = std::max(out.ae_bits_good_max, ae_bits[p]);
    out.a2e_bits_good_max =
        std::max(out.a2e_bits_good_max, book.bits_sent(p) - ae_bits[p]);
  }
  out.decided_bit = res.decided_bit ? 1 : 0;
  out.all_good_agree = res.all_good_agree ? 1 : 0;
  out.validity = res.validity ? 1 : 0;
  out.rounds = res.rounds;
  out.max_bits_good = book.max_bits_sent(mask, false);
  out.total_bits_good = book.total_bits_sent(mask, false);
  out.total_msgs_good = book.total_msgs_sent(mask, false);
  out.fingerprint = d.h;
  out.ledger_digest = ledger.h;
}

}  // namespace

LayerSample traced_replay(const sim::ScenarioSpec& s, std::uint64_t off,
                          Tracer& tracer, int parent) {
  BA_REQUIRE(s.protocol == sim::ProtocolKind::kEverywhere &&
                 s.scheduler == sim::SchedulerKind::kLockstep &&
                 s.transport == sim::TransportKind::kLoopback,
             "the traced replay covers lockstep loopback everywhere-BA");
  BA_REQUIRE(s.workers == 0 || ba::Pool::num_threads() == s.workers,
             "pin the pool to the spec's workers before replaying");
  LayerSample out;
  int root = -1;
  {
    ScopedSpan span(tracer, "replay", parent, off);
    root = span.id();
    replay_into(s, off, tracer, root, out);
  }
  out.wall_s = tracer.seconds(root);
  return out;
}

std::vector<std::string> equivalence_mismatches(const LayerSample& r,
                                                const sim::RunReport& ref) {
  struct Field {
    const char* name;
    std::uint64_t got, want;
  };
  const Field fields[] = {
      {"decided_bit", static_cast<std::uint64_t>(r.decided_bit),
       static_cast<std::uint64_t>(ref.decided_bit)},
      {"all_good_agree", static_cast<std::uint64_t>(r.all_good_agree),
       static_cast<std::uint64_t>(ref.all_good_agree)},
      {"validity", static_cast<std::uint64_t>(r.validity),
       static_cast<std::uint64_t>(ref.validity)},
      {"rounds", r.rounds, ref.rounds},
      {"max_bits_good", r.max_bits_good, ref.max_bits_good},
      {"total_bits_good", r.total_bits_good, ref.total_bits_good},
      {"total_msgs_good", r.total_msgs_good, ref.total_msgs_good},
      // The adapter fingerprint ends with the mix_run_ledger digest, so
      // equal fingerprints mean equal per-processor ledgers too.
      {"fingerprint", r.fingerprint, ref.fingerprint},
  };
  std::vector<std::string> out;
  for (const Field& f : fields)
    if (f.got != f.want)
      out.push_back(std::string(f.name) + " " + std::to_string(f.got) +
                    " != run_scenario " + std::to_string(f.want));
  return out;
}

CryptoCosts crypto_probe(const sim::ScenarioSpec& s, std::uint64_t seed,
                         Tracer& tracer, int parent) {
  ScopedSpan root(tracer, "crypto.probe", parent, seed);
  const ba::ProtocolParams params = sim::tournament_params(s);
  const std::size_t k = params.tree.k1;
  const std::size_t t = params.privacy_threshold(k);
  const std::size_t words =
      ba::AlmostEverywhereBA(params, seed).layout().total_words();

  // Fault style: crashed holders drop out of the point set; lying holders
  // stay in it with garbage shares.
  const std::size_t faulty = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(s.corrupt_fraction * static_cast<double>(k))));
  const bool crash = s.adversary == sim::AdversaryKind::kCrash;
  std::vector<ba::Fp> xs;
  for (std::size_t x = 1; x <= (crash ? k - faulty : k); ++x)
    xs.push_back(ba::Fp(x));
  const ba::RobustDecoder decoder(xs, t);
  const std::size_t lies = std::min(faulty, decoder.max_errors());
  BA_REQUIRE(lies >= 1, "the probe shape leaves no error budget");

  ba::Rng rng(seed);
  std::vector<ba::Fp> secret(words);
  for (ba::Fp& w : secret) w = ba::Fp(rng.next());
  std::vector<std::vector<ba::Fp>> garbage(lies, std::vector<ba::Fp>(words));
  for (auto& g : garbage)
    for (ba::Fp& w : g) w = ba::Fp(rng.next());

  CryptoCosts out;
  const ba::CachedScheme scheme(k, t);
  std::vector<ba::VectorShare> shares;
  ba::CachedScheme::DealScratch deal_scratch;
  {
    ScopedSpan span(tracer, "crypto.deal", root.id(), seed);
    out.deal_us = us_per_word(
        [&] { scheme.deal_into(secret, rng, shares, deal_scratch); }, words);
  }

  std::vector<ba::FpSpan> clean(xs.size()), damaged(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    clean[i] = damaged[i] = ba::FpSpan{shares[i].ys.data(), words};
  for (std::size_t j = 0; j < lies; ++j)
    damaged[j * xs.size() / lies] = ba::FpSpan{garbage[j].data(), words};

  bool ok = true;
  std::vector<ba::Fp> got(words);
  ba::RobustDecoder::Scratch scratch;
  const auto decode = [&](const std::vector<ba::FpSpan>& in) {
    ok &= decoder.reconstruct_into(in.data(), in.size(), words, got.data(),
                                   scratch);
  };
  {
    ScopedSpan span(tracer, "crypto.decode_clean", root.id(), seed);
    out.decode_clean_us = us_per_word([&] { decode(clean); }, words);
  }
  ok &= got == secret;
  std::fill(got.begin(), got.end(), ba::Fp());
  {
    ScopedSpan span(tracer, "crypto.decode_damaged", root.id(), seed);
    out.decode_damaged_us = us_per_word([&] { decode(damaged); }, words);
  }
  ok &= got == secret;
  out.correct = ok;
  return out;
}

}  // namespace perfbench
