#ifndef PODIUM_CHECK_DIFFERENTIAL_H_
#define PODIUM_CHECK_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace podium::check {

/// Configuration of the randomized differential driver. Round r generates
/// its instance from seed `seed + r`, so any failing round is reproduced
/// exactly by rerunning with `--seed=<printed seed> --rounds=1`.
struct DiffOptions {
  std::uint64_t seed = 1;
  int rounds = 25;

  /// Re-run every optimized selector at these global thread-pool sizes
  /// (and rebuild the group index under each) asserting byte-identical
  /// output; empty disables the sweep.
  std::vector<std::size_t> thread_counts = {1, 2, 8};

  /// Run the thread sweep once per kernel variant (forced scalar and the
  /// CPU's native dispatch — see core/kernels.h), asserting the SIMD and
  /// scalar inner loops select byte-identically. On hardware without
  /// AVX2 the two passes coincide. False pins the ambient variant.
  bool sweep_kernel_variants = true;

  /// Drive the serve-layer SelectionService (with and without the result
  /// cache) and compare its responses against the oracle selection.
  bool with_serve = true;

  /// For each K here, build a sharded snapshot over the round's dataset
  /// (both partition strategies, at `shard_thread_counts` pool sizes) and
  /// run the two-round distributed selection. K=1 must be byte-identical
  /// to the single-snapshot oracle, also at budget = user count; K>1 must
  /// be byte-identical to the oracle run over the union of the oracle's
  /// round-1 pools, score the merged set exactly (vs OracleScore), and
  /// satisfy the proven (1−1/e)²/min(K,B) bound against the oracle.
  /// Empty disables.
  std::vector<std::size_t> shard_counts = {};

  /// Global thread-pool sizes the shard sweep runs under; selections must
  /// be byte-invariant across them.
  std::vector<std::size_t> shard_thread_counts = {1, 8};
};

/// The outcome of a differential run. Every divergence message names the
/// round seed that produced it.
struct DiffReport {
  int rounds_run = 0;
  std::vector<std::string> divergences;

  bool ok() const { return divergences.empty(); }
};

/// Runs `options.rounds` differential rounds. Each round generates a
/// small seeded instance via podium::datagen, then asserts that the naïve
/// Algorithm-1 oracle, the greedy, every configured thread count, and
/// (optionally) the serve path all produce byte-identical selections —
/// at the round's budget and, except on the tiny rounds, at budget = user
/// count — plus the greedy invariants of invariants.h, and the (1 − 1/e)
/// bound against the exhaustive optimum on instances small enough to
/// enumerate.
DiffReport RunDifferential(const DiffOptions& options);

}  // namespace podium::check

#endif  // PODIUM_CHECK_DIFFERENTIAL_H_
