// Per-stage locality window (DESIGN.md §12.5): the local fraction of the
// stage's first runnable tasks (one row per runnable slot) against every
// real machine, plus, per machine, the row a probe would pick — kept in
// step with every row change instead of rescanned by every probe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tetris::sim {

class LocalityWindow {
 public:
  std::size_t machines = 0;
  // Row-major local fractions, [slot * machines + m], each in [0, 1].
  std::vector<double> locality;
  // Per row: the task's inputs are readable (inputs_available()) as of
  // churn epoch `viable_epoch`; non-viable rows are never candidates.
  // A caller that rewrites flags calls rebuild().
  std::vector<unsigned char> viable;
  std::uint64_t viable_epoch = 0;

  std::size_t rows() const { return viable.size(); }
  double frac(std::size_t slot, std::size_t m) const {
    return locality[slot * machines + m];
  }

  // Sizes an empty window for `num_machines` machines.
  void init(std::size_t num_machines);
  // Writes row `slot` (appending it when slot == rows()): `fracs` holds
  // one local fraction per machine.
  void set_row(std::size_t slot, const double* fracs, bool is_viable);
  // Moves the last row into `slot` and drops the last one (the runnable
  // set's swap-with-last removal).
  void remove_row(std::size_t slot);
  // Every viability flag may have changed: every machine's best row is
  // rescanned before its next use.
  void rebuild();
  // scan(m), the first viable row of highest local fraction (-1 when no
  // row is viable), with that row's fraction in *frac (-1 for none).
  // Kept across row changes: when row k changes, a machine whose best
  // row was k is left unknown — and rescanned here on its next use —
  // only if its fraction there fell or the row turned non-viable;
  // elsewhere the row takes over on a strictly higher fraction, or an
  // equal one at a lower slot.
  int best_row(std::size_t m, double* frac);
  // The from-scratch scan a probe used to run: the first strict
  // improvement wins, stopping once a row is fully local.
  int scan(std::size_t m) const;

 private:
  static constexpr std::int8_t kUnknown = -2;  // best_ awaiting a rescan
  static constexpr int kNoRow = -3;            // replace_row: nothing moved
  // Overwrites row `slot` with `fracs` and updates every known best; a
  // best on row `moved_from` (kNoRow: none) follows the row to `slot`.
  void replace_row(std::size_t slot, const double* fracs, bool is_viable,
                   int moved_from);

  // Per machine: scan(m) or kUnknown, and that row's fraction (-1 when
  // there is no viable row).
  std::vector<std::int8_t> best_;
  std::vector<double> best_frac_;
};

}  // namespace tetris::sim
