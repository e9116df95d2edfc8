#include "sim/locality_window.h"

#include <algorithm>

namespace tetris::sim {

void LocalityWindow::init(std::size_t num_machines) {
  machines = num_machines;
  locality.clear();
  viable.clear();
  best_.assign(num_machines, -1);
  best_frac_.assign(num_machines, -1.0);
}

int LocalityWindow::scan(std::size_t m) const {
  int pick = -1;
  double pick_frac = -1;
  for (std::size_t c = 0; c < rows(); ++c) {
    if (!viable[c]) continue;
    const double f = frac(c, m);
    if (f > pick_frac) {
      pick_frac = f;
      pick = static_cast<int>(c);
    }
    if (pick_frac >= 1.0) break;
  }
  return pick;
}

int LocalityWindow::best_row(std::size_t m, double* frac_out) {
  if (best_[m] == kUnknown) {
    const int b = scan(m);
    best_[m] = static_cast<std::int8_t>(b);
    best_frac_[m] = b < 0 ? -1.0 : frac(static_cast<std::size_t>(b), m);
  }
  *frac_out = best_frac_[m];
  return best_[m];
}

void LocalityWindow::replace_row(std::size_t slot, const double* fracs,
                                 bool is_viable, int moved_from) {
  // Local pointers: stores through the int8_t bests may alias anything,
  // which would otherwise reload every vector's data pointer per machine.
  double* r = locality.data() + slot * machines;
  std::int8_t* b_row = best_.data();
  double* b_frac = best_frac_.data();
  const std::size_t n = machines;
  const auto k = static_cast<std::int8_t>(slot);
  for (std::size_t m = 0; m < n; ++m) {
    const double f = fracs[m];
    const double old = r[m];
    r[m] = f;
    const std::int8_t b = b_row[m];
    if (b == moved_from) {
      // The best row moves down to `slot`: every row before its old
      // position scored strictly lower, the replaced one included.
      b_row[m] = k;
    } else if (b == k) {
      // Every row before `slot` scored below `old`, every row after at
      // most `old`: the row keeps first place unless it fell.
      if (is_viable && f >= old)
        b_frac[m] = f;
      else
        b_row[m] = kUnknown;
    } else if (b != kUnknown && is_viable &&
               (f > b_frac[m] || (f == b_frac[m] && k < b))) {
      // With no viable row b_frac is -1, below every fraction.
      b_row[m] = k;
      b_frac[m] = f;
    }
  }
}

void LocalityWindow::set_row(std::size_t slot, const double* fracs,
                             bool is_viable) {
  if (slot == rows()) {
    viable.push_back(0);
    locality.resize(viable.size() * machines);
  }
  viable[slot] = is_viable ? 1 : 0;
  replace_row(slot, fracs, is_viable, kNoRow);
}

void LocalityWindow::remove_row(std::size_t slot) {
  const std::size_t last = rows() - 1;
  if (slot == last) {
    const auto k = static_cast<std::int8_t>(slot);
    for (std::size_t m = 0; m < machines; ++m) {
      if (best_[m] == k) best_[m] = kUnknown;
    }
  } else {
    replace_row(slot, locality.data() + last * machines, viable[last] != 0,
                static_cast<int>(last));
    viable[slot] = viable[last];
  }
  viable.pop_back();
  locality.resize(last * machines);
}

void LocalityWindow::rebuild() {
  std::fill(best_.begin(), best_.end(), kUnknown);
}

}  // namespace tetris::sim
