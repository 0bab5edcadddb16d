#include "train/observer.hpp"

namespace fekf::train {

// ---------------------------------------------------------------------------
// LcurveObserver
// ---------------------------------------------------------------------------

LcurveObserver::LcurveObserver(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  FEKF_CHECK(file_ != nullptr, "cannot open '" + path + "' for writing");
  std::fprintf(file_, "%s\n", kLcurveHeader);
}

LcurveObserver::~LcurveObserver() {
  if (file_ != nullptr) std::fclose(file_);
}

void LcurveObserver::on_eval(const EpochRecord& record) {
  std::fprintf(file_, "%lld,%.6f,%.8g,%.8g,%.8g,%.8g,%.8g,%.8g,%.8g,%.8g\n",
               static_cast<long long>(record.epoch),
               record.cumulative_seconds, record.train.energy_rmse,
               record.train.force_rmse, record.test.energy_rmse,
               record.test.force_rmse, record.train.energy_offset_per_atom,
               record.train.energy_spread_per_atom,
               record.test.energy_offset_per_atom,
               record.test.energy_spread_per_atom);
  std::fflush(file_);
}

}  // namespace fekf::train
