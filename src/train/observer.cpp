#include "train/observer.hpp"

namespace fekf::train {

// ---------------------------------------------------------------------------
// LcurveObserver
// ---------------------------------------------------------------------------

LcurveObserver::LcurveObserver(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  FEKF_CHECK(file_ != nullptr, "cannot open '" + path + "' for writing");
  std::fprintf(file_,
               "epoch,seconds,train_e_rmse,train_f_rmse,test_e_rmse,"
               "test_f_rmse\n");
}

LcurveObserver::~LcurveObserver() {
  if (file_ != nullptr) std::fclose(file_);
}

void LcurveObserver::on_eval(const EpochRecord& record) {
  std::fprintf(file_, "%lld,%.6f,%.8g,%.8g,%.8g,%.8g\n",
               static_cast<long long>(record.epoch),
               record.cumulative_seconds, record.train.energy_rmse,
               record.train.force_rmse, record.test.energy_rmse,
               record.test.force_rmse);
  std::fflush(file_);
}

}  // namespace fekf::train
