// Learning-curve writer — the equivalent of DeePMD-kit's lcurve.out:
// one CSV row per epoch with train/test RMSE and cumulative wall time, so
// runs can be plotted or post-processed (the paper's artifact workflow
// greps epoch_train.dat the same way).
#pragma once

#include <string>

#include "train/trainer.hpp"

namespace fekf::train {

/// Write `history` as CSV with the columns of kLcurveHeader
/// (train/observer.hpp).
void write_lcurve(const TrainResult& result, const std::string& path);

/// Parse it back (round-trip for tooling/tests). A file whose header is not
/// kLcurveHeader, or with a row that does not parse, is rejected.
std::vector<EpochRecord> read_lcurve(const std::string& path);

}  // namespace fekf::train
