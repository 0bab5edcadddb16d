#include "train/lcurve.hpp"

#include <cstdio>
#include <memory>
#include <string>

#include "train/observer.hpp"

namespace fekf::train {

namespace {
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
}  // namespace

// The writer is the streaming LcurveObserver; a finished history is just
// replayed through the same code path, so live and post-hoc lcurve files
// are byte-identical.
void write_lcurve(const TrainResult& result, const std::string& path) {
  LcurveObserver observer(path);
  for (const EpochRecord& rec : result.history) {
    observer.on_eval(rec);
  }
}

std::vector<EpochRecord> read_lcurve(const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "r"));
  FEKF_CHECK(f != nullptr, "cannot open '" + path + "' for reading");
  char header[256];
  FEKF_CHECK(std::fgets(header, sizeof(header), f.get()) != nullptr,
             "empty lcurve file");
  FEKF_CHECK(std::string(header) == std::string(kLcurveHeader) + "\n",
             "'" + path + "': lcurve header is not '" + kLcurveHeader + "'");
  std::vector<EpochRecord> records;
  long long epoch = 0;
  EpochRecord rec;
  int fields = 0;
  while ((fields = std::fscanf(
              f.get(), "%lld,%lf,%lf,%lf,%lf,%lf,%lf,%lf,%lf,%lf", &epoch,
              &rec.cumulative_seconds, &rec.train.energy_rmse,
              &rec.train.force_rmse, &rec.test.energy_rmse,
              &rec.test.force_rmse, &rec.train.energy_offset_per_atom,
              &rec.train.energy_spread_per_atom,
              &rec.test.energy_offset_per_atom,
              &rec.test.energy_spread_per_atom)) == 10) {
    rec.epoch = static_cast<i64>(epoch);
    records.push_back(rec);
  }
  FEKF_CHECK(fields == EOF, "'" + path + "': malformed lcurve row " +
                                std::to_string(records.size() + 1));
  return records;
}

}  // namespace fekf::train
