#include "deepmd/serialize.hpp"

#include <cmath>

namespace fekf::deepmd {

namespace {

constexpr const char* kMagic = "fekf-deepmd-model-v1";

void write_vector(TextWriter& w, const char* name,
                  const std::vector<f64>& v) {
  w.key(name);
  w.size(v.size());
  for (const f64 x : v) w.f64v(x);
}

void write_ivector(TextWriter& w, const char* name,
                   const std::vector<i64>& v) {
  w.key(name);
  w.size(v.size());
  for (const i64 x : v) w.i64v(x);
}

std::vector<f64> read_vector(TextReader& r, const char* name) {
  r.expect(name);
  const u64 n = r.read_u64();
  std::vector<f64> v;
  r.read_f64s(v, static_cast<std::size_t>(n));
  return v;
}

std::vector<i64> read_ivector(TextReader& r, const char* name) {
  r.expect(name);
  const u64 n = r.read_u64();
  std::vector<i64> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = r.read_i64();
  return v;
}

}  // namespace

void write_model_text(const DeepmdModel& model, TextWriter& w) {
  const ModelConfig& cfg = model.config();
  w.key(kMagic);
  w.key("config");
  w.i64v(model.num_types());
  w.f64v(cfg.rcut);
  w.f64v(cfg.rcut_smth);
  w.i64v(cfg.embed_width);
  w.i64v(cfg.axis_neurons);
  w.i64v(cfg.fitting_width);
  w.i64v(static_cast<i64>(cfg.fusion));
  write_ivector(w, "sel", model.sel());
  const EnvStats& env = model.env_stats();
  write_vector(w, "davg", env.davg);
  write_vector(w, "dstd_r", env.dstd_r);
  write_vector(w, "dstd_a", env.dstd_a);
  const EnergyStats& es = model.energy_stats();
  write_vector(w, "bias", es.bias_per_type);
  w.key("residual_std");
  w.f64v(es.residual_std);

  auto params = model.parameters();
  w.key("params");
  w.size(params.size());
  for (const ag::Variable& p : params) {
    w.key("");
    w.i64v(p.value().rows());
    w.i64v(p.value().cols());
    const f32* data = p.value().data();
    for (i64 i = 0; i < p.numel(); ++i) {
      w.f64v(static_cast<f64>(data[i]));
    }
  }
  w.end_line();
}

DeepmdModel read_model_text(TextReader& r) {
  const std::string_view magic = r.token();
  if (magic != kMagic) {
    r.malformed("not a fekf model (expected magic '" + std::string(kMagic) +
                "', got '" + std::string(magic.substr(0, 40)) + "')");
  }

  r.expect("config");
  ModelConfig cfg;
  const i64 num_types = r.read_i64();
  if (num_types <= 0 || num_types > 1024) {
    r.malformed("implausible num_types " + std::to_string(num_types));
  }
  cfg.rcut = r.read_f64();
  cfg.rcut_smth = r.read_f64();
  cfg.embed_width = r.read_i64();
  cfg.axis_neurons = r.read_i64();
  cfg.fitting_width = r.read_i64();
  const i64 fusion = r.read_i64();
  if (fusion < static_cast<i64>(FusionLevel::kBaseline) ||
      fusion > static_cast<i64>(FusionLevel::kOpt2)) {
    r.malformed("fusion level " + std::to_string(fusion) + " outside [" +
                std::to_string(static_cast<i64>(FusionLevel::kBaseline)) +
                ", " + std::to_string(static_cast<i64>(FusionLevel::kOpt2)) +
                "]");
  }
  cfg.fusion = static_cast<FusionLevel>(fusion);
  if (!std::isfinite(cfg.rcut) || cfg.rcut <= 0.0) {
    r.malformed("rcut must be positive and finite, got " +
                std::to_string(cfg.rcut));
  }
  if (!(cfg.rcut_smth >= 0.0 && cfg.rcut_smth < cfg.rcut)) {
    r.malformed("rcut_smth must be in [0, rcut), got " +
                std::to_string(cfg.rcut_smth));
  }
  if (cfg.embed_width < 1 || cfg.axis_neurons < 1 || cfg.fitting_width < 1 ||
      cfg.axis_neurons > cfg.embed_width) {
    r.malformed("network widths must be >= 1 with axis_neurons <= "
                "embed_width, got embed_width " +
                std::to_string(cfg.embed_width) + ", axis_neurons " +
                std::to_string(cfg.axis_neurons) + ", fitting_width " +
                std::to_string(cfg.fitting_width));
  }

  EnvStats env;
  std::vector<i64> sel = read_ivector(r, "sel");
  env.davg = read_vector(r, "davg");
  env.dstd_r = read_vector(r, "dstd_r");
  env.dstd_a = read_vector(r, "dstd_a");
  env.suggested_sel = sel;
  cfg.sel = sel;
  EnergyStats es;
  es.bias_per_type = read_vector(r, "bias");
  r.expect("residual_std");
  es.residual_std = r.read_f64();

  DeepmdModel model(cfg, static_cast<i32>(num_types));
  model.set_stats(std::move(env), std::move(es));

  r.expect("params");
  const u64 nparams = r.read_u64();
  auto params = model.parameters();
  if (nparams != params.size()) {
    r.malformed("parameter count mismatch: file has " +
                std::to_string(nparams) + " leaves, architecture has " +
                std::to_string(params.size()));
  }
  for (ag::Variable& p : params) {
    const i64 rows = r.read_i64();
    const i64 cols = r.read_i64();
    if (rows != p.value().rows() || cols != p.value().cols()) {
      r.malformed("parameter shape mismatch: file has " +
                  std::to_string(rows) + "x" + std::to_string(cols) +
                  ", architecture expects " +
                  std::to_string(p.value().rows()) + "x" +
                  std::to_string(p.value().cols()));
    }
    Tensor t(rows, cols);
    for (i64 i = 0; i < t.numel(); ++i) {
      t.data()[i] = static_cast<f32>(r.read_f64());
    }
    p.set_value(t);
  }
  return model;
}

void save_model(const DeepmdModel& model, const std::string& path) {
  TextWriter w;
  w.reserve(static_cast<std::size_t>(model.num_parameters()) * 24 + 4096);
  write_model_text(model, w);
  const std::string& body = w.str();
  std::FILE* f = std::fopen(path.c_str(), "w");
  FEKF_CHECK(f != nullptr, "cannot open '" + path + "' for writing");
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  FEKF_CHECK(ok, "short write to '" + path + "'");
}

DeepmdModel load_model(const std::string& path) {
  const std::string text = read_file(path);
  TextReader r(text, path);
  return read_model_text(r);
}

DeepmdModel clone_model(const DeepmdModel& model) {
  TextWriter w;
  w.reserve(static_cast<std::size_t>(model.num_parameters()) * 24 + 4096);
  write_model_text(model, w);
  TextReader r(w.str(), "<clone>");
  return read_model_text(r);
}

}  // namespace fekf::deepmd
